"""Print one sha256 per helmlayer output at a seed, to tell whether a
change kept every output's bits.

    python3 tools/digest.py --seed N [--root PATH]

PATH is the tree whose ``src/`` and ``bench/`` are imported (by default
the one holding this script), so two checkouts compare by running the
script once on each and diffing what it prints.  The outputs are:

  requests/<file>   each CSV the benchmark's ``requests`` runner writes
                    (forward data and reconstructions, 18 files)
  requests          that runner's outputs, without timings
  sweep             the ``sweep`` runner's cells, without timings
  spectral          the ``spectral`` runner's energy constant and ratios
  forward           ``helmlayer forward --seed N``'s CSV
  verify            ``helmlayer verify --seed N``'s lines

Runner outputs are hashed as JSON, floats written by ``repr``, so a
digest changes with any bit of any figure.  BLAS runs on one thread, as
in the benchmark.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _pass_sha(out):
    fields = {"attempted": out.attempted, "failed": out.failed, "figure": out.figure,
              "outputs": out.outputs}
    return _sha(json.dumps(fields, sort_keys=True).encode())


def digests(seed, root):
    """(name, sha256) for each output of the tree at ``root``, at ``seed``."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in the tree read
    import helmlayer as hl
    import workloads as wl

    if Path(hl.__file__).resolve().parent != root / "src" / "helmlayer":
        raise SystemExit(f"imported helmlayer from {hl.__file__}, not from {root / 'src'}")
    found = []
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink):
        tmp = Path(tmp)
        for name in ("requests", "sweep", "spectral"):
            work = tmp / name
            work.mkdir()
            out = wl.RUNS[name](hl, wl.INPUTS[name](hl, seed), work)
            found += [(f"{name}/{p.name}", _sha(p.read_bytes())) for p in sorted(work.iterdir())]
            found.append((name, _pass_sha(out)))
        cfg = replace(hl.cli.RunConfig(), seed=seed)
        hl.cli.cmd_forward(cfg, str(tmp / "forward.csv"))
        found.append(("forward", _sha((tmp / "forward.csv").read_bytes())))
        lines, _ = hl.cli.run_verify(cfg)
        found.append(("verify", _sha("\n".join(lines).encode())))
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                    help="tree to import src/ and bench/ from")
    args = ap.parse_args()
    for name, sha in digests(args.seed, args.root):
        print(f"{sha}  {name}")


if __name__ == "__main__":
    main()
