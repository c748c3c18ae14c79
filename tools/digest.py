"""Print one sha256 per helmlayer output at a seed, to tell whether a
change kept every output's bits; or, against a second tree, how far each
runner output's floats moved.

    python3 tools/digest.py --seed N [--root PATH] [--against PATH]

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

With ``--against OTHER`` it prints instead, for each runner output, the
largest relative deviation |a - b| / max(|a|, |b|) over its floats
between the tree at PATH and the tree at OTHER, and where it lies (inf
where the two differ in anything but a float's value).  Each tree runs
in a process of its own.
"""

import argparse
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

RUNNERS = ("requests", "sweep", "spectral")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _load(root):
    """helmlayer and the benchmark's workloads, imported from the tree at ``root``."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in the tree read
    import helmlayer as hl
    import workloads as wl

    if Path(hl.__file__).resolve().parent != root / "src" / "helmlayer":
        raise SystemExit(f"imported helmlayer from {hl.__file__}, not from {root / 'src'}")
    return hl, wl


def _run(hl, wl, name, seed, work):
    """A runner's pass in the directory ``work``: its outputs without timings."""
    work.mkdir()
    out = wl.RUNS[name](hl, wl.INPUTS[name](hl, seed), work)
    return {"attempted": out.attempted, "failed": out.failed, "figure": out.figure,
            "outputs": out.outputs}


def digests(seed, root):
    """(name, sha256) for each output of the tree at ``root``, at ``seed``."""
    hl, wl = _load(Path(root).resolve())
    found = []
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink):
        tmp = Path(tmp)
        for name in RUNNERS:
            fields = _run(hl, wl, name, seed, tmp / name)
            found += [(f"{name}/{p.name}", _sha(p.read_bytes()))
                      for p in sorted((tmp / name).iterdir())]
            found.append((name, _sha(json.dumps(fields, sort_keys=True).encode())))
        cfg = replace(hl.cli.RunConfig(), seed=seed)
        hl.cli.cmd_forward(cfg, str(tmp / "forward.csv"))
        found.append(("forward", _sha((tmp / "forward.csv").read_bytes())))
        lines, _ = hl.cli.run_verify(cfg)
        found.append(("verify", _sha("\n".join(lines).encode())))
    return found


def _runner_fields(seed, root):
    """Every runner's outputs of the tree at ``root``, at ``seed``."""
    hl, wl = _load(Path(root).resolve())
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink):
        return {name: _run(hl, wl, name, seed, Path(tmp) / name) for name in RUNNERS}


def _deviation(a, b, where=""):
    """(largest relative deviation, where it lies) between two outputs."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, where
        dev = abs(a - b) / max(abs(a), abs(b))
        return (dev if math.isfinite(dev) else math.inf), where
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = [(a[k], b[k], f"{where}.{k}") for k in sorted(a)]
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and len(a) == len(b):
        pairs = [(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return (0.0 if a == b else math.inf), where
    return max((_deviation(*p) for p in pairs), key=lambda d: d[0], default=(0.0, where))


def deviations(seed, root, against):
    """(name, deviation, where) for each runner output, between two trees."""
    ctx = multiprocessing.get_context("spawn")
    fields = []
    for tree in (root, against):
        with ctx.Pool(1) as pool:
            fields.append(pool.apply(_runner_fields, (seed, str(tree))))
    return [(name, *_deviation(fields[0][name], fields[1][name], name)) for name in RUNNERS]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                    help="tree to import src/ and bench/ from")
    ap.add_argument("--against", default=None,
                    help="second tree: print each runner output's largest float deviation")
    args = ap.parse_args()
    if args.against is None:
        for name, sha in digests(args.seed, args.root):
            print(f"{sha}  {name}")
        return
    for name, dev, where in deviations(args.seed, args.root, args.against):
        print(f"{dev:.3e}  {name}" + (f"  at {where}" if dev > 0 else ""))


if __name__ == "__main__":
    main()
