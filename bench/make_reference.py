"""Store the seed-state outputs that the output checks compare against.

    python3 bench/make_reference.py --workload sweep --seeds 0-15

Runs one untraced pass per seed, in the same fresh-process setting as
``run.py``, and writes bench/reference/<workload>.json.  Run it only on
the commit whose outputs define correct behaviour; a later change that
moves an output beyond workloads.REF_RTOL then fails its checks.
"""

import argparse
import json
import sys
import time
from types import SimpleNamespace

import run
import workloads as wl


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-15")
    args = ap.parse_args()
    path = wl.reference_path(args.workload)
    stored = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    run.OUT.mkdir(exist_ok=True)
    for seed in args.seeds:
        job = SimpleNamespace(workload=args.workload, seed=seed, smoke=False)
        rep = run.run_worker(job, "plain", time.monotonic() + run.RUN_LIMIT_S, ("--seconds", "0"))
        stored["seeds"][str(seed)] = rep["reference"]
        # reference mismatches are expected when regenerating; other problems are reported
        for p in rep["problems"]:
            if "reference" not in p:
                print(f"seed {seed}: {p}", file=sys.stderr)
        print(f"seed {seed}: stored", flush=True)
    stored["seeds"] = dict(sorted(stored["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(stored, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main())
