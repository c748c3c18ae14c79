"""Repeat benchmark runs across seeds and summarise their spread.

    python3 bench/collect.py --workloads sweep,spectral,requests \\
        --seeds 0-9 --sets 2 --out .bench_out/collect.json

Each set runs ``run.py --trace 0`` once per (workload, seed), with the
run length from BENCHMARK.json.  For every end-to-end metric the summary
gives the median, the quartiles from ``statistics.quantiles(n=4)`` and
the spread (q3 - q1) / median, per set, and the drift of the second
set's median from the first's.  bench/baseline.json is this summary for
the seed-state program, with the environment it was measured in.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from make_reference import seed_range
from run import environment

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# The seed the baseline figures are quoted at (the CLI's default
# noise.seed) and a seed held out while the benchmark was written; the
# output checks of both pass on the seed-state program.
BASELINE_SEED = 7
HELDOUT_SEED = 11


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    return {"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed, "result": result,
            "stderr": proc.stderr.strip()[-500:]}


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="sweep,spectral,requests")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metric_names = [m["name"] for m in spec["end_to_end"]]
    summary = {"baseline_seed": BASELINE_SEED, "heldout_seed": HELDOUT_SEED,
               "environment": environment(), "run_seconds": seconds, "seeds": args.seeds,
               "workloads": {}}
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in args.seeds:
                r = one_run(workload, seed, seconds)
                runs.append(r)
                res = r["result"] or {}
                vals = {k: v["value"] for k, v in res.get("metrics", {}).items()}
                print(f"{workload} seed={seed} exit={r['exit']} correct={res.get('correct')} "
                      f"elapsed={r['elapsed_s']:.1f}s {vals}", flush=True)
            ok = [r["result"] for r in runs if r["result"] is not None]
            metrics = {m: summarise([x["metrics"][m]["value"] for x in ok]) for m in metric_names}
            sets.append({"runs": [{k: r[k] for k in ("seed", "exit", "elapsed_s")}
                                  | {"correct": (r["result"] or {}).get("correct")} for r in runs],
                         "metrics": metrics})
        entry = {"sets": sets}
        if len(sets) > 1:
            entry["median_drift"] = {m: sets[1]["metrics"][m]["median"] / sets[0]["metrics"][m]["median"] - 1
                                     for m in metric_names}
        summary["workloads"][workload] = entry
        for i, s in enumerate(sets):
            print(workload, f"set {i}:", {m: round(v["spread"], 4) for m, v in s["metrics"].items()},
                  flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
