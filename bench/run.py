"""helmlayer benchmark: one command for every workload and metric.

    python3 bench/run.py --workload {sweep,spectral,requests} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  Every measurement runs in a
fresh interpreter (``worker.py``) with BLAS pinned to one thread, so load
comes from one process and one core.

--trace 0  end-to-end metrics, tracing off:
           setup_s      median over fresh interpreters of the time to
                        import helmlayer and generate the inputs, at the
                        reference host speed (the time over the kernel's,
                        times CAL_REF_S); a first, discarded process warms
                        the bytecode and file caches
           wall_s       wall time of one workload pass at the reference
                        host speed of clock.py: the sum over the pass's
                        operations (a run_sweep call per K, an energy
                        draw, a CLI request) of the median, over the
                        passes made in --seconds, of the operation's time
                        over the calibration kernel's, times CAL_REF_S
           peak_rss_mb  peak resident set of the measuring process, read
                        after its first pass
--trace 1  per-layer metrics from one traced pass, next to one untraced
           pass in its own process; their difference, both at the
           reference speed, is trace.overhead_s.
           The workload's headline figure (workload.result_ratio) is
           reported here: it is deterministic per seed but varies across
           seeds, and the output checks hold it to the stored reference.

Output checks run in every mode.  The last line of standard output is
the JSON result; the full record (environment stamp, every pass, every
check) goes to .bench_out/.  Exit status: 0 when every check passed, 1
when an output check failed, 2 when the program cannot be found, 3 when
a measuring process failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from clock import CAL_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

WORKLOADS = ("sweep", "spectral", "requests")
SETUP_SAMPLES = 6
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, mode, deadline, extra=()):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--workdir", str(OUT / "work" / args.workload), *extra]
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for a {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "helmlayer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def reference_pass_s(op_ratio):
    """Seconds of one pass at the reference speed: the sum over its
    operations of each one's median ratio across passes, times CAL_REF_S."""
    return CAL_REF_S * sum(statistics.median(p[op] for p in op_ratio if op in p)
                           for op in op_ratio[0])


def measure_plain(args, deadline):
    run_worker(args, "setup", deadline)  # warm bytecode and file caches; discarded
    setups = [run_worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    rep = run_worker(args, "plain", deadline, ("--seconds", str(args.seconds)))
    setups.append(rep)
    metrics = {
        "wall_s": reference_pass_s(rep["op_ratio"]),
        "setup_s": CAL_REF_S * statistics.median(s["setup_ratio"] for s in setups),
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    detail = {"setup_samples": [s["setup_s"] for s in setups], "passes": rep["passes"],
              "median_pass_s": statistics.median(rep["passes"]), "op_s": rep["op_s"],
              "op_ratio": rep["op_ratio"],
              "cpu_s": rep["cpu_s"],
              "figure": rep["figure"]}
    return metrics, E2E_UNITS, [rep], detail


def measure_traced(args, deadline):
    plain = run_worker(args, "plain", deadline, ("--seconds", "0"))
    spans = OUT / f"spans_{args.workload}_seed{args.seed}.json"
    traced = run_worker(args, "traced", deadline, ("--spans", str(spans)))
    metrics = dict(traced["layers"])
    # both passes at the reference speed, so that host drift between the
    # two processes does not show as tracing cost
    metrics["trace.overhead_s"] = CAL_REF_S * (sum(traced["op_ratio"][0].values())
                                               - sum(plain["op_ratio"][0].values()))
    metrics["trace.spans"] = traced["spans"]
    metrics["process.cpu_s"] = plain["cpu_s"][0]
    metrics["workload.result_ratio"] = plain["figure"]
    units = {k: tracer.unit(k) for k in metrics}
    detail = {"untraced_pass_s": plain["passes"][0], "traced_pass_s": traced["passes"][0],
              "top_self_s": traced["top_self_s"], "spans_file": str(spans.relative_to(ROOT))}
    return metrics, units, [plain, traced], detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken inputs, for the self-test; no reference checks")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "helmlayer" / "__init__.py").is_file():
        print(f"helmlayer sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(json.dumps({"environment": env}))
    measure = measure_traced if args.trace else measure_plain
    try:
        metrics, units, reports, detail = measure(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    problems = [p for rep in reports for p in rep["problems"]]
    attempted = sum(rep["attempted"] for rep in reports)
    failed = sum(rep["failed"] for rep in reports)
    nonfinite = [k for k, v in metrics.items() if not math.isfinite(v)]
    problems += [f"metric {k} is not finite" for k in nonfinite]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "error_rate": failed / attempted, "problems": problems, "detail": detail,
              "result": result}
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1)
    for k, v in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {units[k]}")
    print(f"{args.workload} error_rate = {failed}/{attempted}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
