"""One benchmark process: set up a workload, run it, report JSON.

Started by ``run.py``, one fresh interpreter per measurement, so import
time, peak RSS and caches belong to this run alone.  Modes:

  setup   import helmlayer and build the inputs, report the time taken,
          also as a ratio to the calibration kernel run before and after
  plain   set up, then run passes while the next one is expected to end
          within --seconds (at least one); report each pass's wall time,
          each operation's time in seconds and as a ratio to the
          calibration kernel (clock.py), and the output checks
  traced  set up, install the tracer, run one pass, report per-layer
          metrics and write the spans to --spans

The last line of standard output is the JSON report.
"""

import time

from clock import calibrate

CAL0 = calibrate()
T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    if not (SRC / "helmlayer" / "__init__.py").is_file():
        raise SystemExit(f"no helmlayer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import helmlayer  # the package imports every layer module

    if Path(helmlayer.__file__).resolve().parent != SRC / "helmlayer":
        raise SystemExit(f"imported helmlayer from {helmlayer.__file__}, not from {SRC}")
    return helmlayer


def cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    hl = import_program()
    import workloads as wl

    inputs = wl.INPUTS[args.workload](hl, args.seed, smoke=args.smoke)
    setup_s = time.perf_counter() - T0
    # set-up time over the calibration kernel's, as for the operations
    report = {"setup_s": setup_s, "setup_ratio": setup_s / (0.5 * (CAL0 + calibrate()))}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    run = wl.RUNS[args.workload]
    warmup = wl.WARMUPS.get(args.workload)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if warmup is not None:
            warmup(hl, inputs, workdir)
        tracer = None
        if args.mode == "traced":
            import tracer as tr

            tracer = tr.Tracer()
            tr.install(tracer, hl)
        passes, outs, cpu = [], [], []
        start = time.perf_counter()
        while True:
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            out = run(hl, inputs, workdir)
            passes.append(time.perf_counter() - t0)
            cpu.append(cpu_seconds() - c0)
            outs.append(out)
            if len(outs) == 1:
                # peak RSS of one pass at the stated size; later passes can
                # raise it through allocator reuse, and their count varies
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.mode == "traced" or time.perf_counter() - start + passes[-1] > args.seconds:
                break

    check = wl.CHECKS[args.workload]
    problems = []
    for i, out in enumerate(outs):
        problems += [f"pass {i}: {p}" for p in check(out, args.seed, args.smoke)]
        if repr(out.figure) != repr(outs[0].figure):
            problems.append(f"pass {i}: figure {out.figure!r} differs from pass 0 "
                            f"({outs[0].figure!r})")
    report.update({
        "passes": passes,
        "op_s": [o.clock.op_s for o in outs],
        "op_ratio": [o.clock.op_ratio for o in outs],
        "cpu_s": cpu,
        "attempted": sum(o.attempted for o in outs),
        "failed": sum(o.failed for o in outs),
        "figure": outs[0].figure,
        "problems": problems,
        "peak_rss_mb": rss_mb,
        "reference": wl.reference_payload(args.workload, outs[0]),
    })
    if tracer is not None:
        report["layers"] = tr.layer_metrics(tracer.spans)
        report["top_self_s"] = dict(list(tr.self_time_by_name(tracer.spans).items())[:12])
        report["spans"] = len(tracer.spans)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "parent", "start", "end", "size"],
                           "spans": tracer.spans}, fh, separators=(",", ":"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
