"""Smoke self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload once with shrunken inputs (``run.py --smoke``),
traced and untraced, and asserts that the run exits 0, that its output
checks pass, and that every metric BENCHMARK.json names is present,
finite and carries the declared unit.  Then runs the benchmark in a copy
holding only BENCHMARK.json and the benchmark directory, where it must
fail without printing a result.  Exits non-zero on the first failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench_run(root, workload, trace):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def check_run(spec, workload, trace):
    proc = bench_run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload} trace={trace} output checks failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, set(got) ^ {m["name"] for m in wanted}
    for m in wanted:
        value = got[m["name"]]
        assert isinstance(value["value"], (int, float)), (m["name"], value)
        assert math.isfinite(value["value"]), (m["name"], value)
        assert value["unit"] == m["unit"], (m["name"], value["unit"], m["unit"])
    print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_without_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run(bare, "requests", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"
    print("ok  fails without the program")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
