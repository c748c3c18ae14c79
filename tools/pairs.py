"""Alternated benchmark pairs between two trees, and the verdict on a gain.

    python3 tools/pairs.py --parent PATH --change PATH --workload W --seed S \\
        --pairs N --seconds T

Each pair runs each tree's own ``bench/run.py --workload W --seed S
--seconds T --trace 0``, in a process of its own: the parent first in odd
pairs (1, 3, ...), the change first in even ones, so that a drift in the
host's load falls on both sides alike.  For each end-to-end metric of the
parent's ``BENCHMARK.json`` it then prints each side's median and
quartiles, how many pairs the change won (ties count for neither side),
the change of the median against the metric's regression bound, and the
verdict on a claimed gain: the change wins at least nine tenths of the
pairs, and its median beats the parent's by more than the distance
between the parent's quartiles.

Exit status: 0, or 1 when any run printed ``"correct": false``, or 2
when a run gave no result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric over the pairs: quartiles (q1, median, q3)
    of each side, and the pairs the change won."""

    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float
    parent: tuple
    change: tuple
    won: int
    pairs: int

    @property
    def gain(self):
        """How far the change's median beats the parent's (negative when
        it is worse), in the metric's unit."""
        diff = self.parent[1] - self.change[1]
        return diff if self.better == "lower" else -diff

    @property
    def spread(self):
        """The distance between the parent's quartiles."""
        return self.parent[2] - self.parent[0]

    @property
    def claim_holds(self):
        return 10 * self.won >= 9 * self.pairs and self.gain > self.spread

    @property
    def within_bound(self):
        """The change's median is no worse than the parent's by more than
        the bound, a fraction of the parent's median."""
        return -self.gain <= self.bound * abs(self.parent[1])


def quartiles(values):
    """(q1, median, q3) of the values, as ``statistics.quantiles``'
    inclusive method gives them; one value is all three."""
    values = list(values)
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent_runs, change_runs, end_to_end):
    """One ``Metric`` per entry of ``end_to_end`` (the ``end_to_end``
    list of a ``BENCHMARK.json``) from the result lines of the two sides,
    the i-th run of each side forming pair i."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need one run of each side per pair, and at least one pair")
    out = []
    for spec in end_to_end:
        name = spec["name"]
        a = [run["metrics"][name]["value"] for run in parent_runs]
        b = [run["metrics"][name]["value"] for run in change_runs]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        won = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        out.append(Metric(name, spec.get("unit", ""), spec["better"], float(spec["bound"]),
                          quartiles(a), quartiles(b), won, len(a)))
    return out


def report(metrics):
    """The lines ``main`` prints for the metrics."""
    lines = []
    for m in metrics:
        rel = -m.gain / abs(m.parent[1]) if m.parent[1] else 0.0
        lines.append(
            f"{m.name} ({m.unit}, {m.better} is better): "
            f"parent {m.parent[1]:.6g} [{m.parent[0]:.6g}, {m.parent[2]:.6g}]  "
            f"change {m.change[1]:.6g} [{m.change[0]:.6g}, {m.change[2]:.6g}]  "
            f"won {m.won}/{m.pairs}  median {rel:+.1%} "
            f"({'within' if m.within_bound else 'beyond'} bound {m.bound:.0%})  "
            f"gain {m.gain:.4g} vs parent IQR {m.spread:.4g}: "
            f"claim {'holds' if m.claim_holds else 'not met'}")
    return lines


def order(pairs):
    """The (pair, side) runs in the order they are made: odd pairs run
    the parent first, even pairs the change."""
    runs = []
    for i in range(1, pairs + 1):
        sides = ("parent", "change") if i % 2 else ("change", "parent")
        runs += [(i, side) for side in sides]
    return runs


def bench_run(tree, workload, seed, seconds):
    """The JSON result line of one ``bench/run.py --trace 0`` run of the
    tree, or None when it printed none."""
    cmd = [sys.executable, str(Path(tree) / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="tree of the parent commit")
    ap.add_argument("--change", required=True, help="tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    end_to_end = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    incorrect = False
    for i, side in order(args.pairs):
        result = bench_run(trees[side], args.workload, args.seed, args.seconds)
        if result is None:
            print(f"pair {i} {side}: no result")
            return 2
        incorrect |= result.get("correct") is not True
        values = "  ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"pair {i} {side}: correct {result.get('correct')}  {values}", flush=True)
        runs[side].append(result)
    for line in report(summarize(runs["parent"], runs["change"], end_to_end)):
        print(line)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
