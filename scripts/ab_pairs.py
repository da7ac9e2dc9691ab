#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and say whether
the second one's gain on a metric may be claimed.

    python scripts/ab_pairs.py --parent DIR --change DIR --workload W --pairs N --seconds S [--seed K] [--metric pass_s]

Pair i runs ``perfbench/run.py --workload W --seed K+i --seconds S`` in
each checkout, a fresh process each, the parent first in even pairs and the
change first in odd ones.  It prints every run, each side's median and
quartiles of every end-to-end metric of ``BENCHMARK.json``, the pairs the
change won on ``--metric`` (ties count for neither side) and whether the
gain may be claimed: the change won at least nine tenths of the pairs, its
median is better by more than the parent's interquartile range, and no run
failed an operation.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def end_to_end() -> dict[str, str]:
    """Each end-to-end metric of the benchmark and its better direction."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one benchmark run in ``checkout``: whether it was
    correct, the operations that failed, and each metric's value."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "failed": None, "metrics": {}}
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"], "metrics": metrics}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(pairs: list[tuple[dict, dict]], better: dict[str, str], metric: str) -> tuple[list[str], bool]:
    """The report lines of ``pairs`` of (parent, change) results, and
    whether the change's gain on ``metric`` may be claimed."""
    out, stats = [], {}
    for name, direction in better.items():
        stats[name] = [quartiles([pair[side]["metrics"][name] for pair in pairs]) for side in (0, 1)]
        for label, (q1, median, q3) in zip(("parent", "change"), stats[name]):
            out.append(f"{name} ({direction} is better) {label}: median {median:.4f} [{q1:.4f}, {q3:.4f}]")
    sign = 1 if better[metric] == "lower" else -1
    # the amount by which the change is better in each pair, positive when it is
    gains = [sign * (parent["metrics"][metric] - change["metrics"][metric]) for parent, change in pairs]
    won, lost = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    (p1, parent_median, p3), (_, change_median, _) = stats[metric]
    gap, spread = sign * (parent_median - change_median), p3 - p1
    failed = sum(1 for pair in pairs for res in pair if not res["correct"] or res["failed"])
    holds = 10 * won >= 9 * len(pairs) and gap > spread and not failed
    out.append(f"{metric}: the change won {won} and lost {lost} of {len(pairs)} pairs")
    out.append(f"{metric}: median gain {gap:.4f} against a parent interquartile range of {spread:.4f}")
    out.append(f"runs with a failed operation: {failed}")
    out.append(f"gain on {metric} may be claimed: {'yes' if holds else 'no'}")
    return out, holds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="the checkout measured as the baseline")
    parser.add_argument("--change", type=Path, required=True, help="the checkout whose gain is judged")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair; pair i uses seed + i")
    parser.add_argument("--metric", default="pass_s")
    args = parser.parse_args(argv)
    better = end_to_end()
    if args.metric not in better:
        parser.error(f"--metric must be one of {sorted(better)}")
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run(getattr(args, side), args.workload, seed, args.seconds) for side in order}
        pairs.append((got["parent"], got["change"]))
        for side in ("parent", "change"):
            res = got[side]
            values = " ".join(f"{name} {res['metrics'].get(name, float('nan')):.4f}" for name in better)
            print(f"pair {i + 1} seed {seed} {side}{' (first)' if side == order[0] else ''}: {values} correct {res['correct']} failed {res['failed']}", flush=True)
        if not all(name in res["metrics"] for res in got.values() for name in better):
            print("error: a run gave no result", file=sys.stderr)
            return 2
    lines, holds = summary(pairs, better, args.metric)
    print("\n".join(lines))
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
