#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and say whether
the second one's gain on a metric may be claimed, and whether it is worse
on any end-to-end metric.

    python scripts/ab_pairs.py --parent DIR --change DIR --workload W --pairs N --seconds S [--seed K] [--metric pass_s] [--record FILE]

Pair i runs ``perfbench/run.py --workload W --seed K+i --seconds S`` in
each checkout, a fresh process each, the parent first in even pairs and the
change first in odd ones.  A run's result line gives the end-to-end
metrics; the full record line before it gives the per-layer metrics of
``BENCHMARK.json`` that it holds, in an untraced run the per-verb times
``construct_s`` ... ``scan_s``, and ``pass_wall_s``, the wall time of the
pass that ``pass_s`` rescales by the run's speed probes.  It prints every
run, each side's median and quartiles of every end-to-end metric, each
side's median of every per-layer metric that every run holds, each side's
median wall time and the pairs whose wall-time winner is not their
``pass_s`` winner (when every run holds the wall time: a probe that
inverts a pair shows there), the pairs the change won on ``--metric``
(ties count for neither side) and whether the gain may be claimed: the
change won at least nine tenths of the pairs, its median is better by
more than the parent's interquartile range, and no run failed an
operation.  Only the end-to-end metrics get verdicts.

Each end-to-end metric also gets a no-regression verdict against its
``bound`` in ``BENCHMARK.json``, a share of the parent median: "not worse"
when every change run beats every parent run; else "unresolved" when the
parent's interquartile range is wider than the bound, as the runs then
cannot tell a change of that size; else "not worse" when the change median
is within the parent median moved by the bound, and "worse" otherwise.

With ``--record FILE`` the run appends one entry to the JSON list in FILE
(made if missing): each checkout's ``git describe --always --dirty``, the
seeds, each side's median and quartiles, the pairs won and lost and the
verdict of every end-to-end metric, each side's median of every per-layer
metric, each side's median wall time and the inverted pairs (``wall``,
null unless every run holds the wall time), and whether the gain may be
claimed.  The exit status is 0 when the gain may be claimed, else 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metrics() -> list[dict]:
    return _benchmark()["end_to_end"]


def per_layer() -> list[str]:
    """The per-layer metrics of the benchmark, in its order."""
    return [m["name"] for m in _benchmark()["per_layer"]]


def end_to_end() -> dict[str, str]:
    """Each end-to-end metric of the benchmark and its better direction."""
    return {m["name"]: m["better"] for m in _metrics()}


def bounds() -> dict[str, float]:
    """Each end-to-end metric's bound, the share of the parent median by
    which the change may be worse."""
    return {m["name"]: m["bound"] for m in _metrics()}


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one benchmark run in ``checkout``: whether it was
    correct, the operations that failed, and each end-to-end metric's
    value; and the value of each per-layer metric and of ``pass_wall_s``
    (None when missing) in the full record line before it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "failed": None, "metrics": {}, "layers": {}, "wall": None}
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    full = json.loads(lines[-2])["metrics"] if len(lines) > 1 else {}
    layers = {name: full[name]["value"] for name in per_layer() if name in full}
    wall = full["pass_wall_s"]["value"] if "pass_wall_s" in full else None
    return {"correct": result["correct"], "failed": result["failed"], "metrics": metrics, "layers": layers, "wall": wall}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(pairs: list[tuple[dict, dict]], name: str, direction: str) -> dict:
    """Each side's values of metric ``name`` over ``pairs`` of (parent,
    change) results, their quartiles, and the pairs the change won and lost
    (ties count for neither side)."""
    parent, change = ([pair[side]["metrics"][name] for pair in pairs] for side in (0, 1))
    sign = 1 if direction == "lower" else -1
    # the amount by which the change is better in each pair, positive when it is
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    return {
        "parent": parent,
        "change": change,
        "quartiles": [quartiles(parent), quartiles(change)],
        "won": sum(g > 0 for g in gains),
        "lost": sum(g < 0 for g in gains),
    }


def layer_medians(pairs: list[tuple[dict, dict]]) -> dict[str, tuple[float, float]]:
    """The parent's and the change's median of every per-layer metric that
    every run of ``pairs`` holds, in the benchmark's order."""
    runs = [res.get("layers", {}) for pair in pairs for res in pair]
    names = [name for name in per_layer() if runs and all(name in layers for layers in runs)]
    return {name: tuple(statistics.median(pair[side]["layers"][name] for pair in pairs) for side in (0, 1)) for name in names}


def wall_times(pairs: list[tuple[dict, dict]]) -> dict | None:
    """The parent's and the change's median ``pass_wall_s`` over ``pairs``,
    and the pairs whose wall-time winner is not their ``pass_s`` winner (a
    tie is a third outcome); None unless every run holds its wall time."""
    if not pairs or any(res.get("wall") is None for pair in pairs for res in pair):
        return None

    def winner(parent: float, change: float) -> int:  # 1 when the change is lower, -1 when the parent is, 0 on a tie
        return (parent > change) - (parent < change)

    inverted = sum(winner(p["wall"], c["wall"]) != winner(p["metrics"]["pass_s"], c["metrics"]["pass_s"]) for p, c in pairs)
    parent, change = (statistics.median(pair[side]["wall"] for pair in pairs) for side in (0, 1))
    return {"parent": parent, "change": change, "inverted": inverted}


def regression(parent: list[float], change: list[float], direction: str, bound: float) -> str:
    """The no-regression verdict of the change on one metric (see the
    module docstring): "not worse", "unresolved" or "worse"."""
    sign = 1 if direction == "lower" else -1
    (p1, median, p3), (_, change_median, _) = quartiles(parent), quartiles(change)
    allowed = bound * abs(median)
    # sign * x is smaller where x is better
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "not worse"
    if p3 - p1 > allowed:
        return "unresolved"
    return "not worse" if sign * (change_median - median) <= allowed else "worse"


def summary(pairs: list[tuple[dict, dict]], better: dict[str, str], metric: str) -> tuple[list[str], bool]:
    """The report lines of ``pairs`` of (parent, change) results, and
    whether the change's gain on ``metric`` may be claimed."""
    out, stats = [], {name: compare(pairs, name, direction) for name, direction in better.items()}
    for name, direction in better.items():
        for label, (q1, median, q3) in zip(("parent", "change"), stats[name]["quartiles"]):
            out.append(f"{name} ({direction} is better) {label}: median {median:.4f} [{q1:.4f}, {q3:.4f}]")
    for name, (parent, change) in layer_medians(pairs).items():
        out.append(f"{name} (per layer): parent median {parent:.4f}, change median {change:.4f}")
    wall = wall_times(pairs)
    if wall is not None:
        out.append(f"pass_wall_s (wall time): parent median {wall['parent']:.4f}, change median {wall['change']:.4f}")
        out.append(f"pass_wall_s: the wall-time winner differs from the pass_s winner in {wall['inverted']} of {len(pairs)} pairs")
    sign = 1 if better[metric] == "lower" else -1
    won, lost = stats[metric]["won"], stats[metric]["lost"]
    (p1, parent_median, p3), (_, change_median, _) = stats[metric]["quartiles"]
    gap, spread = sign * (parent_median - change_median), p3 - p1
    failed = failed_runs(pairs)
    holds = 10 * won >= 9 * len(pairs) and gap > spread and not failed
    out.append(f"{metric}: the change won {won} and lost {lost} of {len(pairs)} pairs")
    out.append(f"{metric}: median gain {gap:.4f} against a parent interquartile range of {spread:.4f}")
    out.append(f"runs with a failed operation: {failed}")
    out.append(f"gain on {metric} may be claimed: {'yes' if holds else 'no'}")
    return out, holds


def failed_runs(pairs: list[tuple[dict, dict]]) -> int:
    """The runs that were not correct or failed an operation."""
    return sum(1 for pair in pairs for res in pair if not res["correct"] or res["failed"])


def describe(checkout: Path) -> str | None:
    """``git describe --always --dirty`` in ``checkout``, or None outside a repository."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def entry(pairs, better, limits, metric: str, holds: bool, commits: dict, workload: str, seeds: list[int], seconds: int) -> dict:
    """The record of one run of this script."""
    metrics = {}
    for name, direction in better.items():
        stats = compare(pairs, name, direction)
        metrics[name] = {
            "better": direction,
            "bound": limits[name],
            **{side: dict(zip(("q1", "median", "q3"), q)) for side, q in zip(("parent", "change"), stats["quartiles"])},
            "won": stats["won"],
            "lost": stats["lost"],
            "verdict": regression(stats["parent"], stats["change"], direction, limits[name]),
        }
    return {
        "workload": workload,
        "commits": commits,
        "seeds": seeds,
        "seconds": seconds,
        "pairs": len(pairs),
        "failed_runs": failed_runs(pairs),
        "metrics": metrics,
        "per_layer": {name: {"parent": parent, "change": change} for name, (parent, change) in layer_medians(pairs).items()},
        "wall": wall_times(pairs),
        "gain": {"metric": metric, "claimed": holds},
    }


def record(path: Path, item: dict):
    """Append ``item`` to the JSON list in ``path``, made if missing."""
    items = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(items + [item], indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="the checkout measured as the baseline")
    parser.add_argument("--change", type=Path, required=True, help="the checkout whose gain is judged")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair; pair i uses seed + i")
    parser.add_argument("--metric", default="pass_s")
    parser.add_argument("--record", type=Path, help="a JSON list to append this run's entry to")
    args = parser.parse_args(argv)
    better, limits = end_to_end(), bounds()
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
    commits = {side: describe(getattr(args, side)) for side in ("parent", "change")}
    seeds = [args.seed + i for i in range(args.pairs)]
    item = entry(pairs, better, limits, args.metric, holds, commits, args.workload, seeds, args.seconds)
    for name, stats in item["metrics"].items():
        print(f"{name}: {stats['verdict']} (bound {stats['bound']:.0%} of the parent median)")
    if args.record:
        record(args.record, item)
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
