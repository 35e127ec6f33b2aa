#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --head DIR --workload W --pairs N --seed S

Pair i runs ``python3 bench/run.py --workload W --seed S+i --seconds T
--trace 0`` once in each checkout, the parent first on even i and the head
first on odd i, so that a drift of the host's speed falls on both sides.
T is the ``run_seconds`` of the head's ``BENCHMARK.json``, the run length
that the benchmark itself uses.
Each checkout runs its own ``bench/run.py``. The script prints every pair
and, for each end-to-end metric that the head's ``BENCHMARK.json``
declares, each side's median and quartiles, how many pairs the head won
(ties count for neither side) and whether the head shows a gain: it wins
at least 9 of every 10 pairs and its median is better than the parent's
by more than the parent's interquartile range. Beside it stands the
no-regression verdict against the metric's ``bound``, a share of the
parent's median: ``regression`` when the head's median is worse by more
than that, ``unresolved`` when the parent's interquartile range exceeds
it unless every head run beats every parent run, else ``none``.

Exit codes: 0 when every run was correct, 1 when a run failed or was not
``correct``. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], head: list[float], better: str) -> dict:
    """The comparison of one metric over pairs ``(parent[i], head[i])``.

    ``better`` is "lower" or "higher". ``gain`` holds when the head wins at
    least 9 of every 10 pairs and the gap between the medians, in the
    better direction, exceeds the parent's interquartile range.
    """
    if len(parent) != len(head) or not parent:
        raise ValueError("need one parent and one head value per pair, at least one pair")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - h) > 0 for p, h in zip(parent, head))
    p_q1, p_median, p_q3 = quartiles(parent)
    h_q1, h_median, h_q3 = quartiles(head)
    gap = sign * (p_median - h_median)
    iqr = p_q3 - p_q1
    return {
        "parent": (p_q1, p_median, p_q3),
        "head": (h_q1, h_median, h_q3),
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "parent_iqr": iqr,
        "gain": wins * 10 >= 9 * len(parent) and gap > iqr,
    }


def regression(parent: list[float], head: list[float], better: str, bound: float) -> str:
    """The no-regression verdict of one metric: "regression", "unresolved" or "none".

    ``bound`` is a share of the parent's median, as ``BENCHMARK.json``
    declares it for each end-to-end metric.
    """
    sign = 1 if better == "lower" else -1
    p_q1, p_median, p_q3 = quartiles(parent)
    if sign * (statistics.median(head) - p_median) > bound * p_median:
        return "regression"
    beats_all = all(sign * (p - h) > 0 for p in parent for h in head)
    if p_q3 - p_q1 > bound * p_median and not beats_all:
        return "unresolved"
    return "none"


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The metrics of one correct benchmark run in ``checkout``, else None."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result.get("correct"):
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        print(f"bench_pairs: run in {checkout} at seed {seed} was not correct", file=sys.stderr)
        return None
    return result["metrics"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    declared = json.loads((args.head / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    runs = {"parent": [], "head": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
        for side in order:
            metrics = run_bench(getattr(args, side), args.workload, seed,
                                declared["run_seconds"])
            if metrics is None:
                return 1
            runs[side].append(metrics)
        print(f"pair {i} seed {seed} ({order[0]} first): "
              + ", ".join(f"{name} {runs['parent'][-1][name]['value']:.6g} -> "
                          f"{runs['head'][-1][name]['value']:.6g}" for name in better),
              flush=True)

    for name, direction in better.items():
        parent = [m[name]["value"] for m in runs["parent"]]
        head = [m[name]["value"] for m in runs["head"]]
        s = summarize(parent, head, direction)
        unit = runs["parent"][0][name]["unit"]
        print(f"{args.workload} {name} ({unit}, {direction} is better): "
              "median [quartiles] parent {1:.6g} [{0:.6g}, {2:.6g}] -> ".format(*s["parent"])
              + "head {1:.6g} [{0:.6g}, {2:.6g}]; ".format(*s["head"])
              + f"head wins {s['wins']}/{s['pairs']}; gap {s['gap']:.6g} vs parent IQR "
              f"{s['parent_iqr']:.6g}; gain: {'yes' if s['gain'] else 'no'}; "
              f"regression: {regression(parent, head, direction, bound[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
