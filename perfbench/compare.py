"""Compare two result sets written by perfbench/collect.py.

    python3 perfbench/compare.py BASE.json CHANGE.json

Run from the root of a source checkout (bounds come from its
BENCHMARK.json).  For each workload and end-to-end metric it prints both
medians, both quartiles, the pairs the change wins (runs are paired by
seed; ties count for neither side) and a verdict:

  within bound  the change's median is no worse than the base's by more
                than the metric's bound
  worse         it is worse by more than the bound
  unresolved    the base's own quartile spread is wider than the bound,
                and not every change run beats every base run

Result sets from different environments, and runs whose bytes were not
held to the recorded digests, are flagged before the table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from collect import unchecked, values
from environment import differences
from run import load_benchmark, spread


def verdict(base, change, metric) -> str:
    """One of within bound / worse / unresolved, as described above."""
    lower = metric["better"] == "lower"
    med_b, _, _, share_b = spread(base)
    med_c = statistics.median(change)
    if med_b == 0:
        worse_by = 0.0 if med_c == med_b else float("inf")
    else:
        worse_by = (med_c - med_b) / med_b * (1 if lower else -1)
    every_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if share_b > metric["bound"] and not every_better:
        return "unresolved"
    return "worse" if worse_by > metric["bound"] else "within bound"


def wins(base_runs, change_runs, workload, metric) -> tuple:
    """(pairs the change wins, pairs compared), pairing runs by seed."""
    def by_seed(runs):
        return {r["seed"]: r["result"]["metrics"][metric["name"]]["value"]
                for r in runs if r["workload"] == workload and r["result"]}
    base, change = by_seed(base_runs), by_seed(change_runs)
    seeds = sorted(set(base) & set(change))
    lower = metric["better"] == "lower"
    won = sum(1 for s in seeds
              if (change[s] < base[s] if lower else change[s] > base[s]))
    return won, len(seeds)


def environment_of(result_set) -> dict:
    return next((r["env"] for r in result_set["runs"] if r["env"]), {})


def compare(base_set, change_set, bench) -> list:
    lines = []
    diffs = differences(environment_of(base_set), environment_of(change_set))
    if diffs:
        lines.append("WARNING: the result sets come from different environments: "
                     + "; ".join(diffs))
    for name, result_set in (("base", base_set), ("change", change_set)):
        runs = unchecked(result_set)
        if runs:
            lines.append(f"WARNING: {len(runs)} of the {name}'s runs were not "
                         "held to the recorded digests")
    lines.append(f"{'workload':15s} {'metric':12s} {'base median [q1, q3]':>34s} "
                 f"{'change median [q1, q3]':>34s} {'wins':>7s}  verdict")
    for workload in base_set["workloads"]:
        if workload not in change_set["workloads"]:
            lines.append(f"{workload:15s} missing from the change's result set")
            continue
        for metric in bench["end_to_end"]:
            base = values(base_set["runs"], workload, metric["name"])
            change = values(change_set["runs"], workload, metric["name"])
            if len(base) < 2 or len(change) < 2:
                lines.append(f"{workload:15s} {metric['name']:12s} too few runs")
                continue
            mb, b1, b3, _ = spread(base)
            mc, c1, c3, _ = spread(change)
            won, pairs = wins(base_set["runs"], change_set["runs"], workload, metric)
            lines.append(
                f"{workload:15s} {metric['name']:12s} "
                f"{f'{mb:.6g} [{b1:.6g}, {b3:.6g}]':>34s} "
                f"{f'{mc:.6g} [{c1:.6g}, {c3:.6g}]':>34s} "
                f"{f'{won}/{pairs}':>7s}  {verdict(base, change, metric)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    sets = []
    for path in (args.base, args.change):
        with open(path, encoding="utf-8") as fh:
            sets.append(json.load(fh))
    print("\n".join(compare(*sets, load_benchmark(os.getcwd()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
