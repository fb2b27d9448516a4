"""Collect a result set: run.py over several seeds and workloads.

    python3 perfbench/collect.py --out FILE [--seeds 1-10]

Run from the root of a source checkout.  Seeds are the outer loop, so a
slow spell of the machine is shared among the workloads instead of landing
on one.  FILE holds every run's result, environment line and whether its
bytes were held to the recorded digests; the summary printed at the end
gives, per workload and end-to-end metric, the median, the quartiles and
their distance as a share of the median, next to a third of the metric's
bound, and flags runs whose bytes were not held to the recorded digests.
Compare two sets with perfbench/compare.py; traced reports come from
`run.py --trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import load_benchmark, spread

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")),
               None)
    applied = next((json.loads(line.split()[1]) for line in lines
                    if line.startswith("digests_applied ")), False)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "returncode": proc.returncode,
            "env": env, "digests_applied": applied, "result": result,
            "stderr": proc.stderr[-2000:]}


def values(runs, workload, metric) -> list:
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["result"]]


def unchecked(result_set) -> list:
    """Runs whose bytes were not held to the recorded digests."""
    return [r for r in result_set["runs"] if not r["digests_applied"]]


def summarize(result_set, bench) -> list:
    lines = []
    runs = result_set["runs"]
    for workload in result_set["workloads"]:
        for metric in bench["end_to_end"]:
            vals = values(runs, workload, metric["name"])
            if len(vals) < 2:
                continue
            med, q1, q3, share = spread(vals)
            limit = metric["bound"] / 3
            flag = "ok" if share <= limit else "WIDE"
            lines.append(f"{workload:15s} {metric['name']:12s} median {med:.6g} "
                         f"quartiles {q1:.6g} .. {q3:.6g} spread {share:.4f} "
                         f"(bound/3 {limit:.4f}) {flag}")
    for r in unchecked(result_set):
        lines.append(f"UNCHECKED: {r['workload']} seed {r['seed']}: bytes held "
                     "to the run's first iteration, not to the recorded digests")
    bad = [r for r in runs if not (r["result"] and r["result"]["correct"])]
    for r in bad:
        lines.append(f"NOT CORRECT: {r['workload']} seed {r['seed']} "
                     f"exit {r['returncode']}: {r['stderr'][-300:]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)

    bench = load_benchmark(os.getcwd())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    result_set = {"workloads": workloads, "seconds": seconds, "runs": []}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            run = run_once(workload, seed, seconds)
            result_set["runs"].append(run)
            ok = run["result"] and run["result"]["correct"]
            print(f"{workload} seed {seed}: "
                  + (json.dumps(run["result"]["metrics"]) if run["result"]
                     else f"exit {run['returncode']}")
                  + ("" if ok else " NOT CORRECT"), flush=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(result_set, fh, indent=1)
    print("\n".join(summarize(result_set, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
