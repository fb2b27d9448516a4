"""Record the sha256 of every sweep's CSV and schema into digests.json.

    python3 perfbench/record_digests.py [--seeds 0-15]

Run from the root of a source checkout, on the commit whose bytes are the
reference.  One iteration per seed and workload; a seed whose run fails a
row is not recorded.  run.py holds later runs at a recorded seed to these
bytes, on the same build (the environment fields in
environment.BUILD_KEYS): float results may differ in the last bits on
another CPU or BLAS.  Re-record only when a change is meant to alter the
output bytes, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from collect import parse_seeds
from environment import BUILD_KEYS, describe
from run import DIGESTS, gate, run_iteration
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15")
    args = parser.parse_args(argv)
    root = os.getcwd()
    env = describe()
    table = {"environment": {key: env[key] for key in BUILD_KEYS}, "seeds": {}}
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        for seed in parse_seeds(args.seeds):
            entry = {}
            for workload, sweeps in WORKLOADS.items():
                it = run_iteration(root, tmp, sweeps, seed, False,
                                   f"{workload}-{seed}")
                _, failed, notes = gate([it], sweeps, None)
                if failed:
                    print(f"seed {seed} {workload} not recorded: {notes}",
                          file=sys.stderr)
                    continue
                entry[workload] = [[s["csv"], s["schema"]] for s in it["sweeps"]]
                print(f"seed {seed} {workload}: {len(sweeps)} sweeps", flush=True)
            table["seeds"][str(seed)] = entry
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
