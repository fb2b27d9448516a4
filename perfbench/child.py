"""One iteration of a workload, or one set-up probe, in a fresh interpreter.

    python3 perfbench/child.py JOB.json
    python3 perfbench/child.py --setup

Run from the root of a source checkout.  The package is imported from
`src/` first thing, so the time from the parent's spawn to the end of that
import is the set-up a CLI user pays: interpreter start plus the numpy and
package imports.  With --setup the child prints that moment on
`time.monotonic` and exits.  With a job, each sweep of the job goes through
`incidencelab.cli.main` once, writing into the job's directory; the wall
time covers the first call to the last return.  With `trace` set, the layer
wrappers are installed after set-up and the spans are written to the job's
`spans` file when the sweeps are done.  The result goes to the job's
`result` file as JSON.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import incidencelab.cli  # noqa: E402

READY = time.monotonic()
if sys.argv[1:] == ["--setup"]:
    print(repr(READY))
    sys.exit(0)

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _rows(path):
    """(trial rows, trial rows with hard_ok other than 1) of an emitted CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        kind = header.index("row_kind[str]")
        ok = header.index("hard_ok[int]")
        trials = [row for row in reader if row[kind] == "trial"]
    return len(trials), sum(1 for row in trials if row[ok] != "1")


def _outcome(code, out):
    """What one sweep left behind: exit code, digests, row counts."""
    entry = {"code": code, "csv": None, "schema": None, "rows": 0,
             "failed_rows": 0}
    if code in (0, 1) and os.path.exists(out):
        entry["csv"] = _sha256(out)
        entry["schema"] = _sha256(out + ".schema.json")
        entry["rows"], entry["failed_rows"] = _rows(out)
    return entry


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install()
    outs = [os.path.join(job["dir"], f"sweep{i}.csv")
            for i in range(len(job["sweeps"]))]
    codes = []
    started = time.perf_counter()
    for sweep, out in zip(job["sweeps"], outs):
        argv = [*sweep, "--seed", str(job["seed"]), "--out", out]
        try:
            code = incidencelab.cli.main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
        except Exception:  # the sweep crashed; charge its rows and go on
            traceback.print_exc()
            code = "crash"
        codes.append(code)
    wall = time.perf_counter() - started
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sweeps": [_outcome(code, out) for code, out in zip(codes, outs)],
    }
    if tracer is not None:
        tracer.uninstall()
        record = tracer.record()
        result["counters"] = record.pop("counters")
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
