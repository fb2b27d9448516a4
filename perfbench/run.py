"""Benchmark of the incidencelab command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`, never from an installed copy.  One iteration is one fresh process
(perfbench/child.py) that runs every sweep of the workload through
`incidencelab.cli.main`.  Before each iteration a set-up probe (the same
child with --setup) is spawned that only imports the package and exits.
Iterations repeat until about S seconds are spent (at least three); the
probes are topped up to at least fifteen.  Each end-to-end metric is a
median:

  wall_s       seconds from the first cli.main call to the last return,
               over iterations
  setup_s      seconds from spawning a probe to the end of its
               `import incidencelab.cli`, over probes
  peak_rss_mb  peak resident set of the process (ru_maxrss, in MiB), over
               iterations
  ok_share     share of attempted trial rows that did not fail

A row fails when its hard_ok is not 1, when its sweep exits with a code
other than 0 or 1 (for instance 2 on a TooLargeError), or when its sweep's
CSV or schema bytes differ from the reference: the digests recorded in
perfbench/digests.json for this seed and build, otherwise the run's first
iteration.  Which of the two applied is printed as `digests_applied
true|false`.  failed_share = 1 - ok_share is printed on its own line; the
bounded metric is ok_share because a bound taken as a share of the median
needs a metric that is never 0.

With --trace 1 the iterations alternate untraced and traced (at least two
of each), and no set-up probe is spawned.  The traced ones wrap each
layer's public functions (perfbench/spans.py) and give the per-layer
metrics, each the median over traced iterations; trace.overhead_share is
the traced median wall time over the untraced one, minus 1.  Traced bytes go through the same gate.
What each per-layer metric should move:

  spectra.*            wall_s on spectrum-dot and spectrum-mixed, about 0
                       elsewhere; repeat_share is 0.5 on spectrum-dot and 0
                       on spectrum-mixed, so a memoisation gain shows only
                       on the first
  charsums.*           wall_s on charsums
  incidence.*          wall_s on counting; count_det also peak_rss_mb there
  zaremba.*            wall_s on counting
  setops, harness, cli per-row overhead: wall_s on counting and charsums
  modring, hit ratios  wall_s on charsums and counting, and setup_s if a
                       table moves to import time

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the environment
and the metrics with their spread.  The exit code is 2 when the checkout
has no source tree or the arguments are wrong, and 0 whenever a result is
printed.  Everything is written under a temporary directory in the
checkout, removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from environment import describe, differences
from spans import self_times
from workloads import WORKLOADS, expected_rows

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
MIN_ITERATIONS = 3
MIN_SETUP_PROBES = 15
MIN_TRACED_ITERATIONS = 4   # two untraced and two traced
RUN_LIMIT_S = 170           # a run must end within 180 s


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def recorded_digests(workload: str, seed: int, env: dict):
    """[(csv, schema) per sweep] recorded for this seed on this build, or None."""
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    if differences(table["environment"], env):
        return None
    entry = table["seeds"].get(str(seed), {}).get(workload)
    return None if entry is None else [tuple(pair) for pair in entry]


def run_iteration(root, tmp, sweeps, seed, trace, run_id,
                  timeout=RUN_LIMIT_S) -> dict:
    """Spawn one child process over the sweeps and return what it measured.

    A child still running after `timeout` seconds is killed, and the
    iteration counts as crashed."""
    job_dir = os.path.join(tmp, run_id)
    os.mkdir(job_dir)
    job = {"sweeps": [list(s) for s in sweeps], "seed": seed, "trace": trace,
           "dir": job_dir, "run_id": run_id,
           "result": os.path.join(job_dir, "result.json"),
           "spans": os.path.join(job_dir, "spans.json")}
    job_path = os.path.join(job_dir, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, job_path],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=timeout)
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode, stderr = "timeout", exc.stderr or b""
    if returncode != 0 or not os.path.exists(job["result"]):
        return {"trace": trace, "crashed": True,
                "error": f"child exit {returncode}: "
                         + stderr.decode(errors="replace")[-2000:]}
    with open(job["result"], encoding="utf-8") as fh:
        out = json.load(fh)
    out["trace"] = trace
    out["crashed"] = False
    if trace:
        with open(job["spans"], encoding="utf-8") as fh:
            record = json.load(fh)
        out["self_times"] = self_times(record["spans"])
        out["traced"] = record["traced"]
    shutil.rmtree(job_dir)
    return out


def probe_setup(root, timeout=RUN_LIMIT_S):
    """Seconds from spawning a child that only imports the package to the
    end of that import, or None when the child fails."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, "--setup"], cwd=root,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    return float(proc.stdout) - spawned


def gate(iterations, sweeps, recorded) -> tuple:
    """(attempted rows, failed rows, notes) over all iterations.

    Each sweep's bytes are held to the recorded digests when there are
    some, else to the first iteration that wrote the sweep.
    """
    attempted = failed = 0
    notes = []
    for j, sweep in enumerate(sweeps):
        expected = expected_rows(sweep)
        reference = recorded[j] if recorded else None
        for i, it in enumerate(iterations):
            attempted += expected
            if it["crashed"]:
                failed += expected
                continue
            outcome = it["sweeps"][j]
            digests = (outcome["csv"], outcome["schema"])
            label = f"iteration {i} sweep {' '.join(sweep)}"
            if outcome["code"] not in (0, 1):
                failed += expected
                notes.append(f"{label}: exit {outcome['code']}")
                continue
            if reference is None:
                reference = digests
            if digests != reference:
                failed += expected
                notes.append(f"{label}: output bytes differ from the reference")
                continue
            bad = outcome["failed_rows"] + max(0, expected - outcome["rows"])
            if bad:
                notes.append(f"{label}: {bad} failed rows")
            failed += bad
    for i, it in enumerate(iterations):
        if it["crashed"]:
            notes.append(f"iteration {i} crashed: {it['error']}")
    return attempted, failed, notes


def layer_values(names, it, overhead) -> dict:
    """Per-layer metrics of one traced iteration, by BENCHMARK.json name."""
    times, counters, traced = it["self_times"], it["counters"], it["traced"]

    def span(fn):
        if fn not in traced:
            raise KeyError(f"{fn} is not a traced function")
        return times.get(fn, (0.0, 0))

    out = {}
    for name in names:
        if name == "trace.overhead_share":
            value = overhead
        elif name == "spectra.repeat_share":
            calls = span("spectra.spectrum_report")[1]
            value = counters["spectra.spectrum_report.repeats"] / calls if calls else 0.0
        elif name == "zaremba.zaremba_set.distinct_share":
            calls = span("zaremba.zaremba_set")[1]
            value = counters["zaremba.zaremba_set.distinct"] / calls if calls else 0.0
        elif name.endswith(".self_s"):
            value = span(name[:-len(".self_s")])[0]
        elif name.endswith(".calls"):
            value = span(name[:-len(".calls")])[1]
        else:
            value = counters[name]
        out[name] = value
    return out


def measure(root, tmp, workload, seed, seconds, trace) -> tuple:
    """(iterations, set-up samples) of one run; see the module docstring."""
    sweeps = WORKLOADS[workload]
    minimum = MIN_TRACED_ITERATIONS if trace else MIN_ITERATIONS
    probes = 0 if trace else MIN_SETUP_PROBES
    started = time.monotonic()
    iterations, durations, setups, probe_s = [], [], [], []

    def left():
        return RUN_LIMIT_S - (time.monotonic() - started)

    def probe():
        t0 = time.monotonic()
        setups.append(probe_setup(root, timeout=left()))
        probe_s.append(time.monotonic() - t0)

    while True:
        t0 = time.monotonic()
        if probes:
            probe()
        traced = bool(trace) and len(iterations) % 2 == 1
        iterations.append(run_iteration(root, tmp, sweeps, seed, traced,
                                        f"{workload}-{seed}-{len(iterations)}",
                                        timeout=left()))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - started
        ahead = statistics.median(durations) + max(
            0, probes - len(setups) - 1) * statistics.median(probe_s or [0])
        if elapsed + ahead > RUN_LIMIT_S:
            break
        if len(iterations) >= minimum and elapsed + ahead > seconds:
            break
    while len(setups) < probes and left() > 2 * max(probe_s):
        probe()
    return iterations, [s for s in setups if s is not None]


def spread(values) -> tuple:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "incidencelab", "cli.py")):
        print(f"error: no incidencelab source tree under {root}/src; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    bench = load_benchmark(root)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    env = describe()
    env["loadavg_start"] = env.pop("loadavg")
    sweeps = WORKLOADS[args.workload]
    recorded = recorded_digests(args.workload, args.seed, env)

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        iterations, setups = measure(root, tmp, args.workload, args.seed,
                                     seconds, args.trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    attempted, failed, notes = gate(iterations, sweeps, recorded)
    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)
    done = [it for it in iterations if not it["crashed"]]
    plain = [it for it in done if not it["trace"]]
    traced = [it for it in done if it["trace"]]

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced iterations, {len(setups)} set-up probes")
    print(f"digests_applied {json.dumps(recorded is not None)}")
    samples = {
        "wall_s": [it["wall_s"] for it in plain],
        "setup_s": setups,
        "peak_rss_mb": [it["peak_rss_mb"] for it in plain],
    }
    values = {}
    for name, v in samples.items():
        if v:
            values[name], q1, q3, _ = spread(v)
            print(f"{name} {values[name]:.6g} (median of {len(v)}, "
                  f"quartiles {q1:.6g} .. {q3:.6g})")
    values["ok_share"] = 1.0 - failed / attempted
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} rows)")

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        overhead = (statistics.median(it["wall_s"] for it in traced)
                    / values["wall_s"] - 1.0) if traced and plain else 0.0
        per_it = [layer_values(names, it, overhead) for it in traced]
        metrics = {m["name"]: {"value": statistics.median(v[m["name"]] for v in per_it)
                               if per_it else 0.0, "unit": m["unit"]}
                   for m in bench["per_layer"]}
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    correct = (failed == 0 and len(done) == len(iterations) and bool(plain)
               and (bool(setups) or bool(args.trace)))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
