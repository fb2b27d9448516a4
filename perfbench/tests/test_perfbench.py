"""Tests of the benchmark itself: tracing, the byte gate, failure accounting.

    python3 -m pytest perfbench/tests -q

Run from the root of a source checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import incidencelab  # noqa: E402
from incidencelab import charsums, harness, incidence, spectra  # noqa: E402
from compare import compare, verdict  # noqa: E402
from run import (gate, layer_values, load_benchmark, probe_setup,  # noqa: E402
                 recorded_digests, run_iteration)
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, expected_rows  # noqa: E402

SMALL_SWEEPS = (
    ("spectrum", "--kind", "dot", "--moduli", "5", "--trials", "2"),
    ("dot-incidence", "--moduli", "11", "--trials", "3", "--size-a", "20",
     "--size-b", "20"),
    ("lift-energy", "--moduli", "7", "--trials", "1", "--k", "2", "--size-g", "6",
     "--size-a", "4", "--size-b", "4"),
    ("zaremba", "--moduli", "101", "--trials", "1"),
)


def _iteration(tmp_path, sweeps, trace, run_id="it"):
    return run_iteration(str(ROOT), str(tmp_path), sweeps, 3, trace, run_id)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "outer", 0.0, 10.0, -1),
        (1, "inner", 1.0, 4.0, 0),
        (2, "inner", 3.0, 5.0, 0),   # overlaps its sibling: counted once
        (3, "leaf", 1.5, 2.0, 1),
    ]
    times = self_times(spans)
    assert times["outer"] == pytest.approx((10.0 - 4.0, 1))
    assert times["inner"] == pytest.approx((3.0 - 0.5 + 2.0, 2))
    assert times["leaf"] == pytest.approx((0.5, 1))


def _calls():
    a = incidencelab.point_set(11, [(1, 2), (3, 4), (5, 6)], dimension=2)
    b = incidencelab.point_set(11, [(2, 1), (4, 3), (6, 7)], dimension=2)
    inst = incidencelab.IncidenceInstance("dot", a, b, 3)
    report = incidencelab.spectrum_report(incidencelab.build_matrix("dot", 5, 1))
    family = incidencelab.matrix_family(7, incidencelab.enumerate_gl2(7)[:6])
    config = incidencelab.make_config(experiment="det-incidence", moduli=(7,),
                                      trials=2, seed=5)
    return (incidencelab.check_inequality(inst), report.spectral_values,
            incidencelab.energy_t2k(family, 2), harness.run(config).text)


def test_wrappers_return_identical_results_and_restore_originals():
    plain = _calls()
    originals = (harness.check_inequality, incidence.count_dot,
                 spectra.eig_symmetric, charsums.energy_t2k)
    tracer = Tracer("test")
    tracer.install()
    try:
        assert harness.check_inequality is not originals[0]
        assert incidence.count_dot is not originals[1]
        traced = _calls()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (harness.check_inequality, incidence.count_dot,
            spectra.eig_symmetric, charsums.energy_t2k) == originals
    names = {span[1] for span in tracer.spans}
    assert {"incidence.count_dot", "incidence.IncidenceInstance",
            "spectra.eig_symmetric", "charsums.energy_t2k",
            "harness.run", "incidence.count_det"} <= names


def test_traced_bytes_equal_untraced_bytes(tmp_path):
    plain = _iteration(tmp_path, SMALL_SWEEPS, False, "plain")
    traced = _iteration(tmp_path, SMALL_SWEEPS, True, "traced")
    assert not plain["crashed"] and not traced["crashed"]
    assert ([(s["csv"], s["schema"]) for s in plain["sweeps"]]
            == [(s["csv"], s["schema"]) for s in traced["sweeps"]])
    attempted, failed, notes = gate([plain, traced], SMALL_SWEEPS, None)
    assert (attempted, failed, notes) == (2 * 7, 0, [])
    assert traced["counters"]["harness.rows"] == 7
    assert traced["self_times"]["cli.main"][1] == len(SMALL_SWEEPS)


def test_over_cap_sweep_counts_all_its_rows_as_failed(tmp_path):
    sweeps = (
        ("kloosterman", "--moduli", "11", "--trials", "2"),
        ("lift-energy", "--moduli", "11", "--trials", "1", "--k", "3",
         "--size-g", "40", "--size-a", "8", "--size-b", "8"),
        ("hyperbola", "--moduli", "13", "--trials", "3", "--size-a", "4",
         "--size-b", "4", "--size-x", "4", "--size-y", "4"),
    )
    it = _iteration(tmp_path, sweeps, False)
    assert [s["code"] for s in it["sweeps"]] == [0, 2, 0]
    attempted, failed, notes = gate([it], sweeps, None)
    assert (attempted, failed) == (6, 1)
    assert len(notes) == 1 and "exit 2" in notes[0]


def test_changed_bytes_fail_every_row_of_the_sweep():
    sweep = ("kloosterman", "--moduli", "11,13", "--trials", "2")

    def fake(csv):
        return {"crashed": False, "sweeps": [
            {"code": 0, "csv": csv, "schema": "s", "rows": 4, "failed_rows": 0}]}

    assert gate([fake("a"), fake("a")], (sweep,), None)[:2] == (8, 0)
    assert gate([fake("a"), fake("b")], (sweep,), None)[:2] == (8, 4)
    assert gate([fake("a"), fake("a")], (sweep,), [("b", "s")])[:2] == (8, 8)


def test_recorded_digests_apply_only_on_their_build():
    with open(BENCH / "digests.json", encoding="utf-8") as fh:
        env = dict(json.load(fh)["environment"])
    digests = recorded_digests("counting", 1, env)
    assert len(digests) == len(WORKLOADS["counting"])
    assert recorded_digests("counting", 10 ** 9, env) is None
    env["cpu_model"] = "another CPU"
    assert recorded_digests("counting", 1, env) is None


@pytest.mark.parametrize("workload, share", [("spectrum-dot", 0.5),
                                             ("spectrum-mixed", 0.0)])
def test_repeat_share_of_the_spectrum_workloads(tmp_path, workload, share):
    it = _iteration(tmp_path, WORKLOADS[workload], True)
    assert not it["crashed"]
    assert layer_values(["spectra.repeat_share"], it, 0.0) == {
        "spectra.repeat_share": share}


def test_setup_probe_times_the_package_import():
    seconds = probe_setup(str(ROOT))
    assert seconds is not None and 0 < seconds < 60


def test_compare_flags_runs_not_held_to_the_recorded_digests():
    def result_set(applied):
        runs = [{"workload": "counting", "seed": seed, "env": {},
                 "digests_applied": applied,
                 "result": {"metrics": {"wall_s": {"value": 1.0 + seed / 100}}}}
                for seed in (1, 2, 3)]
        return {"workloads": ["counting"], "runs": runs}

    bench = dict(load_benchmark(str(ROOT)))
    bench["end_to_end"] = [m for m in bench["end_to_end"] if m["name"] == "wall_s"]
    checked = compare(result_set(True), result_set(True), bench)
    assert not any("recorded digests" in line for line in checked)
    flagged = compare(result_set(True), result_set(False), bench)
    assert "WARNING: 3 of the change's runs were not held to the recorded digests" in flagged


def test_every_workload_states_its_row_count():
    for sweeps in WORKLOADS.values():
        assert all(expected_rows(sweep) >= 1 for sweep in sweeps)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counting", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    metric = {"better": "lower", "bound": 0.1}
    base = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert verdict(base, [10.5, 10.6, 10.4, 10.5, 10.5], metric) == "within bound"
    assert verdict(base, [12.0, 12.1, 11.9, 12.0, 12.2], metric) == "worse"
    noisy = [8.0, 12.0, 10.0, 7.0, 13.0]
    assert verdict(noisy, [12.0, 12.5, 11.5, 12.0, 12.2], metric) == "unresolved"
    assert verdict(noisy, [6.0, 6.5, 5.5, 6.0, 6.2], metric) == "within bound"
    higher = {"better": "higher", "bound": 0.01}
    assert verdict([1.0] * 4, [1.0] * 4, higher) == "within bound"
    assert verdict([1.0] * 4, [0.9] * 4, higher) == "worse"
