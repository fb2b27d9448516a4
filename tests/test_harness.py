"""Config parsing, seeded sampling, sweep execution, emission, and the CLI."""

import argparse
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import os
import pkgutil
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import incidencelab
from incidencelab import (
    EXPERIMENTS,
    InvalidParamsError,
    enumerate_gl2,
    make_config,
    random_instance,
    run,
    zaremba_set,
)
from incidencelab.cli import _build_parser
from incidencelab.cli import main as cli_main
from incidencelab.harness import (
    _format_cell,
    _target,
    disk_weight,
    disk_weights,
    emit_csv,
    emit_json,
    parse_config_text,
    schema_text,
    trial_rng,
)
from incidencelab.modring import TABLES_KEPT, coprime_tuples

# ---------------------------------------------------------------------------
# config


def test_parse_config_text():
    text = """
    # sweep settings
    experiment = kloosterman
    moduli = 7, 11   # two primes
    trials = 3
    verbose = true
    ratio = 1.5
    label = alpha
    """
    got = parse_config_text(text)
    assert got == {"experiment": "kloosterman", "moduli": "7, 11", "trials": "3",
                   "verbose": "true", "ratio": "1.5", "label": "alpha"}
    with pytest.raises(InvalidParamsError):
        parse_config_text("not a config line")


def test_make_config_defaults():
    cfg = make_config(experiment="kloosterman")
    assert cfg.moduli == (7,)
    assert cfg.trials == 5
    assert cfg.seed == 0
    assert cfg.fmt == "csv"
    assert cfg.out is None


def test_make_config_single_modulus_becomes_tuple():
    cfg = make_config(experiment="dot-incidence", moduli=9)
    assert cfg.moduli == (9,)


def test_make_config_string_values_coerce():
    cfg = make_config(experiment="dot-incidence", moduli="5,7", trials="2",
                      size_a="3")
    assert cfg.moduli == (5, 7)
    assert cfg.trials == 2
    assert cfg.params["size_a"] == 3


def test_make_config_rejects_unknown_keys():
    with pytest.raises(InvalidParamsError):
        make_config(experiment="dot-incidence", sizes=3)
    with pytest.raises(InvalidParamsError):
        make_config(experiment="frobenius")


def test_make_config_prime_only_experiments():
    with pytest.raises(InvalidParamsError):
        make_config(experiment="kloosterman", moduli=(7, 8))
    with pytest.raises(InvalidParamsError):
        make_config(experiment="kloosterman", moduli=2)  # needs odd primes
    make_config(experiment="dot-incidence", moduli=(6, 9))  # composites fine


def test_make_config_det_needs_odd():
    with pytest.raises(InvalidParamsError):
        make_config(experiment="det-incidence", moduli=(3, 6))
    make_config(experiment="det-incidence", moduli=(3, 9))


def test_make_config_validation_errors():
    with pytest.raises(InvalidParamsError):
        make_config(experiment="kloosterman", trials=0)
    with pytest.raises(InvalidParamsError):
        make_config(experiment="kloosterman", seed=2 ** 64)
    with pytest.raises(InvalidParamsError):
        make_config(experiment="kloosterman", format="xml")
    with pytest.raises(InvalidParamsError):
        make_config(experiment="lift-energy", k=4)
    with pytest.raises(InvalidParamsError):
        make_config(experiment="intersection-charsum", variant="additive")


# Every declared parameter with a value that fits neither its type nor its
# choices: a word or a non-integer for the numbers, an unlisted word for the
# enums.
_MISTYPED = {
    "dot-incidence": {"n": "x", "lam": "abc", "size_a": "abc", "size_b": "2.5"},
    "det-incidence": {"d": "2.5", "lam": "x", "size_a": "abc", "size_b": "x"},
    "crossratio-incidence": {"lam": "2.5", "size_a": "x", "size_b": "abc"},
    "spectrum": {"kind": "norm", "n": "x", "lam": "abc", "cluster_tol": "x",
                 "matrix_cap": "x"},
    "kloosterman": {},
    "bilinear": {"size_a": "x", "size_b": "2.5", "weights": "foo"},
    "hyperbola": {"size_a": "x", "size_b": "x", "size_x": "2.5", "size_y": "x",
                  "weights": "foo"},
    "lift-energy": {"size_a": "x", "size_b": "x", "size_g": "2.5",
                    "weights": "foo", "k": "4"},
    "intersection-charsum": {"variant": "additive", "structure": "grid",
                             "size_a": "x", "n_len": "2.5", "size_lambda": "x"},
    "zaremba": {"m_bound": "2.5", "subgroup": "cosets", "c0": "x",
                "c_star": "abc", "n_value": "x"},
    "energy": {"kind": "additive", "size_z": "x", "w": "abc", "n_len": "2.5"},
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_make_config_coerces_to_declared_types(experiment, draw):
    # Each default spelled as a string comes back as the declared value,
    # with its declared type.
    defaults = make_config(experiment=experiment).params
    spelled = make_config(experiment=experiment,
                          **{k: str(v) for k, v in defaults.items()})
    assert spelled.params == defaults
    assert ([type(v) for v in spelled.params.values()]
            == [type(v) for v in defaults.values()])
    # A value outside the declared type or choices is refused up front.
    assert set(_MISTYPED[experiment]) == set(defaults)
    for key, value in _MISTYPED[experiment].items():
        with pytest.raises(InvalidParamsError):
            make_config(experiment=experiment, **{key: value})
        with pytest.raises(InvalidParamsError):
            draw(0, {"experiment": experiment, "q": 7, key: value})
    for key, value in [("trials", "abc"), ("seed", "2.5"), ("moduli", "7,x"),
                       ("matrix_cap", "x")]:
        with pytest.raises(InvalidParamsError):
            make_config(experiment=experiment, **{key: value})


def test_cli_mistyped_values_exit_two(capsys):
    for argv in (["bilinear", "--weights", "foo", "--trials", "1"],
                 ["dot-incidence", "--size-a", "abc", "--trials", "1"],
                 ["spectrum", "--n", "x", "--trials", "1"],
                 ["dot-incidence", "--n", "1", "--trials", "1"],
                 ["spectrum", "--n", "1", "--kind", "dot", "--trials", "1"],
                 ["energy", "--w", "abc", "--trials", "1"],
                 ["zaremba", "--m-bound", "2.5", "--trials", "1"],
                 ["kloosterman", "--trials", "abc"]):
        assert cli_main(argv) == 2
        assert f"({argv[1]}) must be" in capsys.readouterr().err


def test_make_config_crossratio_spectrum_lam_fallback():
    # The dot/det default target 1 is degenerate for cross-ratio matrices,
    # so the default flips to `random` unless the user pinned a value.
    cfg = make_config(experiment="spectrum", kind="crossratio", moduli=7)
    assert cfg.params["lam"] == "random"
    pinned = make_config(experiment="spectrum", kind="crossratio", moduli=7, lam=3)
    assert pinned.params["lam"] == 3
    dot = make_config(experiment="spectrum", moduli=7)
    assert dot.params["lam"] == 1
    with pytest.raises(InvalidParamsError):
        make_config(experiment="spectrum", kind="crossratio", moduli=9)
    with pytest.raises(InvalidParamsError):
        make_config(experiment="spectrum", kind="norm")


# ---------------------------------------------------------------------------
# seeded sampling


def test_trial_rng_deterministic_and_independent():
    a1 = trial_rng(1, "dot-incidence", 7, 0).random()
    a2 = trial_rng(1, "dot-incidence", 7, 0).random()
    assert a1 == a2
    others = {trial_rng(1, "dot-incidence", 7, t).random() for t in range(1, 6)}
    assert a1 not in others
    assert trial_rng(2, "dot-incidence", 7, 0).random() != a1
    assert trial_rng(1, "kloosterman", 7, 0).random() != a1


def test_disk_weight_distribution():
    rng = trial_rng(99, "weights", 0, 0)
    draws = [disk_weight(rng) for _ in range(10 ** 4)]
    assert all(abs(w) <= 1.0 + 1e-12 for w in draws)
    mean_abs = statistics.fmean(abs(w) for w in draws)
    assert abs(mean_abs - 2.0 / 3.0) < 0.02  # uniform area measure on the disk


def test_disk_weights_iteration_order_free():
    w1 = disk_weights(trial_rng(5, "x", 3, 0), [3, 1, 2])
    w2 = disk_weights(trial_rng(5, "x", 3, 0), [2, 3, 1])
    assert w1 == w2


def _same_instance(one, two):
    """Equal keys and values, label arrays compared element by element."""
    return one.keys() == two.keys() and all(
        np.array_equal(one[k], two[k]) if isinstance(one[k], np.ndarray)
        else one[k] == two[k] for k in one)


def test_random_instance_deterministic(draw):
    for experiment, q in [("dot-incidence", 7), ("det-incidence", 5),
                          ("kloosterman", 11), ("hyperbola", 7),
                          ("energy", 13)]:
        params = {"experiment": experiment, "q": q, "trial": 3}
        one = draw(42, params)
        two = draw(42, params)
        assert _same_instance(one, two)
        assert not _same_instance(draw(43, params), one)


def test_random_instance_dot_contract(draw):
    inst = draw(7, {"experiment": "dot-incidence", "q": 7, "trial": 0})
    assert math.gcd(inst["lam"], 7) == 1
    assert all(math.gcd(a, math.gcd(b, 7)) == 1 for a, b in inst["a"].tolist())
    assert inst["a"].tolist() == sorted(inst["a"].tolist())


@pytest.mark.parametrize("experiment, params, widths", [
    ("dot-incidence", {"n": 3}, (3, 3)),
    ("det-incidence", {"d": 3}, (3, 6)),
    ("crossratio-incidence", {}, (2, 2)),
])
def test_label_samplers_return_int64_arrays(experiment, params, widths, draw):
    inst = draw(5, {"experiment": experiment, "q": 7, "size_a": 9,
                    "size_b": 4, **params})
    for key, size, width in zip("ab", (9, 4), widths):
        assert inst[key].dtype == np.int64
        assert inst[key].shape == (size, width)


@pytest.mark.parametrize("n, q", [(4, 101), (3, 216)])  # 101^4, 216^3 > 10^7
def test_dot_sampler_refuses_a_label_table_past_the_cap(n, q, monkeypatch, capsys, draw):
    from incidencelab import incidence

    def never(*args):
        raise AssertionError(f"a dot label mod {q} was decoded")

    monkeypatch.setattr(incidence, "_coprime_table", never)
    monkeypatch.setattr(incidence, "decode_labels", never)
    with pytest.raises(InvalidParamsError, match=rf"n = {n} \(--n\) mod {q}"):
        draw(0, {"experiment": "dot-incidence", "q": q, "n": n})
    assert cli_main(["dot-incidence", "--n", str(n), "--moduli", str(q),
                     "--trials", "1"]) == 2
    assert "(--n)" in capsys.readouterr().err


def test_random_instance_kloosterman_cases(draw):
    kinds = set()
    for trial in range(24):
        inst = draw(1, {"experiment": "kloosterman", "q": 7,
                        "trial": trial})
        kinds.add(inst["reference_kind"])
        if inst["reference_kind"] == "gauss":
            assert inst["coef_m"] == 0 and inst["coef_n"] != 0
            assert inst["char_index"] != 0
    assert kinds == {"gauss", "weil-principal", "weil-twisted", "complete"}


def test_random_instance_validation(draw):
    with pytest.raises(InvalidParamsError):
        draw(1, {"experiment": "nope", "q": 7})
    with pytest.raises(InvalidParamsError):
        draw(1, {"experiment": "dot-incidence"})
    with pytest.raises(InvalidParamsError):
        draw(1, {"experiment": "dot-incidence", "q": 7, "extra": 1})
    with pytest.raises(InvalidParamsError):
        draw(1, {"experiment": "dot-incidence", "q": 5, "size_a": 10 ** 6})


# Primes (where the draw skips the table of units) and composites (where it
# reads it): the target and the generator's next value are those of
# rng.choice(units(q)), so every sweep keeps its bytes.
@pytest.mark.parametrize("q", (3, 7, 101, 1009, 65537, 9, 15, 12, 1001))
@pytest.mark.parametrize("kind", ("dot", "det"))
def test_random_target_is_the_units_draw(q, kind):
    from incidencelab.modring import units
    for seed in range(40):
        drawn, reference = random.Random(seed), random.Random(seed)
        assert _target(drawn, q, "random", kind) == reference.choice(units(q))
        assert drawn.random() == reference.random()
    assert _target(random.Random(0), q, 4, kind) == 4


def test_random_target_skips_the_units_table_at_prime_q(monkeypatch):
    from incidencelab import harness
    monkeypatch.setattr(harness, "units", None)  # any call would fail
    q = 2 ** 31 - 1
    for kind, start in (("det", 1), ("crossratio", 2)):
        drawn = _target(random.Random(3), q, "random", kind)
        assert drawn == random.Random(3).randrange(start, q)


def test_random_instance_interval_union(draw):
    inst = draw(3, {"experiment": "intersection-charsum", "q": 31,
                    "trial": 0, "structure": "interval-union",
                    "n_len": 4, "size_lambda": 3})
    assert len(inst["a"]) == 12  # disjoint translates, no merging
    assert inst["n_len"] == 4
    with pytest.raises(InvalidParamsError):
        draw(3, {"experiment": "intersection-charsum", "q": 13,
                 "trial": 0, "structure": "interval-union",
                 "n_len": 5, "size_lambda": 4})



@pytest.mark.parametrize("flag, name", [("--size-lambda", "size_lambda"),
                                        ("--n-len", "n_len")])
def test_interval_union_refuses_empty_parts(flag, name, capsys, draw):
    params = {"experiment": "intersection-charsum", "q": 31, "trial": 0,
              "structure": "interval-union", name: 0}
    message = f"{name} ({flag}) must be >= 1, got 0"
    with pytest.raises(InvalidParamsError, match=re.escape(message)):
        draw(3, params)
    assert cli_main(["intersection-charsum", "--structure", "interval-union",
                     "--moduli", "7", "--trials", "1", flag, "0"]) == 2
    assert message in capsys.readouterr().err


def test_random_instance_energy_subgroup(draw):
    inst = draw(9, {"experiment": "energy", "q": 13, "trial": 1,
                    "kind": "subgroup"})
    assert inst["kind"] == "subgroup"
    assert inst["subgroup_order"] == len(inst["z"])
    assert (13 - 1) % inst["subgroup_order"] == 0


def test_energy_rows_compute_the_energy_once(monkeypatch, capsys):
    from incidencelab import harness, zaremba

    calls = []
    original = zaremba.mult_energy

    def counting(z, q):
        calls.append(q)
        return original(z, q)

    for module in (harness, zaremba):
        if hasattr(module, "mult_energy"):
            monkeypatch.setattr(module, "mult_energy", counting)
    assert cli_main(["energy", "--moduli", "1009", "--trials", "6",
                     "--size-z", "40"]) == 0
    capsys.readouterr()
    assert len(calls) == 6


# random.sample only takes len() and indexes, and product() enumerates in
# lexicographic order, so drawing label indices and reading them from the
# domain is the draw rng.sample makes from the materialised domain: the
# coprime tuples for dot (at prime q, see the test of the prime-q draw
# below), every tuple otherwise.
@pytest.mark.parametrize("experiment, q, params, widths", [
    ("dot-incidence", 6, {"n": 2}, (2, 2)), ("dot-incidence", 25, {"n": 2}, (2, 2)),
    ("dot-incidence", 9, {"n": 3}, (3, 3)), ("dot-incidence", 15, {"n": 3}, (3, 3)),
    ("det-incidence", 5, {"d": 2}, (2, 2)), ("det-incidence", 9, {"d": 2}, (2, 2)),
    ("det-incidence", 3, {"d": 3}, (3, 6)), ("det-incidence", 5, {"d": 3}, (3, 6)),
    ("crossratio-incidence", 7, {}, (2, 2)), ("crossratio-incidence", 31, {}, (2, 2)),
])
def test_random_instance_draws_as_from_the_materialised_domain(experiment, q, params,
                                                                widths, draw):
    inst = draw(3, {"experiment": experiment, "q": q, "trial": 2, **params})
    kind = experiment.split("-")[0]
    domains = [[t for t in itertools.product(range(q), repeat=w)
                if kind != "dot" or math.gcd(q, *t) == 1] for w in widths]
    rng = trial_rng(3, experiment, q, 2)
    sizes = [rng.randint(1, len(domain)) for domain in domains]
    lam = rng.randrange(2, q) if kind == "crossratio" else rng.choice(
        [x for x in range(q) if math.gcd(x, q) == 1])
    a, b = (sorted(rng.sample(domain, size)) for domain, size in zip(domains, sizes))
    assert inst["lam"] == lam
    assert inst["a"].tolist() == list(map(list, a))
    assert inst["b"].tolist() == list(map(list, b))


def test_det_sampler_needs_no_domain_table(draw):
    # 11^6 column labels: five of them are sampled without building a table
    inst = draw(0, {"experiment": "det-incidence", "q": 11, "d": 3,
                    "size_a": 5, "size_b": 5})
    assert len(inst["b"]) == 5 and all(len(b) == 6 for b in inst["b"])
    with pytest.raises(InvalidParamsError, match="outside 1..1000000"):
        draw(0, {"experiment": "det-incidence", "q": 11, "d": 3,
                 "size_b": 10 ** 6 + 1})
    with pytest.raises(InvalidParamsError, match="too large to sample"):
        draw(0, {"experiment": "det-incidence", "q": 11, "d": 5})


# A draw reads the config make_config resolved: at a q it does not list
# (q = 2 has no cross-ratio target, det counts need odd q, the character
# sums an odd prime) nothing is drawn, and a cross-ratio spectrum draws its
# `random` default target as `run` does, never the degenerate 1.
@pytest.mark.parametrize("experiment, q, params", [
    ("crossratio-incidence", 2, {}), ("det-incidence", 4, {}), ("kloosterman", 9, {}),
    ("hyperbola", 15, {}), ("spectrum", 7, {"kind": "crossratio"}),
])
def test_a_library_draw_is_the_draw_make_config_resolves(experiment, q, params):
    config = make_config(experiment=experiment, moduli=(7,), trials=4, seed=3, **params)
    if q == 7:
        lams = [random_instance(config, q, t)["lam"] for t in range(4)]
        assert lams == [row["lam"] for row in run(config).rows[:-1]]
        assert all(lam % q not in (0, 1) for lam in lams)
    else:
        with pytest.raises(InvalidParamsError):
            make_config(experiment=experiment, moduli=(q,), **params)
        with pytest.raises(InvalidParamsError, match=rf"q = {q} is not among the moduli"):
            random_instance(config, q, 0)


# ---------------------------------------------------------------------------
# sweeps


def _small_config(experiment, **kw):
    base = {"experiment": experiment, "moduli": (7,), "trials": 2, "seed": 11}
    base.update(kw)
    return make_config(base)


def test_run_every_experiment_hard_ok():
    settings = {
        "dot-incidence": {},
        "det-incidence": {"moduli": (5,)},
        "crossratio-incidence": {},
        "spectrum": {"moduli": (5,)},
        "kloosterman": {"trials": 4},
        "bilinear": {},
        "hyperbola": {},
        "lift-energy": {},
        "intersection-charsum": {},
        "zaremba": {"m_bound": 4},
        "energy": {},
    }
    for experiment in EXPERIMENTS:
        result = run(_small_config(experiment, **settings[experiment]))
        assert result.hard_ok, f"{experiment} failed its hard checks"
        assert result.failed == ()
        rows = result.rows
        assert rows[-1]["row_kind"] == "summary"
        trials = [r for r in rows if r["row_kind"] == "trial"]
        assert len(trials) == len(result.config.moduli) * result.config.trials
        keys = [(r["q"], r["trial"]) for r in trials]
        assert keys == sorted(keys)
        for name, _ in result.columns:
            assert all(name in r for r in [rows[-1]])



@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_trial_rows_carry_exactly_the_declared_columns(experiment, monkeypatch):
    # emit_csv and emit_json read cells with row.get, so a runner that
    # misspelt or left out a column would silently write an empty cell:
    # run reads every declared column from the runner's values instead
    config = make_config({"experiment": experiment, "moduli": "7", "trials": "1"})
    result = run(config)
    declared = [name for name, _ in EXPERIMENTS[experiment].columns
                if name not in ("slack_min", "slack_median")]
    trials = [row for row in result.rows if row["row_kind"] == "trial"]
    assert trials
    for row in trials:
        assert list(row) == declared

    from incidencelab import harness

    spec = harness.EXPERIMENTS[experiment]
    dropped = declared[-2]  # the last value column, before hard_ok

    def lacking(config, q, inst):
        values, checks = spec.runner(config, q, inst)
        return {k: v for k, v in values.items() if k != dropped}, checks

    monkeypatch.setitem(harness.EXPERIMENTS, experiment,
                        dataclasses.replace(spec, runner=lacking))
    with pytest.raises(KeyError, match=dropped):
        run(config)


def test_run_deterministic_across_reruns():
    for experiment, extra in [("dot-incidence", {"moduli": (5, 7), "trials": 3}),
                              ("hyperbola", {"moduli": (7, 11), "trials": 3}),
                              ("energy", {"moduli": (11,), "trials": 4})]:
        base = run(_small_config(experiment, **extra))
        again = run(_small_config(experiment, **extra))
        assert base.text == again.text


def test_run_empty_moduli_emits_header_only():
    result = run(make_config(experiment="kloosterman", moduli=()))
    lines = result.text.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("experiment[str],q[int],trial[int]")
    assert result.hard_ok


def test_csv_slack_self_audit():
    # The emitted slack must be exactly bound_rhs / float(error): both sides
    # re-parse losslessly from the %.17g / rational cells.
    result = run(_small_config("dot-incidence", moduli=(5, 7, 11), trials=4))
    lines = result.text.splitlines()
    header = lines[0].split(",")
    cols = {name.split("[")[0]: i for i, name in enumerate(header)}
    audited = 0
    for line in lines[1:]:
        cells = line.split(",")
        if cells[cols["row_kind"]] != "trial":
            continue
        error = Fraction(cells[cols["error"]])
        bound = float(cells[cols["bound_rhs"]])
        slack = float(cells[cols["slack"]])
        expected = math.inf if error == 0 else bound / float(error)
        assert slack == expected  # bit-for-bit
        audited += 1
    assert audited == 12


def test_csv_header_and_summary_shape():
    result = run(_small_config("zaremba"))
    lines = result.text.splitlines()
    assert result.text.endswith("\n")
    assert all("[" in cell for cell in lines[0].split(","))
    summary = lines[-1].split(",")
    cols = {name.split("[")[0]: i for i, name in enumerate(lines[0].split(","))}
    assert summary[cols["row_kind"]] == "summary"
    assert summary[cols["hard_ok"]] == "1"
    assert summary[cols["q"]] == ""  # per-trial cells stay empty


def test_summary_slack_statistics():
    result = run(_small_config("dot-incidence", trials=5))
    rows = result.rows
    slacks = [r["slack"] for r in rows if r["row_kind"] == "trial"]
    assert rows[-1]["slack_min"] == min(slacks)
    assert rows[-1]["slack_median"] == statistics.median(slacks)


def test_json_emission_round_trips():
    cfg = make_config(experiment="dot-incidence", moduli=(5,), trials=2,
                      seed=3, format="json", size_a=24, size_b=24)
    result = run(cfg)
    payload = json.loads(result.text)
    assert payload["experiment"] == "dot-incidence"
    names = [c["name"] for c in payload["columns"]]
    assert names[0] == "experiment" and "slack" in names
    trial_rows = [r for r in payload["rows"] if r["row_kind"] == "trial"]
    # Full coprime families hit the main term exactly: slack is infinite,
    # which JSON cannot hold as a number.
    assert all(r["error"] == "0/1" for r in trial_rows)
    assert all(r["slack"] == "inf" for r in trial_rows)
    assert all(isinstance(r["count"], int) for r in trial_rows)


def test_format_cell():
    assert _format_cell(None, "float") == ""
    assert _format_cell(3, "int") == "3"
    assert _format_cell(Fraction(1, 3), "rational") == "1/3"
    assert _format_cell(0.1, "float") == "0.10000000000000001"
    assert float(_format_cell(math.pi, "float")) == math.pi
    assert _format_cell(math.inf, "float") == "inf"


def test_emit_csv_and_json_agree_on_columns():
    columns = (("a", "int"), ("b", "float"))
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": None}]
    csv_text = emit_csv(columns, rows)
    assert csv_text == "a[int],b[float]\n1,0.5\n2,\n"
    payload = json.loads(emit_json("demo", columns, rows))
    assert payload["rows"][1]["b"] is None


def test_run_writes_files_and_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = make_config(experiment="kloosterman", moduli=(7,), trials=2,
                      out=str(out))
    result = run(cfg)
    assert out.read_text() == result.text
    schema = json.loads((tmp_path / "sweep.csv.schema.json").read_text())
    assert schema["experiment"] == "kloosterman"
    assert schema["columns"][0] == {"name": "experiment", "type": "str"}
    assert schema["row_kinds"] == ["trial", "summary"]

    out_json = tmp_path / "sweep.json"
    run(make_config(experiment="kloosterman", moduli=(7,), trials=1,
                    out=str(out_json), format="json"))
    assert not (tmp_path / "sweep.json.schema.json").exists()


def test_zaremba_rows_match_direct_computation():
    result = run(make_config(experiment="zaremba", moduli=(13,), trials=1,
                             m_bound=3, subgroup="squares"))
    row = result.rows[0]
    bounded = zaremba_set(13, 3)
    squares = {x * x % 13 for x in range(1, 13)}
    hits = sorted(bounded & squares)
    assert row["set_size"] == len(bounded)
    assert row["subgroup_order"] == 6
    assert row["intersection_size"] == len(hits)
    assert row["witness"] == (hits[0] if hits else -1)
    assert row["elements"] == ";".join(map(str, hits))


def test_zaremba_generator_subgroup_and_bad_value():
    result = run(make_config(experiment="zaremba", moduli=(11,), trials=1,
                             subgroup=3))
    assert result.rows[0]["subgroup_order"] == 5  # 3 has order 5 mod 11
    with pytest.raises(InvalidParamsError):
        run(make_config(experiment="zaremba", moduli=(11,), trials=1,
                        subgroup="cosets"))


def test_zaremba_hard_check_reads_the_quotients_of_the_reported_set(monkeypatch):
    # A bounded-set kernel that admits 7/101 = [0; 14, 2, 3] at M = 5 while
    # keeping round trips and monotonicity intact: only the check of each
    # member's quotients against M can catch it.
    from incidencelab import zaremba

    original = zaremba._max_quotients

    def admits_seven(q):
        front, last, gcd = original(q)
        front[7 - 1] = last[7 - 1] = 1
        return front, last, gcd

    q, bound = 101, 5
    assert max(zaremba.cf_expand(7, q).quotients) > bound
    honest = len(zaremba_set(q, bound))
    monkeypatch.setattr(zaremba, "_max_quotients", admits_seven)
    zaremba._zaremba_cached.cache_clear()
    try:
        result = run(make_config(experiment="zaremba", moduli=(q,), trials=1,
                                 m_bound=bound))
    finally:
        zaremba._zaremba_cached.cache_clear()
    assert result.rows[0]["set_size"] == honest + 1
    assert result.rows[0]["hard_ok"] == 0
    assert not result.hard_ok


def test_zaremba_evaluates_two_bounded_sets_per_sweep(monkeypatch):
    from incidencelab import harness, zaremba

    calls = []
    original = zaremba.zaremba_set

    def counting(q, bound, alternate=False):
        calls.append((q, bound))
        return original(q, bound, alternate)

    monkeypatch.setattr(zaremba, "zaremba_set", counting)
    monkeypatch.setattr(harness, "zaremba_set", counting)
    for trials in (1, 3):
        zaremba._zaremba_cached.cache_clear()
        calls.clear()
        result = run(make_config(experiment="zaremba", moduli=(10007,), trials=trials))
        assert result.hard_ok
        # the searched set, shared with the round-trip check, and the
        # monotonicity check's own set; later trials reuse the first row
        assert calls == [(10007, 5), (10007, 6)]
        rows = [{k: v for k, v in row.items() if k != "trial"} for row in result.rows[:-1]]
        assert rows == rows[:1] * trials


def test_lift_energy_evaluates_the_twisted_sum_once_per_row(monkeypatch):
    from incidencelab import charsums, harness

    calls = []
    original = charsums.group_twisted_sum

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(charsums, "group_twisted_sum", counted)
    monkeypatch.setattr(harness, "group_twisted_sum", counted)
    result = run(make_config(experiment="lift-energy", moduli=(7, 11), trials=2,
                             size_g=4))
    assert result.hard_ok
    assert len(calls) == 4


def _count_spectrum_reports(monkeypatch) -> list:
    from incidencelab import harness

    calls = []
    original = harness.spectrum_report

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.lam)
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(harness, "spectrum_report", counted)
    return calls


def test_spectrum_reports_each_matrix_once_per_sweep(monkeypatch):
    calls = _count_spectrum_reports(monkeypatch)
    config = make_config(experiment="spectrum", moduli=(5, 7), trials=3)
    first = run(config)
    assert first.hard_ok
    assert len(calls) == 2
    # the memo belongs to one run call: a second sweep computes afresh
    assert run(config).text == first.text
    assert len(calls) == 4


def test_spectrum_reports_each_drawn_lam_once(monkeypatch):
    calls = _count_spectrum_reports(monkeypatch)
    # seed 2 draws lam = 6, 6, 4 at q = 7
    result = run(make_config(experiment="spectrum", kind="crossratio",
                             moduli=(7,), trials=3, seed=2))
    assert [row["lam"] for row in result.rows[:-1]] == [6, 6, 4]
    assert calls == [6, 4]


def _count_runner_calls(monkeypatch, experiment) -> list:
    from incidencelab import harness

    spec = harness.EXPERIMENTS[experiment]
    calls = []

    def counted(config, q, inst):
        calls.append(inst)
        return spec.runner(config, q, inst)

    monkeypatch.setitem(harness.EXPERIMENTS, experiment,
                        dataclasses.replace(spec, runner=counted))
    return calls


def test_run_computes_each_hashable_instance_once(monkeypatch):
    # Z_7^* has four subgroups, so six draws repeat at least two of them
    config = make_config(experiment="energy", kind="subgroup", moduli=(7,), trials=6)
    expected = run(config)
    calls = _count_runner_calls(monkeypatch, "energy")
    result = run(config)
    assert result.text == expected.text
    draws = [random_instance(config, 7, t) for t in range(6)]
    distinct = list(dict.fromkeys(tuple(inst.items()) for inst in draws))
    assert len(distinct) < 6
    assert [tuple(inst.items()) for inst in calls] == distinct


def test_run_computes_every_trial_holding_an_array(monkeypatch):
    # full unit-weight supports at q = 7 leave one draw per character, so
    # eight trials repeat one, but instances holding arrays are never compared
    calls = _count_runner_calls(monkeypatch, "bilinear")
    result = run(make_config(experiment="bilinear", moduli=(7,), trials=8,
                             size_a=7, size_b=7, weights="unit"))
    assert result.hard_ok
    assert len(calls) == 8
    assert len({inst["char_index"] for inst in calls}) < 8


# each target is refused at one listed modulus: 5 is not a unit mod 5 and
# zero mod 5 for det counts, and 8 = 1 mod 7 is degenerate for cross-ratios;
# at q = 11 it is admitted, so with 11 listed first a row could run before
@pytest.mark.parametrize("argv", [
    ["dot-incidence", "--moduli", "7,5", "--lam", "5"],
    ["crossratio-incidence", "--moduli", "7,11", "--lam", "8"],
    ["crossratio-incidence", "--moduli", "11,7", "--lam", "8"],
    ["spectrum", "--moduli", "7,5", "--lam", "5"],
    ["det-incidence", "--moduli", "7,5", "--lam", "5"],
])
def test_a_target_refused_at_any_modulus_exits_two_before_any_row(argv, monkeypatch,
                                                                   capsys):
    calls = _count_runner_calls(monkeypatch, argv[0])
    assert cli_main(argv + ["--trials", "1"]) == 2
    assert calls == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: target ")


@pytest.mark.parametrize("experiment", [
    name for name, spec in EXPERIMENTS.items()
    if any(col.startswith("size_") for col, _ in spec.columns)])
def test_size_cells_are_the_sizes_drawn(experiment):
    # every size_* parameter defaults to 0 (random), so a row that took the
    # parameter of the same name in place of the drawn set would read 0
    config = make_config(experiment=experiment, moduli=(7,), trials=3, seed=5)
    sizes = [col for col, _ in EXPERIMENTS[experiment].columns if col.startswith("size_")]
    for row in run(config).rows[:-1]:
        inst = random_instance(config, 7, row["trial"])
        assert [row[col] for col in sizes] == [len(inst[col[len("size_"):]])
                                               for col in sizes]
        assert all(row[col] >= 1 for col in sizes)


@pytest.mark.parametrize("q, n, size", [
    (5, 2, 0), (7, 3, 0), (13, 4, 0), (101, 2, 0), (3001, 2, 10)])
def test_prime_dot_draw_equals_the_draw_from_the_coprime_domain(q, n, size, draw):
    # at prime q the coprime n-tuples are the nonzero ones, in the same
    # order, so drawing an index and decoding index + 1 is the same draw
    inst = draw(3, {"experiment": "dot-incidence", "q": q, "n": n,
                    "size_a": size, "size_b": size, "trial": 2})
    domain = coprime_tuples(q, n)
    rng = trial_rng(3, "dot-incidence", q, 2)
    sa, sb = (size or rng.randint(1, len(domain)) for _ in "ab")
    lam = rng.randrange(1, q)
    a = domain[sorted(rng.sample(range(len(domain)), sa))]
    b = domain[sorted(rng.sample(range(len(domain)), sb))]
    assert inst["lam"] == lam
    assert inst["a"].tolist() == a.tolist() and inst["b"].tolist() == b.tolist()


@pytest.mark.parametrize("q", [3, 5, 11, 31])
def test_lift_energy_draw_equals_the_draw_from_gl2(q, draw):
    # unrank_gl2 reads GL_2 in the order of enumerate_gl2, and random.sample
    # picks the same indices from any population of the same length; at
    # q = 3 |GL_2| = 48 takes its pool branch, from q = 5 its set branch
    gl2 = enumerate_gl2(q)
    for seed in range(1, 21):
        inst = draw(seed, {"experiment": "lift-energy", "q": q})
        rng = trial_rng(seed, "lift-energy", q, 0)
        sg, sa, sb = rng.randint(1, min(40, len(gl2))), rng.randint(1, q), rng.randint(1, q)
        for size in (sa, sb):
            rng.sample(range(q), size)
        rng.randrange(q - 1)  # the character
        assert inst["g"] == tuple(sorted(rng.sample(gl2, sg)))


def test_cli_lift_energy_refuses_the_energy_table_before_any_sum(monkeypatch, capsys):
    from incidencelab import harness
    from incidencelab.charsums import DEFAULT_CONVOLUTION_CAP

    def never(*args):
        raise AssertionError("a sum ran before the energy table was refused")

    monkeypatch.setattr(harness, "projective_lift_check", never)
    for q in (59, 10007):
        assert cli_main(["lift-energy", "--moduli", str(q), "--trials", "1", "--seed", "1"]) == 2
        assert (f"a table of {q ** 4} codes exceeds the convolution cap "
                f"{DEFAULT_CONVOLUTION_CAP}") in capsys.readouterr().err
    # from q = 55117 random.sample cannot index GL_2: the sampler refuses
    assert cli_main(["lift-energy", "--moduli", "55117", "--trials", "1"]) == 2
    assert "more than an index draw holds" in capsys.readouterr().err


# sha256 of each schema_text and each subcommand's flags with the value a
# config takes when the flag is omitted, recorded before the experiments were
# declared in one table; --threads existed then and is gone on purpose.
_GOLDEN_SCHEMA_SHA256 = {
    "dot-incidence": "3391bfb87720b8d0c47bf4a64f87dddbc7e215c17465b88f5ceb0cb90429041c",
    "det-incidence": "ab27cb43475899100ad15d37c06ec66a46ac6ab3895bf2e0a7011b010fa69613",
    "crossratio-incidence": "ac5be070dfbd585deac5f74c7a5090e2b24d9576e373fdff47ea0e1988c1c2af",
    "spectrum": "299780af59cd25b80f3ad5bc60ded3f282423e1d362acec1d5e80e2b46d95fa9",
    "kloosterman": "03773ad4dd2d9513e60e96b4c8909ee4d4d995e5a6c5cbbfd8abc3446d05942d",
    "bilinear": "b38def9aad262fc1632a9391dee6c2785dc0ac9e4545d59af6eb4d7cb29791c0",
    "hyperbola": "dafe55a6a326800d7b6762629cfa6ad2ab20f964677c79d332035e13d06d2ae6",
    "lift-energy": "809b18916168c2343ac42253f132b0dc8c1f4f4a265143b43e756e67f94fd567",
    "intersection-charsum": "0ad40af7c6ab50fb45521e718515ddb67068aa8213c0bb875105873255efa04a",
    "zaremba": "9700df0bf6b092a90548614ff62c4db18d012b492acd01e342c009b4f3a67b7a",
    "energy": "6f567a7b4fbb20753650b28944dfc0f7a68c1a62701dd7d858209acc2f363b62",
}

_COMMON_GOLDEN = [("--format", "csv"), ("--moduli", (7,)), ("--out", None),
                  ("--seed", 0), ("--trials", 5)]

_GOLDEN_FLAGS = {
    "dot-incidence": [("--lam", "random"), ("--n", 2), ("--size-a", 0),
                      ("--size-b", 0)],
    "det-incidence": [("--d", 2), ("--lam", "random"), ("--size-a", 0),
                      ("--size-b", 0)],
    "crossratio-incidence": [("--lam", "random"), ("--size-a", 0), ("--size-b", 0)],
    "spectrum": [("--cluster-tol", 0.0), ("--kind", "dot"), ("--lam", 1),
                 ("--matrix-cap", 5000), ("--n", 2)],
    "kloosterman": [],
    "bilinear": [("--size-a", 0), ("--size-b", 0), ("--weights", "disk")],
    "hyperbola": [("--size-a", 0), ("--size-b", 0), ("--size-x", 0),
                  ("--size-y", 0), ("--weights", "disk")],
    "lift-energy": [("--k", 2), ("--size-a", 0), ("--size-b", 0), ("--size-g", 0),
                    ("--weights", "disk")],
    "intersection-charsum": [("--n-len", 5), ("--size-a", 0), ("--size-lambda", 4),
                             ("--structure", "random"),
                             ("--variant", "multiplicative")],
    "zaremba": [("--c-star", 1.0), ("--c0", 1.0), ("--m-bound", 5),
                ("--n-value", 1), ("--subgroup", "full")],
    "energy": [("--kind", "residue"), ("--n-len", 4), ("--size-z", 0),
               ("--w", 0.8)],
}


def test_schemas_and_flags_match_golden():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(EXPERIMENTS) == list(_GOLDEN_FLAGS)
    for experiment, spec in EXPERIMENTS.items():
        text = schema_text(experiment, spec.columns)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == _GOLDEN_SCHEMA_SHA256[experiment]), experiment
        cfg = make_config(experiment=experiment)
        omitted = {"moduli": cfg.moduli, "trials": cfg.trials, "seed": cfg.seed,
                   "out": cfg.out, "format": cfg.fmt, **cfg.params}
        flags = sorted((action.option_strings[0], omitted[action.dest])
                       for action in sub.choices[experiment]._actions
                       if action.dest not in ("help", "config"))
        assert flags == sorted(_COMMON_GOLDEN + _GOLDEN_FLAGS[experiment]), experiment


def test_spectrum_matrix_cap_enforced():
    from incidencelab import TooLargeError
    cfg = make_config(experiment="spectrum", moduli=(7,), trials=1,
                      matrix_cap=10)
    with pytest.raises(TooLargeError):
        run(cfg)


def test_matrix_cap_is_a_spectrum_flag_only(capsys):
    assert not hasattr(make_config(experiment="spectrum"), "matrix_cap")
    with pytest.raises(SystemExit) as exc:
        cli_main(["dot-incidence", "--matrix-cap", "10", "--trials", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --matrix-cap" in capsys.readouterr().err


# Every declared lower bound, with the message of Param.coerce; n_len and
# size_lambda are refused whatever the intersection structure.
@pytest.mark.parametrize("experiment, name, minimum, extra", [
    ("kloosterman", "trials", 1, {}),
    ("spectrum", "matrix_cap", 1, {}),
    ("spectrum", "n", 2, {}),
    ("dot-incidence", "n", 2, {}),
    ("det-incidence", "d", 2, {}),
    ("zaremba", "m_bound", 1, {}),
    ("energy", "n_len", 1, {}),
    ("intersection-charsum", "n_len", 1, {"structure": "random"}),
    ("intersection-charsum", "size_lambda", 1, {"structure": "random"}),
    ("intersection-charsum", "n_len", 1, {"structure": "interval-union"}),
    ("intersection-charsum", "size_lambda", 1, {"structure": "interval-union"}),
    ("zaremba", "n_value", 1, {}),
])
def test_declared_lower_bounds(experiment, name, minimum, extra, capsys):
    flag = "--" + name.replace("_", "-")
    message = f"{name} ({flag}) must be >= {minimum}, got {minimum - 1}"
    with pytest.raises(InvalidParamsError, match=re.escape(message)):
        make_config(experiment=experiment, **extra, **{name: minimum - 1})
    cfg = make_config(experiment=experiment, **extra, **{name: str(minimum)})
    assert {**cfg.params, "trials": cfg.trials}[name] == minimum
    argv = [experiment, "--moduli", "7", flag, str(minimum - 1)]
    for key, value in extra.items():
        argv += ["--" + key.replace("_", "-"), value]
    assert cli_main(argv) == 2
    assert message in capsys.readouterr().err


def test_det_spectrum_builds_the_matrix_of_its_n():
    # d = 3 at q = 3: 27 rows of 3-vectors against 729 pairs of them
    result = run(make_config(experiment="spectrum", kind="det", n=3,
                             moduli=(3,), trials=1))
    row = result.rows[0]
    assert (row["n"], row["dim"]) == (3, 27)
    assert result.hard_ok


def test_crossratio_spectrum_refuses_n_other_than_2(capsys):
    assert cli_main(["spectrum", "--kind", "crossratio", "--n", "3",
                     "--moduli", "7", "--trials", "1"]) == 2
    assert "n (--n) = 3" in capsys.readouterr().err
    assert make_config(experiment="spectrum", kind="crossratio", n=2).params["n"] == 2


# ---------------------------------------------------------------------------
# CLI


def test_cli_stdout_and_exit_zero(capsys):
    code = cli_main(["kloosterman", "--moduli", "7", "--trials", "2",
                     "--seed", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("experiment[str]")
    assert "elapsed" in captured.err


def test_cli_matches_library_run(capsys):
    code = cli_main(["dot-incidence", "--moduli", "5,7", "--trials", "2",
                     "--seed", "9", "--size-a", "4"])
    captured = capsys.readouterr()
    expected = run(make_config(experiment="dot-incidence", moduli=(5, 7),
                               trials=2, seed=9, size_a=4))
    assert code == 0
    assert captured.out == expected.text


def test_cli_out_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = cli_main(["energy", "--moduli", "11", "--trials", "2",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert f"wrote {out}" in captured.err
    assert out.exists() and (tmp_path / "table.csv.schema.json").exists()


def test_cli_out_path_keeps_its_comma(tmp_path, capsys):
    out = tmp_path / "a,b.csv"
    assert cli_main(["kloosterman", "--moduli", "7", "--trials", "1",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.exists() and (tmp_path / "a,b.csv.schema.json").exists()


def test_config_file_out_path_keeps_its_comma(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("moduli = 7\ntrials = 1\nout = a,b.csv\n")
    assert cli_main(["kloosterman", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a,b.csv", "a,b.csv.schema.json", "sweep.cfg"]


def test_cli_spectrum_target_checks(capsys):
    # a dot matrix needs a unit target; det's fourth-moment check holds for any
    assert cli_main(["spectrum", "--moduli", "5", "--trials", "1", "--lam", "0"]) == 2
    assert "target 0 is not a unit mod 5" in capsys.readouterr().err
    assert cli_main(["spectrum", "--kind", "det", "--moduli", "5", "--trials", "1",
                     "--lam", "0"]) == 0


@pytest.mark.parametrize("kind, q", [("dot", 10007), ("dot", 4001), ("crossratio", 4001)])
def test_cli_spectrum_refuses_an_over_cap_matrix_up_front(kind, q, capsys):
    # the family sizes, 10^8 and 1.6 * 10^7 labels, are refused from the
    # size alone; the spy in test_spectra shows no family is built first
    assert cli_main(["spectrum", "--kind", kind, "--moduli", str(q), "--trials", "1"]) == 2
    assert "exceeds cap 5000" in capsys.readouterr().err


def test_cli_random_unit_target_refuses_a_units_table_past_the_cap(capsys):
    # 1048577 = 17 * 61681, the first odd composite past TABLE_CAP: a random
    # unit target there would read a table of its units
    from incidencelab.modring import TABLE_CAP
    args = ["det-incidence", "--moduli", "1048577", "--trials", "1", "--size-a", "3",
            "--size-b", "3", "--seed", "1"]
    start = time.perf_counter()
    assert cli_main(args) == 2
    assert time.perf_counter() - start < 1.0
    assert f"units mod 1048577: 1048577 entries exceed the table cap {TABLE_CAP}" in (
        capsys.readouterr().err)
    assert cli_main(args + ["--lam", "2"]) == 0  # an explicit target needs no table
    assert cli_main(["det-incidence", "--moduli", "1048575", *args[3:]]) == 0
    capsys.readouterr()


def test_cli_kloosterman_refuses_a_modulus_above_the_table_cap(capsys):
    from incidencelab.modring import TABLE_CAP
    assert cli_main(["kloosterman", "--moduli", "1000000007", "--trials", "1"]) == 2
    assert f"exceed the table cap {TABLE_CAP}" in capsys.readouterr().err


def test_cli_bilinear_refuses_a_kloosterman_table_past_the_cap(capsys):
    # 10^10 entries: the first int64 matrix of the table alone is 74.5 GiB
    from incidencelab.modring import TABLE_CAP
    assert cli_main(["bilinear", "--moduli", "100003", "--trials", "1",
                     "--size-a", "2", "--size-b", "2"]) == 2
    assert f"exceed the table cap {TABLE_CAP}" in capsys.readouterr().err


def test_cli_hyperbola_refuses_its_encoding_family_before_either_sum(monkeypatch, capsys):
    # at seed 1, |A| |B| = 1,051,512 matrices, just past the cap
    from incidencelab import harness
    from incidencelab.modring import TABLE_CAP

    def never(*args):
        raise AssertionError("a sum ran before the family was refused")

    monkeypatch.setattr(harness, "hyperbola_sum", never)
    assert cli_main(["hyperbola", "--moduli", "2003", "--trials", "1", "--seed", "1"]) == 2
    assert f"1051512 entries exceed the table cap {TABLE_CAP}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# per-modulus table caches

# Every cache of per-modulus tables, by module.  factorize and primitive_root
# keep one small record per modulus and are the only unbounded caches.
TABLE_CACHES = {
    "modring": ("dlog_table", "_char_row", "_inverse_table", "_roots", "_char_values"),
    "charsums": ("_kloosterman_table", "enumerate_gl2"),
    "incidence": ("_crossratio_table", "_coprime_table"),
    "zaremba": ("_zaremba_cached",),
}


def test_every_lru_cache_keeps_the_tables_of_two_moduli():
    bounded = set()
    for info in pkgutil.iter_modules(incidencelab.__path__):
        module = importlib.import_module(f"incidencelab.{info.name}")
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_parameters") and fn.__module__ == module.__name__:
                unbounded = name in ("factorize", "primitive_root")
                assert fn.cache_parameters()["maxsize"] == (
                    None if unbounded else TABLES_KEPT), f"{info.name}.{name}"
                if not unbounded:
                    bounded.add((info.name, name))
    assert bounded == {(m, name) for m, names in TABLE_CACHES.items() for name in names}


def test_a_sweep_holds_the_tables_of_at_most_two_moduli(capsys):
    assert cli_main(["kloosterman", "--moduli", "5,7,11,13,17", "--trials", "1"]) == 0
    assert cli_main(["dot-incidence", "--moduli", "5,7,11,13", "--trials", "1"]) == 0
    capsys.readouterr()
    for m, names in TABLE_CACHES.items():
        for name in names:
            cache = getattr(importlib.import_module(f"incidencelab.{m}"), name)
            assert cache.cache_info().currsize <= TABLES_KEPT, f"{m}.{name}"


def test_cached_tables_are_read_only():
    from incidencelab import charsums, incidence, modring
    g = modring.primitive_root(7)
    tables = [modring.dlog_table(7), modring._char_row(7, g, 1), modring._inverse_table(7),
              modring._roots(6), modring._char_values(7, g, 1),
              charsums._kloosterman_table(7, g, 1), incidence._crossratio_table(7),
              incidence._coprime_table(6, 2)]
    assert [t.flags.writeable for t in tables] == [False] * len(tables)


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_cli_spectrum_refuses_non_finite_cluster_tol(tol, capsys):
    # a nan or infinite tolerance merges every eigenvalue into one cluster,
    # which would skip the multiplicity check; the other float settings
    # would write nan or inf report cells
    for experiment, flag in [("spectrum", "--cluster-tol"), ("zaremba", "--c0"),
                             ("zaremba", "--c-star"), ("energy", "--w")]:
        assert cli_main([experiment, "--moduli", "7", "--trials", "1",
                         flag, tol]) == 2
        assert f"({flag}) must be a finite float" in capsys.readouterr().err
    with pytest.raises(InvalidParamsError, match=r"\(--w\) must be a finite float"):
        make_config(experiment="energy", w="-" + tol)


def test_a_modulus_listed_twice_is_refused(capsys):
    # it would write two rows under the same (q, trial) key
    assert cli_main(["kloosterman", "--moduli", "7,7", "--trials", "1"]) == 2
    assert "(--moduli) lists a modulus twice" in capsys.readouterr().err
    with pytest.raises(InvalidParamsError, match=r"\(--moduli\)"):
        make_config(experiment="zaremba", moduli=(7, 11, 7))


def test_cli_invalid_input_exits_two(capsys):
    assert cli_main(["kloosterman", "--moduli", "8"]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli_main(["dot-incidence", "--config", "/no/such/file"]) == 2
    assert cli_main(["dot-incidence", "--trials", "0"]) == 2
    # a table of 59^4 energy codes exceeds the convolution cap
    assert cli_main(["lift-energy", "--moduli", "59", "--trials", "1"]) == 2
    # mod 2 every cross-ratio target is 0 or 1: refused before any row runs
    capsys.readouterr()
    for lam in ([], ["--lam", "random"]):
        argv = ["spectrum", "--kind", "crossratio", "--moduli", "2", "--trials", "1"]
        assert cli_main(argv + lam) == 2
        assert capsys.readouterr().err == (
            "error: cross-ratios need an odd prime q, got 2 (--kind crossratio)\n")
    with pytest.raises(SystemExit) as exc:  # no such flag
        cli_main(["kloosterman", "--threads", "2"])
    assert exc.value.code == 2


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_one_subparser_help_matches_the_full_parser(experiment):
    full = _subparsers(_build_parser())[experiment]
    only = _subparsers(_build_parser(experiment))
    assert list(only) == [experiment]
    assert only[experiment].format_help() == full.format_help()


def test_cli_top_level_help_lists_every_experiment(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in EXPERIMENTS)


@pytest.mark.parametrize("argv", [["no-such-experiment"], []])
def test_cli_unknown_or_missing_experiment_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if argv:
        assert "invalid choice: 'no-such-experiment'" in err
        assert all(repr(name) in err for name in EXPERIMENTS)


def test_cli_kloosterman_refuses_a_mersenne_prime_modulus_quickly(capsys):
    # 2^61 - 1 is proven prime at once, then refused by the table cap
    from incidencelab.modring import TABLE_CAP
    start = time.perf_counter()
    assert cli_main(["kloosterman", "--moduli", str(2 ** 61 - 1), "--trials", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"exceed the table cap {TABLE_CAP}" in capsys.readouterr().err


def test_sweeps_import_no_numpy_submodule_lazily():
    # np.unique without return flags imports numpy.ma on first use (numpy 2.4)
    code = ("import io, sys, contextlib\n"
            "import incidencelab.cli as cli\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for name in ('crossratio-incidence', 'det-incidence'):\n"
            "        cli.main([name, '--moduli', '31', '--trials', '1', '--size-a', '50',\n"
            "                  '--size-b', '50', '--seed', '1'])\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy')))\n")
    src = os.path.dirname(os.path.dirname(incidencelab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("moduli = 7\ntrials = 1\nseed = 4\n")
    code = cli_main(["kloosterman", "--config", str(cfg), "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 0
    expected = run(make_config(experiment="kloosterman", moduli=(7,),
                               trials=2, seed=4))
    assert captured.out == expected.text


def test_cli_hard_failure_exits_one(capsys, monkeypatch, draw):
    from incidencelab import harness

    spec = harness.EXPERIMENTS["kloosterman"]

    calls = []

    def failing(config, q, inst):
        # a check named `forced` fails on the first trial of each sweep only
        values, checks = spec.runner(config, q, inst)
        checks["forced"] = bool(calls)
        calls.append(inst)
        return values, checks

    # the two trials draw different instances, so trial 1 is not a reuse
    # of trial 0's failed result
    draws = [draw(0, {"experiment": "kloosterman", "q": 7, "trial": t})
             for t in (0, 1)]
    assert draws[0] != draws[1]
    monkeypatch.setitem(harness.EXPERIMENTS, "kloosterman",
                        dataclasses.replace(spec, runner=failing))
    code = cli_main(["kloosterman", "--moduli", "7", "--trials", "2"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err[0] == "failed: q=7 trial=0 forced"
    assert err[1].startswith("elapsed ")
    assert calls == draws
    calls.clear()
    result = run(make_config(experiment="kloosterman", moduli=(7,), trials=2))
    assert result.failed == ((7, 0, "forced"),)
    assert not result.hard_ok
    # only the failed row and the summary row carry the failure
    assert [row["hard_ok"] for row in result.rows] == [0, 1, 0]


@pytest.mark.parametrize("kind", ["dot", "det", "crossratio"])
def test_spectrum_hard_ok_includes_invariance(kind, capsys, monkeypatch):
    from incidencelab import harness
    from incidencelab.spectra import InvarianceReport

    args = ["spectrum", "--kind", kind, "--moduli", "5", "--trials", "1"]
    row = run(make_config(experiment="spectrum", kind=kind, moduli=5,
                          trials=1)).rows[0]
    assert row["hard_ok"] == 1
    monkeypatch.setattr(harness, "check_invariance",
                        lambda matrix: InvarianceReport(False, None, 0, 0))
    result = run(make_config(experiment="spectrum", kind=kind, moduli=5, trials=1))
    assert result.rows[0]["hard_ok"] == 0
    assert result.failed == ((5, 0, "invariance"),)
    assert cli_main(args) == 1
    assert "failed: q=5 trial=0 invariance\n" in capsys.readouterr().err


def test_cli_det_d3_samples_a_large_domain(capsys):
    assert cli_main(["det-incidence", "--d", "3", "--moduli", "11", "--trials", "1",
                     "--size-a", "5", "--size-b", "5"]) == 0
    capsys.readouterr()
