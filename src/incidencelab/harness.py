"""Experiment harness: flat-file configuration, seeded instance generation,
sweep execution, and CSV/JSON emission.

Each experiment is declared once, as an entry of `EXPERIMENTS`: its
parameters (name, default, help, type, choices, lower bound), sampler,
runner and columns.  The CLI flags in `cli` are derived from that entry,
and `make_config` alone resolves and judges a sweep's parameters by it and
by `incidence`'s rules, so a refusal the parameters fix exits 2 before any
row; `random_instance` draws each trial from that resolved config.

Every experiment produces one row per (modulus, trial) plus a summary row,
against a fixed column schema whose header tags each column as int, float,
rational, or str.  Rows are derived only from (seed, experiment, modulus,
trial), so reruns emit byte-identical files.  The three incidence
experiments share one sampler, `_sample_incidence`, which draws from the
label families `incidence` declares for each kind.
Runners only compute cells and named hard checks (identities, proven
inequalities, oracle equivalences); `run` fills the other cells from the
drawn instance or the settings, reuses the result of a repeated instance,
and alone folds the checks into hard_ok and the exit status.  Comparison
quantities are report-only columns and never fail a run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import sys
import time
from collections import ChainMap
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .charsums import (
    bilinear_form,
    bilinear_form_direct,
    energy_t2k,
    gl2_order,
    group_twisted_sum,
    hyperbola_group,
    hyperbola_sum,
    intersection_char_sum,
    kloosterman,
    matrix_family,
    projective_lift_check,
    twisted_bound_rhs,
    unrank_gl2,
)
from .errors import Error, InvalidParamsError, StructureError, TooLargeError
from .incidence import (IncidenceInstance, check_hypotheses, check_inequality, check_target,
                        domain_labels, domain_size, label_widths, second_eigenvalue_bound)
from .modring import is_prime, make_character, units
from .setops import point_set
from .spectra import DEFAULT_MATRIX_CAP, build_matrix, check_invariance, spectrum_report
from .zaremba import (
    _zaremba_cached,
    all_subgroups,
    cf_expand,
    cf_value,
    energy_bound_report,
    find_in_subgroup,
    full_group,
    interval_union,
    minimal_feasible_bound,
    quadratic_residues,
    subgroup,
    zaremba_set,
)


@dataclass(frozen=True)
class Param:
    """One sweep parameter, declared once: the CLI flag, the config key, the
    default and the check all come from here.  A value is one of `choices`
    or else of `type`, at least `minimum` when one is set and finite when a
    float; `type` None admits the choices only."""

    name: str
    default: object
    help: str
    type: type | None = int
    choices: tuple = ()
    minimum: int | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def coerce(self, value):
        """`value` as a choice or as `type`, else InvalidParamsError."""
        text = str(value).strip()
        for choice in self.choices:
            if text == str(choice):
                return choice
        expected = [str(c) for c in self.choices]
        if self.type is not None:
            expected.append(self.type.__name__)
            try:
                coerced = self.type(text)
            except ValueError:
                pass
            else:
                if self.type is float and not math.isfinite(coerced):
                    expected = ["a finite float"]
                elif self.minimum is None or coerced >= self.minimum:
                    return coerced
                else:
                    expected, value = [f">= {self.minimum}"], coerced
        raise InvalidParamsError(f"{self.name} ({self.flag}) must be "
                                 f"{' or '.join(expected)}, got {value!r}")


@dataclass(frozen=True)
class Experiment:
    """Everything the harness and the CLI know about one experiment.

    `runner(config, q, inst)` returns `(values, checks)` for one trial
    drawn by `sampler` as `inst`: the cells it computes, and whether each
    named hard check held.  `run` fills the other columns by name from
    `inst`, else `config.params`, and reuses the result of a repeated
    hashable `inst` at the same q within one sweep.
    `columns` is the full emitted schema.
    """

    description: str
    params: tuple
    sampler: Callable
    runner: Callable
    columns: tuple


# Sweep settings shared by every experiment; `moduli` takes a list of them.
COMMON_PARAMS = (
    Param("moduli", (7,), "comma-separated moduli to sweep"),
    Param("trials", 5, "trials per modulus", minimum=1),
    Param("seed", 0, "64-bit sweep seed"),
    Param("out", None, "output file (stdout when omitted)", str),
    Param("format", "csv", "csv or json", None, ("csv", "json")),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved sweep: experiment, moduli, trial count, seed,
    experiment parameters, and output settings."""

    experiment: str
    moduli: tuple
    trials: int
    seed: int
    params: dict
    out: str | None = None
    fmt: str = "csv"


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines; # starts a comment.  Values stay stripped
    strings: make_config types each by its declared Param, lists included."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParamsError(f"config line {lineno} is not `key = value`: {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _resolve(params, given: dict, experiment: str) -> dict:
    """Defaults overlaid with the given values, each coerced to its declared
    type; unknown keys are rejected rather than ignored."""
    names = {param.name for param in params}
    unknown = set(given) - names
    if unknown:
        raise InvalidParamsError(
            f"unknown keys for {experiment}: {', '.join(sorted(unknown))}")
    return {param.name: param.coerce(given[param.name])
            if param.name in given else param.default for param in params}


def make_config(mapping=None, **overrides) -> ExperimentConfig:
    """Validate a flat mapping into an ExperimentConfig: the one place a
    sweep's parameters are resolved and judged.

    Every value is coerced to its declared type up front, and unknown keys
    are rejected, so a typo in a config file fails fast instead of silently
    running defaults.  The moduli, and a target that is given, meet their
    rules at every modulus, so a refusal they fix comes before any row.
    """
    merged = dict(mapping or {})
    merged.update(overrides)

    experiment = merged.pop("experiment", None)
    if experiment not in EXPERIMENTS:
        raise InvalidParamsError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}, got {experiment!r}")
    spec = EXPERIMENTS[experiment]

    moduli_param, *settings = COMMON_PARAMS
    moduli = merged.pop("moduli", moduli_param.default)
    if isinstance(moduli, str):
        moduli = moduli.split(",") if moduli.strip() else ()
    elif not isinstance(moduli, (tuple, list)):
        moduli = (moduli,)
    moduli = tuple(moduli_param.coerce(q) for q in moduli)
    if any(q < 2 for q in moduli):
        raise InvalidParamsError(f"moduli must all be >= 2, got {moduli}")
    if len(set(moduli)) < len(moduli):
        raise InvalidParamsError(
            f"moduli ({moduli_param.flag}) lists a modulus twice: {moduli}")

    values = _resolve((*settings, *spec.params), merged, experiment)
    seed = values["seed"]
    if not 0 <= seed < 2 ** 64:
        raise InvalidParamsError(f"seed must fit in 64 bits, got {seed}")

    params = {param.name: values[param.name] for param in spec.params}
    if experiment == "spectrum" and params["kind"] == "crossratio":
        if params["n"] != 2:  # cross-ratio labels are pairs whatever n says
            raise InvalidParamsError(
                f"cross-ratio spectra have n = 2, got n (--n) = {params['n']}")
        if "lam" not in merged:
            params["lam"] = "random"  # the dot/det default target 1 is degenerate here
    # incidence's rules, with the bound's for a count; `random` is judged as
    # -1, a target the draw can make at every q where any is admitted
    if experiment == "spectrum" or experiment.endswith("-incidence"):
        kind = params.get("kind", experiment.split("-")[0])
        check = check_target if experiment == "spectrum" else check_hypotheses
        try:
            for q in moduli:
                check(kind, q, -1 if params["lam"] == "random" else params["lam"])
        except Error as exc:
            where = f" (--kind {kind})" if experiment == "spectrum" else ""
            raise InvalidParamsError(f"{exc}{where}") from None
    elif bad := [q for q in moduli if q == 2 or not is_prime(q)]:
        raise InvalidParamsError(f"{experiment} needs odd prime moduli, got {bad}")
    return ExperimentConfig(experiment, moduli, values["trials"], seed, params,
                            values["out"] or None, values["format"])


# ---------------------------------------------------------------------------
# seeded sampling


def trial_rng(seed: int, experiment: str, q: int, trial: int) -> random.Random:
    """Independent generator per (seed, experiment, modulus, trial), so the
    trial grid can be evaluated in any order."""
    key = f"{seed}:{experiment}:{q}:{trial}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def disk_weight(rng: random.Random) -> complex:
    """One weight uniform on the closed unit disk (area measure)."""
    r = math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def disk_weights(rng: random.Random, elements) -> dict:
    return {el: disk_weight(rng) for el in sorted(elements)}


def _weights_or_none(rng, elements, mode):
    return None if mode == "unit" else disk_weights(rng, elements)


def _sample_size(rng, requested, limit, label):
    if requested:
        if not 1 <= requested <= limit:
            raise InvalidParamsError(f"{label} = {requested} is outside 1..{limit}")
        return requested
    return rng.randint(1, limit)


_MAX_COPRIME_DOMAIN = 10 ** 7  # largest (Z_q)^n the dot sampler accepts
_MAX_SAMPLE = 10 ** 6  # most det or cross-ratio labels one sample may hold


def _sorted_draw(rng, n: int, size: int) -> np.ndarray:
    """`rng.sample(range(n), size)` sorted, as an int64 array."""
    idx = np.array(rng.sample(range(n), size), dtype=np.int64)
    idx.sort()
    return idx


def _target(rng, q: int, lam, kind: str) -> int:
    """`lam`, or a random target `incidence.check_target` admits when it is
    `random`: outside {0, 1} for a cross-ratio, else a unit, drawn at prime
    q as `rng.choice(units(q))` draws it, 1 + _randbelow(q - 1), but without
    the table of units, which `units` refuses past its cap."""
    if isinstance(lam, int):
        return lam
    if kind == "crossratio":
        return rng.randrange(2, q)
    return rng.randrange(1, q) if is_prime(q) else rng.choice(units(q))


def _sample_incidence(kind, rng, q, p):
    """|A| and |B|, the target, then A and B, drawn as `rng.sample` draws
    from the materialised label domains `incidence` declares for `kind`,
    each label by its index in its domain."""
    widths = label_widths(kind, p.get("n") or p.get("d"))
    if kind == "dot" and q ** widths[0] > _MAX_COPRIME_DOMAIN:
        raise InvalidParamsError(
            f"dot labels of length n = {widths[0]} (--n) mod {q} range over "
            f"{q}^{widths[0]} tuples, more than the {_MAX_COPRIME_DOMAIN} the sampler accepts")
    drawn = []
    for side, width in zip("ab", widths):
        size = domain_size(kind, q, width)
        if size > sys.maxsize:
            raise InvalidParamsError(f"domain of size {q}^{width} is too large to sample")
        limit = size if kind == "dot" else min(size, _MAX_SAMPLE)
        drawn.append((width, size, _sample_size(rng, p[f"size_{side}"], limit, f"size_{side}")))
    lam = _target(rng, q, p["lam"], kind)
    a, b = (domain_labels(kind, q, width, _sorted_draw(rng, size, k))
            for width, size, k in drawn)
    return {"a": a, "b": b, "lam": lam}


def _sample_spectrum(rng, q, p):
    return {"lam": _target(rng, q, p["lam"], p["kind"])}


def _sample_kloosterman(rng, q, p):
    case = rng.choice(("gauss", "weil-principal", "weil-twisted", "complete"))
    if case == "gauss":
        index = rng.randrange(1, q - 1)
        n, m = rng.randrange(1, q), 0
    elif case == "weil-principal":
        index = 0
        n, m = rng.randrange(1, q), rng.randrange(1, q)
    elif case == "weil-twisted":
        index = rng.randrange(1, q - 1)
        n, m = 0, 0
        while (n, m) == (0, 0):
            n, m = rng.randrange(q), rng.randrange(q)
    else:
        index = rng.randrange(q - 1)
        n, m = 0, 0
    return {"char_index": index, "coef_n": n, "coef_m": m, "reference_kind": case}


def _sample_bilinear(rng, q, p):
    sa = _sample_size(rng, p["size_a"], q, "size_a")
    sb = _sample_size(rng, p["size_b"], q, "size_b")
    pos_a = sorted(rng.sample(range(q), sa))
    pos_b = sorted(rng.sample(range(q), sb))
    alpha = np.zeros(q, dtype=complex)
    beta = np.zeros(q, dtype=complex)
    for pos in pos_a:
        alpha[pos] = disk_weight(rng) if p["weights"] == "disk" else 1.0
    for pos in pos_b:
        beta[pos] = disk_weight(rng) if p["weights"] == "disk" else 1.0
    return {"char_index": rng.randrange(q - 1), "alpha": alpha, "beta": beta,
            "support_a": sa, "support_b": sb}


def _sample_hyperbola(rng, q, p):
    sets = {}
    for name in "abxy":
        size = _sample_size(rng, p[f"size_{name}"], q, f"size_{name}")
        sets[name] = tuple(sorted(rng.sample(range(q), size)))
    return {"char_index": rng.randrange(q - 1), **sets,
            "weights_a": _weights_or_none(rng, sets["a"], p["weights"]),
            "weights_b": _weights_or_none(rng, sets["b"], p["weights"])}


def _sample_lift_energy(rng, q, p):
    """G is drawn as indices into GL_2(F_q), in the order of enumerate_gl2,
    each decoded by unrank_gl2, so no table of the group is built.
    random.sample picks the same indices from any population of the same
    length, so G is the draw `rng.sample(enumerate_gl2(q), size_g)` would
    make.  From q = 55117 the group has more elements than random.sample
    can index and is refused; energy_t2k's table cap refuses q >= 59 in
    the runner, before any sum."""
    order = gl2_order(q)
    if order > sys.maxsize:
        raise TooLargeError(
            f"GL_2(F_{q}) has {order} elements, more than an index draw holds")
    sg = _sample_size(rng, p["size_g"], min(40, order), "size_g")
    sa = _sample_size(rng, p["size_a"], q, "size_a")
    sb = _sample_size(rng, p["size_b"], q, "size_b")
    a = tuple(sorted(rng.sample(range(q), sa)))
    b = tuple(sorted(rng.sample(range(q), sb)))
    return {"char_index": rng.randrange(q - 1),
            "g": tuple(unrank_gl2(q, i) for i in sorted(rng.sample(range(order), sg))),
            "a": a, "b": b,
            "weights_a": _weights_or_none(rng, a, p["weights"]),
            "weights_b": _weights_or_none(rng, b, p["weights"])}


def _sample_intersection(rng, q, p):
    if p["structure"] == "random":
        sa = _sample_size(rng, p["size_a"], q - 1, "size_a")
        return {"a": tuple(sorted(rng.sample(range(1, q), sa))),
                "n_len": 0, "lambda_size": 0, "char_index": rng.randrange(1, q - 1)}
    n_len = p["n_len"]
    lam_size = p["size_lambda"]
    if n_len * lam_size >= q:
        raise InvalidParamsError(
            f"{lam_size} translates of length {n_len} cannot be disjoint mod {q}")
    for _ in range(500):
        try:
            union = interval_union(q, rng.sample(range(q), lam_size), n_len)
        except StructureError:
            continue
        return {"a": union, "n_len": n_len, "lambda_size": lam_size,
                "char_index": rng.randrange(1, q - 1)}
    raise InvalidParamsError(
        f"could not place {lam_size} disjoint translates of length {n_len} mod {q}")


def _sample_zaremba(rng, q, p):
    return {}


def _sample_energy(rng, q, p):
    if p["kind"] == "subgroup":
        gamma = rng.choice(all_subgroups(q))
        return {"kind": "subgroup", "z": tuple(sorted(gamma.elements)),
                "subgroup_order": len(gamma)}
    limit = min(q - 1, 40)
    sz = _sample_size(rng, p["size_z"], limit, "size_z")
    return {"kind": "residue", "z": tuple(sorted(rng.sample(range(1, q), sz))),
            "subgroup_order": 0}


def random_instance(config: ExperimentConfig, q: int, trial: int) -> dict:
    """Sets, weights, and targets for one trial of a resolved sweep, as `run`
    draws them: uniform over the valid domain and fully determined by
    (seed, experiment, q, trial), at one of the config's moduli."""
    if q not in config.moduli:
        raise InvalidParamsError(f"q = {q} is not among the moduli {config.moduli}")
    rng = trial_rng(config.seed, config.experiment, q, trial)
    return EXPERIMENTS[config.experiment].sampler(rng, q, config.params)


# ---------------------------------------------------------------------------
# per-experiment runners


def _run_incidence(config, q, inst) -> tuple:
    """A row of the dot, det or cross-ratio count the experiment names, with
    the columns of all three; each experiment emits its own."""
    kind = config.experiment.split("-")[0]
    widths = label_widths(kind, config.params.get("n") or config.params.get("d"))
    pair = IncidenceInstance(kind, *(point_set(q, inst[side], dimension=width)
                                     for side, width in zip("ab", widths)), inst["lam"])
    rep = check_inequality(pair)
    return dict(size_a=len(pair.a), size_b=len(pair.b), count=rep.count,
                main_term=rep.main_term,
                main_alt=rep.extras.get("main_per_unit_group"),
                error=rep.error_lhs, error_scaled=rep.error_lhs,
                bound_rhs=rep.bound_rhs, slack=rep.slack,
                warn_small_prime=int(bool(rep.warnings)),
                better_fit=rep.extras.get("better_fit")), {"error_bound": rep.holds}


def _run_spectrum(config, q, inst) -> tuple:
    kind = config.params["kind"]
    n = config.params["n"]
    matrix = build_matrix(kind, q, inst["lam"], n=n, cap=config.params["matrix_cap"])
    rep = spectrum_report(matrix, cluster_tol=config.params["cluster_tol"] or None)

    if rep.fourth_moment_exact:
        fourth_rel = (abs(rep.fourth_moment_float - rep.fourth_moment_exact)
                      / rep.fourth_moment_exact)
    else:
        fourth_rel = 0.0 if rep.fourth_moment_float == 0 else math.inf
    checks = {"fourth_moment": fourth_rel < 1e-6,
              "invariance": check_invariance(matrix).ok}

    top_expected = second_bound = min_mult = slack = None
    if kind == "dot":
        top_expected = float(q) ** (n - 1)
        second_bound = second_eigenvalue_bound(q, n)
        checks["top_value"] = abs(rep.top_value - top_expected) <= 1e-8 * top_expected
        checks["second_bound"] = rep.second_value <= second_bound * (1 + 1e-12) + 1e-9
        slack = (second_bound / rep.second_value if rep.second_value > 0
                 else math.inf)
        if is_prime(q) and n == 2 and len(rep.clusters) > 1:
            min_mult = min(mult for _, mult in rep.clusters[1:])
            checks["multiplicity"] = min_mult >= (q - 1) / 2

    return dict(dim=len(rep.spectral_values),
                top_value=rep.top_value, top_expected=top_expected,
                second_value=rep.second_value, second_bound=second_bound,
                cluster_count=len(rep.clusters), min_nontop_mult=min_mult,
                fourth_exact=rep.fourth_moment_exact,
                fourth_float=rep.fourth_moment_float, fourth_rel=fourth_rel,
                symmetric=int(rep.symmetric), slack=slack), checks


def _run_kloosterman(config, q, inst) -> tuple:
    chi = make_character(q, inst["char_index"])
    value = kloosterman(chi, inst["coef_n"], inst["coef_m"])
    abs_value = abs(value)
    case = inst["reference_kind"]
    if case == "gauss":
        reference = math.sqrt(q)
        deviation = abs(abs_value - reference)
        ok = deviation <= 1e-8
    elif case in ("weil-principal", "weil-twisted"):
        reference = 2.0 * math.sqrt(q)
        deviation = max(0.0, abs_value - reference)
        ok = deviation <= 1e-9
    else:
        reference = float(q - 1) if chi.is_principal else 0.0
        deviation = abs(value - reference)
        ok = deviation <= 1e-9 * q
    return dict(value_re=value.real, value_im=value.imag, abs_value=abs_value,
                reference_value=reference, deviation=deviation), {"reference": ok}


def _run_bilinear(config, q, inst) -> tuple:
    chi = make_character(q, inst["char_index"])
    via_table = bilinear_form(chi, inst["alpha"], inst["beta"])
    direct = bilinear_form_direct(chi, inst["alpha"], inst["beta"])
    rel_err = abs(via_table - direct) / max(abs(via_table), abs(direct), 1.0)
    return dict(table_re=via_table.real, table_im=via_table.imag,
                direct_re=direct.real, direct_im=direct.imag, rel_err=rel_err,
                tol=1e-6), {"dual_route": rel_err <= 1e-6}


def _run_hyperbola(config, q, inst) -> tuple:
    chi = make_character(q, inst["char_index"])
    # the oracle's family first: past the table cap it is refused before
    # any sum runs
    family = hyperbola_group(q, inst["a"], inst["b"])
    res = hyperbola_sum(chi, inst["a"], inst["b"], inst["x"], inst["y"],
                        inst["weights_a"], inst["weights_b"])
    # cross-encoding oracle, run with unit weights where it is an identity
    plain = hyperbola_sum(chi, inst["a"], inst["b"], inst["x"], inst["y"]).value
    encoded = group_twisted_sum(chi, family, inst["x"], inst["y"])
    encode_tol = 1e-9 * (1 + len(inst["a"]) * len(inst["b"]) * len(inst["x"]))
    encode_diff = abs(plain - encoded)
    return dict(size_a=len(inst["a"]), size_b=len(inst["b"]), size_x=len(inst["x"]),
                size_y=len(inst["y"]), value_re=res.value.real,
                value_im=res.value.imag, abs_value=abs(res.value),
                trivial_bound=res.trivial_bound,
                cancellation=abs(res.value) / res.trivial_bound,
                encode_diff=encode_diff,
                encode_tol=encode_tol), {"group_encoding": encode_diff <= encode_tol}


def _run_lift_energy(config, q, inst) -> tuple:
    k = config.params["k"]
    chi = make_character(q, inst["char_index"])
    family = matrix_family(q, inst["g"])
    # the energy first: its p^4 table cap refuses q >= 59 before the lift
    # builds its p^2-entry tables
    t2k_raw = energy_t2k(family, k)
    lift = projective_lift_check(chi, family, inst["a"], inst["b"],
                                 inst["weights_a"], inst["weights_b"])
    twisted = lift.affine
    # balanced energy via the exact expansion T(f_G) = T(G) - |G|^(4k)/|GL2|
    t2k_fg = max(0.0, float(Fraction(t2k_raw)
                            - Fraction(len(family) ** (4 * k), gl2_order(q))))
    bound = twisted_bound_rhs(k, len(inst["a"]), len(inst["b"]), len(family), t2k_fg)
    lhs_quarter = 0.25 * abs(twisted)
    ratio = bound / lhs_quarter if lhs_quarter > 0 else math.inf
    return dict(size_a=len(inst["a"]), size_b=len(inst["b"]), size_g=len(family),
                lhs_re=twisted.real, lhs_im=twisted.imag,
                lifted_re=lift.lifted.real, lifted_im=lift.lifted.imag,
                residual=lift.residual, lift_tol=lift.tolerance,
                t2k_raw=t2k_raw, t2k_fg=t2k_fg, bound_rhs=bound,
                lhs_quarter=lhs_quarter,
                slack_ratio=ratio), {"projective_lift": lift.passed}


def _run_intersection(config, q, inst) -> tuple:
    chi = make_character(q, inst["char_index"])
    res = intersection_char_sum(chi, inst["a"], config.params["variant"])
    abs_value = abs(res.value)
    trivial = abs_value <= res.intersection_size + 1e-9
    return dict(size_a=len(inst["a"]), intersection_size=res.intersection_size,
                dropped=res.dropped, value_re=res.value.real,
                value_im=res.value.imag, abs_value=abs_value,
                comparison=res.comparison,
                cancellation=abs_value / max(1, res.intersection_size)), {
                    "trivial_bound": trivial}


def _run_zaremba(config, q, inst) -> tuple:
    p = config.params
    bound = p["m_bound"]
    if p["subgroup"] == "full":
        gamma = full_group(q)
    elif p["subgroup"] == "squares":
        gamma = quadratic_residues(q)
    else:
        gamma = subgroup(q, p["subgroup"])
    rep = find_in_subgroup(q, bound, gamma, p["c0"], p["c_star"], p["n_value"])
    minimal = minimal_feasible_bound(q, gamma)

    bounded = _zaremba_cached(q, bound)  # the set find_in_subgroup searched
    round_trip = all(max(qs := cf_expand(a, q).quotients) <= bound
                     and cf_value(qs) == (a, q) for a in bounded)
    monotone = bounded <= zaremba_set(q, bound + 1)
    return dict(set_size=rep.bounded_set_size, subgroup_order=len(gamma),
                witness=-1 if rep.witness is None else rep.witness,
                intersection_size=rep.intersection_size,
                n_decay=float(p["n_value"]) ** (-p["c_star"]),
                lower_bound=rep.lower_bound, min_feasible_m=minimal,
                elements=";".join(map(str, rep.intersection))
                if rep.intersection_size <= 64 else ""), {
                    "round_trip": round_trip, "monotone": monotone}


def _run_energy(config, q, inst) -> tuple:
    z = inst["z"]
    ebr = energy_bound_report(z, config.params["n_len"], config.params["w"], q)
    energy = ebr.energy
    brute = None
    if len(z) <= 12:
        brute = sum(1 for z1 in z for z2 in z for z3 in z for z4 in z
                    if z1 * z2 % q == z3 * z4 % q)
    checks = {"trivial_lower": energy >= len(z) ** 2}
    if brute is not None:
        checks["brute_force"] = energy == brute
    subgroup_exact = -1
    if inst["kind"] == "subgroup":
        subgroup_exact = int(energy == len(z) ** 3)
        checks["subgroup_energy"] = subgroup_exact == 1
    return dict(size_z=len(z), energy=energy, brute=brute,
                subgroup_exact=subgroup_exact, bound_rhs=ebr.bound_rhs,
                trivial_bound=ebr.trivial_bound, baseline=ebr.random_baseline,
                regime_ok=int(ebr.regime_ok),
                within_bound=int(ebr.within_bound)), checks


# ---------------------------------------------------------------------------
# the experiments


# the cells `run` fills around a runner's values: the row key, then the verdict
_HEAD = (("experiment", "str"), ("q", "int"), ("trial", "int"), ("row_kind", "str"))
_TAIL = (("hard_ok", "int"), ("slack_min", "float"), ("slack_median", "float"))


def _schema(*cols) -> tuple:
    return _HEAD + cols + _TAIL


_WEIGHTS = Param("weights", "disk", "disk or unit", None, ("disk", "unit"))

EXPERIMENTS = {
    "dot-incidence": Experiment(
        description="count dot-product incidences and check the error bound",
        params=(
            Param("n", 2, "tuple length", minimum=2),
            Param("lam", "random", "target value, or `random`", int, ("random",)),
            Param("size_a", 0, "|A| (0 = random each trial)"),
            Param("size_b", 0, "|B| (0 = random each trial)"),
        ),
        sampler=partial(_sample_incidence, "dot"), runner=_run_incidence,
        columns=_schema(
            ("n", "int"), ("lam", "int"), ("size_a", "int"), ("size_b", "int"),
            ("count", "int"), ("main_term", "rational"), ("error", "rational"),
            ("bound_rhs", "float"), ("slack", "float"), ("warn_small_prime", "int"))),
    "det-incidence": Experiment(
        description="count determinant incidences and check the error bound",
        params=(
            Param("d", 2, "matrix size d (rows split 1 / d-1)", minimum=2),
            Param("lam", "random", "target value, or `random`", int, ("random",)),
            Param("size_a", 0, "|A| (0 = random each trial)"),
            Param("size_b", 0, "|B| (0 = random each trial)"),
        ),
        sampler=partial(_sample_incidence, "det"), runner=_run_incidence,
        columns=_schema(
            ("d", "int"), ("lam", "int"), ("size_a", "int"), ("size_b", "int"),
            ("count", "int"), ("main_term", "rational"), ("main_alt", "rational"),
            ("error_scaled", "rational"), ("bound_rhs", "float"), ("slack", "float"),
            ("better_fit", "str"))),
    "crossratio-incidence": Experiment(
        description="count cross-ratio incidences and check the error bound",
        params=(
            Param("lam", "random", "target value outside {0,1}, or `random`", int,
                  ("random",)),
            Param("size_a", 0, "|A| (0 = random each trial)"),
            Param("size_b", 0, "|B| (0 = random each trial)"),
        ),
        sampler=partial(_sample_incidence, "crossratio"), runner=_run_incidence,
        columns=_schema(
            ("lam", "int"), ("size_a", "int"), ("size_b", "int"), ("count", "int"),
            ("main_term", "rational"), ("error", "rational"),
            ("bound_rhs", "float"), ("slack", "float"))),
    "spectrum": Experiment(
        description="build an incidence matrix and check its spectral laws",
        params=(
            Param("kind", "dot", "dot, det, or crossratio", None,
                  ("dot", "det", "crossratio")),
            Param("n", 2, "tuple length for dot, matrix size d for det", minimum=2),
            # crossratio falls back to `random` unless lam is given (make_config)
            Param("lam", 1, "target value, or `random`", int, ("random",)),
            Param("cluster_tol", 0.0, "eigenvalue clustering tolerance (0 = auto)",
                  float, minimum=0),
            Param("matrix_cap", DEFAULT_MATRIX_CAP, "largest matrix side", minimum=1),
        ),
        sampler=_sample_spectrum, runner=_run_spectrum,
        columns=_schema(
            ("kind", "str"), ("n", "int"), ("lam", "int"), ("dim", "int"),
            ("top_value", "float"), ("top_expected", "float"),
            ("second_value", "float"), ("second_bound", "float"),
            ("cluster_count", "int"), ("min_nontop_mult", "int"),
            ("fourth_exact", "int"), ("fourth_float", "float"),
            ("fourth_rel", "float"), ("symmetric", "int"), ("slack", "float"))),
    "kloosterman": Experiment(
        description="evaluate twisted Kloosterman sums against exact laws",
        params=(),
        sampler=_sample_kloosterman, runner=_run_kloosterman,
        columns=_schema(
            ("char_index", "int"), ("coef_n", "int"), ("coef_m", "int"),
            ("value_re", "float"), ("value_im", "float"), ("abs_value", "float"),
            ("reference_kind", "str"), ("reference_value", "float"),
            ("deviation", "float"))),
    "bilinear": Experiment(
        description="dual-path evaluation of the Kloosterman bilinear form",
        params=(
            Param("size_a", 0, "support of the left vector (0 = random)"),
            Param("size_b", 0, "support of the right vector (0 = random)"),
            _WEIGHTS,
        ),
        sampler=_sample_bilinear, runner=_run_bilinear,
        columns=_schema(
            ("char_index", "int"), ("support_a", "int"), ("support_b", "int"),
            ("table_re", "float"), ("table_im", "float"), ("direct_re", "float"),
            ("direct_im", "float"), ("rel_err", "float"), ("tol", "float"))),
    "hyperbola": Experiment(
        description="weighted hyperbola character sums and their group encoding",
        params=(
            Param("size_a", 0, "|A| (0 = random)"),
            Param("size_b", 0, "|B| (0 = random)"),
            Param("size_x", 0, "|X| (0 = random)"),
            Param("size_y", 0, "|Y| (0 = random)"),
            _WEIGHTS,
        ),
        sampler=_sample_hyperbola, runner=_run_hyperbola,
        columns=_schema(
            ("char_index", "int"), ("size_a", "int"), ("size_b", "int"),
            ("size_x", "int"), ("size_y", "int"), ("value_re", "float"),
            ("value_im", "float"), ("abs_value", "float"),
            ("trivial_bound", "float"), ("cancellation", "float"),
            ("encode_diff", "float"), ("encode_tol", "float"))),
    "lift-energy": Experiment(
        description="projective-lift identity and the energy-based bound",
        params=(
            Param("size_a", 0, "|A| (0 = random)"),
            Param("size_b", 0, "|B| (0 = random)"),
            Param("size_g", 0, "matrix family size (0 = random, capped at 40)"),
            _WEIGHTS,
            Param("k", 2, "energy exponent, 2 or 3", None, (2, 3)),
        ),
        sampler=_sample_lift_energy, runner=_run_lift_energy,
        columns=_schema(
            ("char_index", "int"), ("size_a", "int"), ("size_b", "int"),
            ("size_g", "int"), ("lhs_re", "float"), ("lhs_im", "float"),
            ("lifted_re", "float"), ("lifted_im", "float"), ("residual", "float"),
            ("lift_tol", "float"), ("t2k_raw", "int"), ("t2k_fg", "float"),
            ("bound_rhs", "float"), ("lhs_quarter", "float"),
            ("slack_ratio", "float"))),
    "intersection-charsum": Experiment(
        description="character sums over inverse-intersection sets",
        params=(
            Param("variant", "multiplicative", "multiplicative or shifted", None,
                  ("multiplicative", "shifted")),
            Param("structure", "random", "random or interval-union", None,
                  ("random", "interval-union")),
            Param("size_a", 0, "|A| for random structure (0 = random)"),
            Param("n_len", 5, "interval length for interval-union", minimum=1),
            Param("size_lambda", 4, "translate count for interval-union", minimum=1),
        ),
        sampler=_sample_intersection, runner=_run_intersection,
        columns=_schema(
            ("variant", "str"), ("structure", "str"), ("char_index", "int"),
            ("size_a", "int"), ("n_len", "int"), ("intersection_size", "int"),
            ("dropped", "int"), ("value_re", "float"), ("value_im", "float"),
            ("abs_value", "float"), ("comparison", "float"),
            ("cancellation", "float"))),
    "zaremba": Experiment(
        description="bounded-quotient sets and subgroup witness search",
        params=(
            Param("m_bound", 5, "partial-quotient cap M", minimum=1),
            Param("subgroup", "full", "full, squares, or a generator residue", int,
                  ("full", "squares")),
            Param("c0", 1.0, "constant in the reported lower bound", float),
            Param("c_star", 1.0, "decay exponent in the reported lower bound", float),
            Param("n_value", 1, "scale N in the reported lower bound", minimum=1),
        ),
        sampler=_sample_zaremba, runner=_run_zaremba,
        columns=_schema(
            ("m_bound", "int"), ("set_size", "int"), ("subgroup_order", "int"),
            ("witness", "int"), ("intersection_size", "int"), ("n_value", "int"),
            ("n_decay", "float"), ("lower_bound", "float"),
            ("min_feasible_m", "int"), ("elements", "str"))),
    "energy": Experiment(
        description="multiplicative energy of residue sets against reference bounds",
        params=(
            Param("kind", "residue", "residue or subgroup", None,
                  ("residue", "subgroup")),
            Param("size_z", 0, "|Z| for residue kind (0 = random)"),
            Param("w", 0.8, "regularity exponent for the bound report", float),
            Param("n_len", 4, "base interval length for the bound report", minimum=1),
        ),
        sampler=_sample_energy, runner=_run_energy,
        columns=_schema(
            ("kind", "str"), ("size_z", "int"), ("energy", "int"), ("brute", "int"),
            ("subgroup_exact", "int"), ("w", "float"), ("n_len", "int"),
            ("bound_rhs", "float"), ("trivial_bound", "int"), ("baseline", "float"),
            ("regime_ok", "int"), ("within_bound", "int"))),
}


# ---------------------------------------------------------------------------
# emission


def _format_cell(value, typ: str) -> str:
    if value is None:
        return ""
    if typ == "int":
        return str(int(value))
    if typ == "float":
        return format(float(value), ".17g")
    if typ == "rational":
        fr = Fraction(value)
        return f"{fr.numerator}/{fr.denominator}"
    return str(value)


def emit_csv(columns, rows) -> str:
    lines = [",".join(f"{name}[{typ}]" for name, typ in columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(name), typ)
                              for name, typ in columns))
    return "\n".join(lines) + "\n"


def _json_cell(value, typ: str):
    """Ints and finite floats as JSON numbers, None as null, everything
    else (rationals, strings, infinities) in its CSV spelling."""
    if value is None:
        return None
    if typ == "int":
        return int(value)
    if typ == "float" and math.isfinite(value):
        return float(value)
    return _format_cell(value, typ)


def emit_json(experiment: str, columns, rows) -> str:
    payload = {
        "experiment": experiment,
        "columns": [{"name": name, "type": typ} for name, typ in columns],
        "rows": [{name: _json_cell(row.get(name), typ) for name, typ in columns}
                 for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def schema_text(experiment: str, columns) -> str:
    payload = {
        "experiment": experiment,
        "columns": [{"name": name, "type": typ} for name, typ in columns],
        "row_kinds": ["trial", "summary"],
        "notes": {
            "float": "printed with %.17g, lossless round-trip",
            "rational": "exact numerator/denominator",
            "summary": "slack_min/slack_median filled only on the summary row",
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _summary_row(config, rows, hard_ok: bool) -> dict:
    names = [name for name, _ in EXPERIMENTS[config.experiment].columns]
    row = dict.fromkeys(names)
    row["experiment"] = config.experiment
    row["row_kind"] = "summary"
    row["hard_ok"] = int(hard_ok)
    slacks = [r["slack"] for r in rows if r.get("slack") is not None]
    if slacks:
        row["slack_min"] = min(slacks)
        row["slack_median"] = statistics.median(slacks)
    return row


@dataclass(frozen=True)
class RunResult:
    """Everything a caller needs after a sweep: the rows, the formatted
    emission, the aggregate hard-check verdict with a (q, trial, check)
    triple for each failed check in row order, and total wall time (kept
    out of the emitted bytes)."""

    config: ExperimentConfig
    columns: tuple
    rows: tuple
    text: str
    hard_ok: bool
    failed: tuple
    elapsed: float


def run(config: ExperimentConfig) -> RunResult:
    """Execute the sweep and emit its table.

    Rows are ordered by (modulus, trial) with the summary row last.  A
    trial row takes each declared column from the runner's values, else the
    drawn instance, else the params (KeyError if none has it), and the
    verdict of its named checks.  A hashable instance drawn again at the
    same q reuses the first draw's values and checks.
    """
    started = time.perf_counter()
    spec = EXPERIMENTS[config.experiment]
    columns = spec.columns
    names = [name for name, _ in columns[len(_HEAD):-len(_TAIL)]]
    rows = []
    failed = []
    done = {}
    for q in sorted(config.moduli):
        for t in range(config.trials):
            inst = random_instance(config, q, t)
            key = (q, tuple(inst.items()))
            try:
                values, checks = done[key]
            except KeyError:
                values, checks = done[key] = spec.runner(config, q, inst)
            except TypeError:  # an array or a weight dict is never compared
                values, checks = spec.runner(config, q, inst)
            cells = ChainMap(values, inst, config.params)
            rows.append({"experiment": config.experiment, "q": q, "trial": t,
                         "row_kind": "trial", **{name: cells[name] for name in names},
                         "hard_ok": int(all(checks.values()))})
            failed += [(q, t, check) for check, ok in checks.items() if not ok]
    hard_ok = not failed
    if rows:
        rows.append(_summary_row(config, rows, hard_ok))
    if config.fmt == "csv":
        text = emit_csv(columns, rows)
    else:
        text = emit_json(config.experiment, columns, rows)

    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if config.fmt == "csv":
            with open(config.out + ".schema.json", "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(schema_text(config.experiment, columns))
    return RunResult(config, columns, tuple(rows), text, hard_ok, tuple(failed),
                     time.perf_counter() - started)
