"""Acceptance gate: one test per criterion, one printed verdict line each.

Numbered to run in order; every tolerance and runtime budget is stated
inline next to the check it guards.
"""

import math
import time
from fractions import Fraction

from incidencelab import (
    IncidenceInstance,
    all_subgroups,
    bilinear_form,
    bilinear_form_direct,
    build_matrix,
    cf_expand,
    cf_value,
    check_inequality,
    coprime_tuples,
    count_det,
    count_dot,
    dot_main_term,
    enumerate_gl2,
    find_in_subgroup,
    kloosterman,
    make_character,
    make_config,
    matrix_family,
    mult_energy,
    energy_t2k,
    point_set,
    projective_lift_check,
    quadratic_residues,
    rectangular_norm,
    run,
    second_eigenvalue_bound,
    spectrum_report,
    zaremba_set,
)
from incidencelab.harness import disk_weights, trial_rng
from incidencelab.modring import mat2_inv, mat2_mul

_CACHE: dict = {}


def _verdict(capsys, number, ok, detail):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _dot_spectra():
    if "dot" not in _CACHE:
        reports = {}
        for q in (5, 7, 11, 13):
            matrix = build_matrix("dot", q, 1, n=2)
            reports[q] = spectrum_report(matrix, cluster_tol=1e-6 * q)
        _CACHE["dot"] = reports
    return _CACHE["dot"]


def _det_full():
    if "det" not in _CACHE:
        matrix = build_matrix("det", 3, 1)
        _CACHE["det"] = (matrix, spectrum_report(matrix))
    return _CACHE["det"]


def test_criterion_01_full_set_dot_count(capsys):
    started = time.perf_counter()
    pairs = coprime_tuples(3, 2)
    brute = sum(1 for a in pairs for b in pairs
                if (a[0] * b[0] + a[1] * b[1]) % 3 == 1)
    full = point_set(3, pairs, dimension=2)
    count = count_dot(full, full, 1)
    main = dot_main_term(len(full), len(full), 3, 2)
    elapsed = time.perf_counter() - started
    ok = (len(pairs) == 8 and brute == 24 and count == 24
          and main == Fraction(24) and count - main == 0 and elapsed < 1.0)
    _verdict(capsys, 1, ok,
             f"count={count} main={main} brute={brute} ({elapsed:.3f}s < 1s)")


def test_criterion_02_dot_inequality_slack(capsys, draw):
    started = time.perf_counter()
    checked = 0
    worst = math.inf
    for q in (5, 7, 9, 11, 15):
        for n in (2, 3):
            for trial in range(20):
                inst = draw(
                    20, {"experiment": "dot-incidence", "q": q,
                         "trial": trial, "n": n})
                rep = check_inequality(IncidenceInstance(
                    "dot", point_set(q, inst["a"], dimension=n),
                    point_set(q, inst["b"], dimension=n), inst["lam"]))
                worst = min(worst, rep.slack)
                assert rep.holds, (q, n, trial)
                checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 200 and worst >= 1.0 and elapsed < 60.0
    _verdict(capsys, 2, ok,
             f"{checked} instances, min slack {worst:.3f} ({elapsed:.1f}s < 60s)")


def test_criterion_03_dot_spectral_laws(capsys):
    started = time.perf_counter()
    details = []
    ok = True
    for q, report in _dot_spectra().items():
        top_dev = abs(report.top_value - q)
        bound = second_eigenvalue_bound(q, 2)
        small = [mult for _, mult in report.clusters[1:]]
        ok = ok and top_dev <= 1e-8
        ok = ok and abs(report.second_value) <= bound
        ok = ok and min(small) >= (q - 1) // 2
        details.append(f"q={q} |mu2|={abs(report.second_value):.3f}<={bound:.3f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    _verdict(capsys, 3, ok, "; ".join(details) + f" ({elapsed:.1f}s < 120s)")


def test_criterion_04_fourth_moment_dual_path(capsys):
    reports = list(_dot_spectra().values()) + [_det_full()[1]]
    worst = 0.0
    for report in reports:
        rel = abs(report.fourth_moment_float - report.fourth_moment_exact)
        rel /= float(report.fourth_moment_exact)
        worst = max(worst, rel)
    ok = worst < 1e-6
    _verdict(capsys, 4, ok,
             f"{len(reports)} matrices, worst relative deviation {worst:.2e} < 1e-6")


def test_criterion_05_det_incidences(capsys, draw):
    started = time.perf_counter()
    nonzero = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    a = point_set(3, nonzero, dimension=2)
    count = count_det(a, a, 1)
    matrix, _ = _det_full()
    norm = rectangular_norm(matrix.entries)
    worst = math.inf
    checked = 0
    for q in (3, 5):
        for trial in range(25):
            inst = draw(
                50, {"experiment": "det-incidence", "q": q, "trial": trial})
            rep = check_inequality(IncidenceInstance(
                "det", point_set(q, inst["a"], dimension=2),
                point_set(q, inst["b"], dimension=2), inst["lam"]))
            worst = min(worst, rep.slack)
            assert rep.holds, (q, trial)
            checked += 1
    elapsed = time.perf_counter() - started
    ok = (count == 24 and norm == 120 and checked == 50 and worst >= 1.0
          and elapsed < 30.0)
    _verdict(capsys, 5, ok,
             f"count={count} norm={norm} min slack {worst:.3f} on {checked} "
             f"instances ({elapsed:.1f}s < 30s)")


def test_criterion_06_crossratio_caps_and_slack(capsys, draw):
    started = time.perf_counter()
    ok = True
    for q, lam in ((7, 2), (7, 6), (11, 3), (11, 10)):
        matrix = build_matrix("crossratio", q, lam)
        gram = matrix.entries.astype("int64") @ matrix.entries.astype("int64").T
        rows = matrix.row_index
        for i, left in enumerate(rows):
            for j, right in enumerate(rows):
                degenerate = (left[0] == right[0] or left[1] == right[1]
                              or (lam == q - 1 and left[0] == right[1]
                                  and left[1] == right[0]))
                cap = 2 * q if degenerate else 4
                ok = ok and gram[i, j] <= cap
    worst = math.inf
    checked = 0
    for q in (7, 11):
        for trial in range(50):
            inst = draw(
                60, {"experiment": "crossratio-incidence", "q": q,
                     "trial": trial})
            rep = check_inequality(IncidenceInstance(
                "crossratio", point_set(q, inst["a"], dimension=2),
                point_set(q, inst["b"], dimension=2), inst["lam"]))
            worst = min(worst, rep.slack)
            assert rep.holds, (q, trial)
            checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and checked == 100 and worst >= 1.0 and elapsed < 60.0
    _verdict(capsys, 6, ok,
             f"pair caps exhaustive at q=7,11; min slack {worst:.3f} on "
             f"{checked} instances ({elapsed:.1f}s < 60s)")


def test_criterion_07_character_identities(capsys, draw):
    started = time.perf_counter()
    primes = (7, 11, 13)
    lift_ok = 0
    for trial in range(50):
        p = primes[trial % 3]
        rng = trial_rng(70, "lift", p, trial)
        family = matrix_family(p, rng.sample(enumerate_gl2(p),
                                             rng.randint(1, 25)))
        a = sorted(rng.sample(range(p), rng.randint(1, p)))
        b = sorted(rng.sample(range(p), rng.randint(1, p)))
        chi = make_character(p, rng.randrange(p - 1))
        res = projective_lift_check(chi, family, a, b,
                                    disk_weights(rng, a), disk_weights(rng, b))
        lift_ok += res.passed
    gauss_worst = 0.0
    for p in (7, 11, 13, 17):
        for index in range(1, p - 1):
            chi = make_character(p, index)
            for n in range(1, p):
                dev = abs(abs(kloosterman(chi, n, 0)) - math.sqrt(p))
                gauss_worst = max(gauss_worst, dev)
    dual_worst = 0.0
    for trial in range(12):
        p = primes[trial % 3]
        inst = draw(71, {"experiment": "bilinear", "q": p,
                         "trial": trial, "weights": "disk"})
        chi = make_character(p, inst["char_index"])
        via_table = bilinear_form(chi, inst["alpha"], inst["beta"])
        direct = bilinear_form_direct(chi, inst["alpha"], inst["beta"])
        rel = abs(via_table - direct) / max(abs(via_table), abs(direct), 1.0)
        dual_worst = max(dual_worst, rel)
    elapsed = time.perf_counter() - started
    ok = (lift_ok == 50 and gauss_worst < 1e-8 and dual_worst <= 1e-6
          and elapsed < 60.0)
    _verdict(capsys, 7, ok,
             f"lift 50/50, gauss dev {gauss_worst:.2e} < 1e-8, dual path "
             f"{dual_worst:.2e} <= 1e-6 ({elapsed:.1f}s < 60s)")


def test_criterion_08_energy_oracles(capsys):
    started = time.perf_counter()
    ambient = enumerate_gl2(5)
    t2k_ok = 0
    for trial in range(10):
        rng = trial_rng(80, "t2k", 5, trial)
        mats = rng.sample(ambient, rng.randint(1, 12))
        counts: dict = {}
        for g1 in mats:
            for g2 in mats:
                left = mat2_mul(g1, mat2_inv(g2, 5), 5)
                for g3 in mats:
                    for g4 in mats:
                        key = mat2_mul(left, mat2_mul(g3, mat2_inv(g4, 5), 5), 5)
                        counts[key] = counts.get(key, 0) + 1
        brute = sum(c * c for c in counts.values())
        t2k_ok += energy_t2k(matrix_family(5, mats), k=2) == brute
    mult_ok = 0
    for trial in range(20):
        rng = trial_rng(81, "mult", 13, trial)
        z = rng.sample(range(1, 13), rng.randint(1, 12))
        brute = sum(1 for z1 in z for z2 in z for z3 in z for z4 in z
                    if z1 * z2 % 13 == z3 * z4 % 13)
        mult_ok += mult_energy(z, 13) == brute
    subgroup_ok = all(
        mult_energy(sorted(gamma.elements), p) == len(gamma) ** 3
        for p in (7, 11, 13) for gamma in all_subgroups(p))
    elapsed = time.perf_counter() - started
    ok = (t2k_ok == 10 and mult_ok == 20 and subgroup_ok and elapsed < 60.0)
    _verdict(capsys, 8, ok,
             f"t2k {t2k_ok}/10, mult energy {mult_ok}/20, subgroup law exact "
             f"({elapsed:.1f}s < 60s)")


def test_criterion_09_zaremba(capsys):
    started = time.perf_counter()
    bounded = zaremba_set(7, 3)
    round_trips = 0
    total = 0
    for q in range(2, 501):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            total += 1
            round_trips += cf_value(cf_expand(a, q).quotients) == (a, q)
    witness = find_in_subgroup(1009, 5, quadratic_residues(1009))
    elapsed = time.perf_counter() - started
    ok = (bounded == {2, 3, 4, 5} and round_trips == total
          and witness.witness is not None and elapsed < 30.0)
    _verdict(capsys, 9, ok,
             f"bounded set exact, {round_trips}/{total} round-trips, witness "
             f"{witness.witness} in squares mod 1009 ({elapsed:.1f}s < 30s)")


def test_criterion_10_report_only_tables(capsys):
    tables = {
        "hyperbola": ("cancellation",),
        "intersection-charsum": ("comparison", "cancellation"),
        "zaremba": ("n_decay", "min_feasible_m", "lower_bound"),
        "energy": ("bound_rhs", "trivial_bound", "baseline", "within_bound"),
        "lift-energy": ("t2k_fg", "bound_rhs", "lhs_quarter", "slack_ratio"),
    }
    emitted = []
    ok = True
    for experiment, columns in tables.items():
        result = run(make_config(experiment=experiment, moduli=(7,), trials=2,
                                 seed=100))
        names = [name for name, _ in result.columns]
        trial_rows = [r for r in result.rows if r["row_kind"] == "trial"]
        ok = ok and all(col in names for col in columns) and trial_rows
        # report-only: the column must be populated, its value is not judged
        ok = ok and all(r[col] is not None for r in trial_rows
                        for col in columns)
        emitted.append(experiment)
    _verdict(capsys, 10, ok,
             "comparison tables emitted by " + ", ".join(emitted)
             + " (values excluded from pass/fail)")
