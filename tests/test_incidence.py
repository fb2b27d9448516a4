"""Incidence counts, exact main terms, bound evaluators, slack reports."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incidencelab import (
    Error,
    IncidenceInstance,
    InvalidArgumentError,
    InvalidLambdaError,
    InvalidModulusError,
    TooLargeError,
    build_matrix,
    check_inequality,
    coprime_tuples,
    count_crossratio,
    count_det,
    count_dot,
    crossratio_bound_rhs,
    crossratio_main_term,
    det_bound_rhs,
    det_main_term,
    dot_bound_rhs,
    dot_main_term,
    factorize,
    jordan_totient,
    mult_energy,
    point_set,
    second_eigenvalue_bound,
    theta,
)
from incidencelab import incidence
from incidencelab.incidence import value_blocks
from incidencelab.modring import decode_labels, divide, is_prime, mat2_mul, mobius


def leibniz_det(rows):
    d = len(rows)
    total = 0
    for perm in permutations(range(d)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(d) for j in range(i + 1, d) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        term = sign
        for i in range(d):
            term *= rows[i][perm[i]]
        total += term
    return total


def brute_count_dot(a, b, lam, q):
    total = 0
    for x in a:
        for y in b:
            xs = (x,) if a.dimension == 1 else x
            ys = (y,) if b.dimension == 1 else y
            if sum(u * v for u, v in zip(xs, ys)) % q == lam % q:
                total += 1
    return total


def full_coprime_set(q, n):
    return point_set(q, coprime_tuples(q, n), dimension=n)


# ---------------------------------------------------------------------------
# dot


def test_count_dot_full_q3():
    a = full_coprime_set(3, 2)
    assert len(a) == 8
    count = count_dot(a, a, 1)
    assert count == 24
    assert dot_main_term(8, 8, 3, 2) == 24


def test_count_dot_matches_brute_force():
    q = 7
    a = point_set(q, [(1, 2), (3, 4), (0, 1), (2, 5)])
    b = point_set(q, [(1, 1), (6, 2), (4, 0)])
    for lam in (1, 2, 3):
        assert count_dot(a, b, lam) == brute_count_dot(a, b, lam, q)


def test_a_modulus_is_one_int_everywhere():
    a = point_set(11, [(1, 2), (3, 4)])
    b = point_set(11, [(2, 1), (4, 3)])
    for holder in (a, build_matrix("dot", 11, 1), IncidenceInstance("dot", a, b, 1)):
        assert type(holder.q) is int and holder.q == 11
    mod = factorize(11)  # the factorization record, not a modulus
    for build in (lambda: point_set(mod, [(1, 2)]), lambda: build_matrix("dot", mod, 1),
                  lambda: mult_energy([1, 2], mod)):
        with pytest.raises(InvalidModulusError):
            build()


def count_values(kind, a, b, lam):
    """Pairs of A x B at which `kind`'s equation takes the value lam, read
    from value_blocks, so any target is allowed."""
    blocks = value_blocks(kind, a.labels, b.labels, a.q)
    return sum(int(np.count_nonzero(block == lam)) for block in blocks)


def test_count_dot_total_mass():
    # Summed over every target the count partitions A x B.
    q = 9
    a = full_coprime_set(q, 2)
    b = point_set(q, [(1, 2), (4, 7), (2, 2)])
    counts = [count_values("dot", a, b, lam) for lam in range(q)]
    assert sum(counts) == len(a) * len(b)
    for lam in (1, 2, 4, 5, 7, 8):
        assert counts[lam] == count_dot(a, b, lam)


def test_count_dot_rejects_non_unit_target():
    a = full_coprime_set(5, 2)
    with pytest.raises(InvalidLambdaError):
        count_dot(a, a, 0)
    with pytest.raises(InvalidLambdaError):
        count_dot(full_coprime_set(6, 2), full_coprime_set(6, 2), 3)


def test_count_dot_empty():
    a = full_coprime_set(5, 2)
    e = point_set(5, [], dimension=2)
    assert count_dot(a, e, 1) == 0


# Moduli where int64 products wrap (3^20, 2^32 + 15, 3^39) and one where
# they still fit (2^31 - 1); the counts must agree with Python ints.
_WIDE_MODULI = (2 ** 31 - 1, 3 ** 20, 2 ** 32 + 15, 3 ** 39)


@pytest.mark.parametrize("q", _WIDE_MODULI[:3])
def test_count_dot_exact_at_wide_moduli(q):
    a = point_set(q, [(q - 1, q - 1)])
    lam = 2 * (q - 1) ** 2 % q
    assert count_dot(a, a, lam) == brute_count_dot(a, a, lam, q) == 1


# a . cof(b) = 2 (q-1)^2, which is 2^63 at q = 2^31 + 1 and wraps in int64.
@pytest.mark.parametrize("q", (2 ** 31 - 1, 2 ** 31 + 1, 3 ** 39))
def test_count_det_exact_at_wide_moduli(q):
    a = point_set(q, [(q - 1, q - 1)])
    b = point_set(q, [(1, q - 1)])
    lam = ((q - 1) ** 2 - (q - 1)) % q
    assert count_det(a, b, lam) == 1


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_WIDE_MODULI), st.integers(2, 3), st.data())
def test_counts_match_python_ints_at_wide_moduli(q, n, data):
    coords = st.integers(0, q - 1)
    a = point_set(q, data.draw(st.lists(st.tuples(*[coords] * n), min_size=1,
                                        max_size=4, unique=True)))
    b = point_set(q, data.draw(st.lists(st.tuples(*[coords] * n), min_size=1,
                                        max_size=4, unique=True)))
    x, y = list(a)[0], list(b)[0]
    lam = sum(u * v for u, v in zip(x, y)) % q
    assert count_values("dot", a, b, lam) == brute_count_dot(a, b, lam, q)
    if n == 2 and (x[0] * y[1] - x[1] * y[0]) % q:
        lam = (x[0] * y[1] - x[1] * y[0]) % q
        brute = sum(1 for u in a for v in b
                    if (u[0] * v[1] - u[1] * v[0]) % q == lam)
        assert count_det(a, b, lam) == brute


def test_theta_values():
    assert theta(12, 4) == Fraction(35, 24)
    assert theta(5, 2) == 2           # tau(5)
    assert theta(12, 2) == 6          # tau(12)
    assert theta(7, 3) == Fraction(8, 7)
    with pytest.raises(InvalidArgumentError):
        theta(5, 1)


@given(st.integers(min_value=2, max_value=100))
def test_theta_n2_is_divisor_count(q):
    divisors = sum(1 for d in range(1, q + 1) if q % d == 0)
    assert theta(q, 2) == divisors


def test_dot_bound_rhs_value():
    # q = 5, n = 2: 2 * 5 * sqrt(ab) * (tau(5)/5)^(1/4).
    expected = 10.0 * math.sqrt(12.0) * (2.0 / 5.0) ** 0.25
    assert math.isclose(dot_bound_rhs(5, 2, 3, 4), expected, rel_tol=1e-12)


def test_second_eigenvalue_bound_value():
    expected = (3 * 5**4 / 5 * 2) ** 0.25  # 750^(1/4)
    assert math.isclose(second_eigenvalue_bound(5, 2), expected, rel_tol=1e-12)


def test_dot_main_term_exact():
    assert dot_main_term(3, 4, 6, 2) == Fraction(3 * 4 * 6, jordan_totient(2, 6))


# ---------------------------------------------------------------------------
# det


def test_det_arity():
    # A's d-vectors against B's flattened (d-1)-tuples of them
    pair, single = point_set(7, [(1, 2)]), point_set(7, [(1, 2, 3)])
    stacked = point_set(7, [(1, 2, 3, 4, 5, 6)])
    assert IncidenceInstance("det", pair, pair, 1).a.dimension == 2
    assert IncidenceInstance("det", single, stacked, 1).a.dimension == 3
    for a, b in [(pair, single),  # 2 + 3 = 5 is not a square
                 (stacked, single),  # two 3-vectors against one: d = 2
                 (point_set(7, [1]), point_set(7, [2]))]:  # d = 1: B would hold 0-vectors
        with pytest.raises(InvalidArgumentError, match=r"det instances need label widths"):
            IncidenceInstance("det", a, b, 1)


# Past the int64 bound d (q-1)^2 the kernel runs on Python ints: 2^31 + 1
# at d = 2 (2 (q-1)^2 = 2^63) and 3^20 at d = 3; 5 and 7 stay in int64.
_DET_MODULI = {2: (5, 2 ** 31 + 1, 3 ** 39), 3: (5, 7, 3 ** 20), 4: (3, 5, 2 ** 31 + 1)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(d, q) for d, moduli in _DET_MODULI.items() for q in moduli]),
       st.data())
def test_count_det_matches_leibniz_on_python_ints(case, data):
    d, q = case
    coords = st.integers(0, q - 1)
    a = data.draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=4,
                           unique=True))
    b = data.draw(st.lists(st.tuples(*[coords] * (d * (d - 1))), min_size=1,
                           max_size=4, unique=True))
    values = [leibniz_det([list(x)] + [list(y[k:k + d]) for k in range(0, len(y), d)]) % q
              for x in a for y in b]
    lam = data.draw(st.sampled_from([v for v in values if v] or [1]))
    count = count_det(point_set(q, a), point_set(q, b), lam)
    assert count == values.count(lam)


def test_value_blocks_reads_reduced_column_labels_in_place():
    # One row against 300,000 reduced int64 labels: the block of values takes
    # a third of the labels' bytes, and a copy of the labels would take all.
    q = 1009
    cols = np.random.default_rng(1).integers(0, q, size=(300_000, 3))
    rows = cols[:1]
    tracemalloc.start()
    try:
        blocks = list(value_blocks("dot", rows, cols, q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cols.nbytes // 2
    assert np.array_equal(np.concatenate(blocks)[0], cols @ rows[0] % q)


def test_value_blocks_stay_within_the_entry_budget(monkeypatch):
    monkeypatch.setattr(incidence, "_BLOCK_ENTRIES", 64)
    q = 11
    rows = np.array([(x, y) for x in range(q) for y in range(q)])
    for cols, most in ((rows[:20], 60), (rows, len(rows))):
        # 3 rows of 20 values per block; a row wider than the budget alone
        blocks = list(value_blocks("det", rows, cols, q))
        assert max(block.size for block in blocks) == most
        expected = [[(x[0] * y[1] - x[1] * y[0]) % q for y in cols.tolist()]
                    for x in rows.tolist()]
        assert np.concatenate(blocks).tolist() == expected


def test_count_det_full_q3():
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    a = point_set(3, vecs)
    assert count_det(a, a, 1) == 24


def test_count_det_matches_brute_force_d2():
    q = 5
    a = point_set(q, [(1, 2), (3, 1), (0, 4), (2, 2)])
    b = point_set(q, [(1, 0), (4, 3), (2, 1)])
    for lam in (1, 2, 4):
        brute = sum(
            1
            for x in a
            for y in b
            if (x[0] * y[1] - x[1] * y[0]) % q == lam
        )
        assert count_det(a, b, lam) == brute


def test_count_det_d3_block_path():
    # A holds single 3-vectors, B holds stacked pairs of 3-vectors.
    q = 3
    a = point_set(q, [(1, 0, 0), (0, 1, 2), (2, 2, 1)])
    b = point_set(q, [(0, 1, 0, 0, 0, 1), (1, 1, 0, 0, 1, 1)])
    for lam in (1, 2):
        brute = 0
        for va in a:
            for vb in b:
                rows = [list(va), list(vb[:3]), list(vb[3:])]
                if leibniz_det(rows) % q == lam:
                    brute += 1
        assert count_det(a, b, lam) == brute


def test_count_det_input_validation():
    a = point_set(9, [(1, 2)])
    with pytest.raises(InvalidLambdaError):
        count_det(a, a, 0)
    even = point_set(6, [(1, 2)])
    with pytest.raises(InvalidModulusError):
        count_det(even, even, 1)


def test_det_main_term_both_normalizations():
    terms = det_main_term(6, 8, 7)
    assert terms.per_modulus == Fraction(48, 7)
    assert terms.per_unit_group == Fraction(48, 6)


def test_det_bound_rhs_value():
    # d = 2: exponent 2 - 1/2 - 3/4 = 3/4.
    expected = 9 ** 0.75 * math.sqrt(10.0) + 10.0 / 81.0
    assert math.isclose(det_bound_rhs(9, 2, 2, 5), expected, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# crossratio


def _reference_cross_ratio(a, b, c, d, q):
    """[a, b, c, d] = (a-c)(b-d) / ((a-d)(b-c)) mod a prime q on Python ints,
    one pair at a time, or None when the denominator vanishes."""
    den = (a - d) * (b - c) % q
    if den == 0:
        return None
    return (a - c) * (b - d) * pow(den, -1, q) % q


def _crossratio_values(rows, cols, q):
    rows, cols = np.array(rows).reshape(-1, 2), np.array(cols).reshape(-1, 2)
    return np.concatenate(list(value_blocks("crossratio", rows, cols, q))).tolist()


def test_cross_ratio_known_values():
    # [0, 1, 2, 3] mod 7: (0-2)(1-3) / ((0-3)(1-2)) = 4/3 = 4 * 5 = 6 mod 7.
    assert _reference_cross_ratio(0, 1, 2, 3, 7) == 6
    assert _reference_cross_ratio(0, 1, 2, 0, 7) is None  # a = d
    assert _crossratio_values([(0, 1)], [(2, 3), (2, 0)], 7) == [[6, -1]]
    with pytest.raises(InvalidModulusError):
        count_crossratio(point_set(6, [(0, 1)]), point_set(6, [(2, 3)]), 2)


@given(st.sampled_from([5, 7, 11]), st.data())
def test_cross_ratio_is_mobius_invariant(p, data):
    ints = st.integers(min_value=0, max_value=p - 1)
    g = data.draw(st.tuples(ints, ints, ints, ints))
    if (g[0] * g[3] - g[1] * g[2]) % p == 0:
        return
    pts = data.draw(st.tuples(ints, ints, ints, ints))
    val = _reference_cross_ratio(*pts, p)
    images = tuple(mobius(g, np.array(pts), p).tolist())
    if val is None or -1 in images:
        return
    assert _reference_cross_ratio(*images, p) == val
    for x in (pts, images):
        assert _crossratio_values([x[:2]], [x[2:]], p) == [[val]]


def test_count_crossratio_matches_brute():
    q = 11
    a = point_set(q, [(0, 1), (2, 5), (3, 3), (7, 10)])
    b = point_set(q, [(1, 4), (6, 2), (8, 9)])
    for lam in (2, 5, 10):
        brute = sum(
            1
            for x in a
            for y in b
            if _reference_cross_ratio(x[0], x[1], y[0], y[1], q) == lam
        )
        assert count_crossratio(a, b, lam) == brute


# Both sides of 61, the largest q of the retired q^4 table, and of 2048, the
# largest q whose q x q quotient table fits the entry budget.
@pytest.mark.parametrize("q", (5, 7, 59, 61, 67, 101, 2053))
def test_crossratio_values_match_the_oracle(q):
    rng = random.Random(q)
    if q <= 7:  # every label against every label
        rows = cols = [(x, y) for x in range(q) for y in range(q)]
    else:
        rows = [(rng.randrange(q), rng.randrange(q)) for _ in range(40)]
        cols = [(rng.randrange(q), rng.randrange(q)) for _ in range(60)]
        # den = 0 at (a1, a2) against (a2, *) and (*, a1); num = 0 at (a1, *)
        cols += [(a2, rng.randrange(q)) for _, a2 in rows[:10]]
        cols += [(rng.randrange(q), a1) for a1, _ in rows[10:20]]
        cols += [(a1, rng.randrange(q)) for a1, _ in rows[20:30]]
    expected = [[_reference_cross_ratio(*x, *y, q) for y in cols] for x in rows]
    got = _crossratio_values(rows, cols, q)
    undefined = [(i, j) for i, row in enumerate(expected)
                 for j, v in enumerate(row) if v is None]
    assert undefined and all(got[i][j] == -1 for i, j in undefined)
    assert got == [[-1 if v is None else v for v in row] for row in expected]
    if q * q <= incidence._DENSE_ENTRIES:
        assert incidence._crossratio_table(q).shape == (q, q)


@pytest.mark.parametrize("q", (7, 13))
def test_crossratio_inverse_route_matches_the_table(monkeypatch, q):
    labels = [(x, y) for x in range(q) for y in range(q)]
    with_table = _crossratio_values(labels, labels, q)
    # a dense limit below q^2 takes the distinct-denominator route, and a
    # block budget below q^2 evaluates it in blocks of a few rows
    monkeypatch.setattr(incidence, "_DENSE_ENTRIES", q * q - 1)
    monkeypatch.setattr(incidence, "_BLOCK_ENTRIES", q * q - 1)
    assert _crossratio_values(labels, labels, q) == with_table


def test_count_crossratio_peak_memory():
    # The retired q^4 table alone took 53 MB at q = 61, built at a 458 MB peak.
    q = 61
    rng = random.Random(61)
    pairs = [(x, y) for x in range(q) for y in range(q)]
    a = point_set(q, rng.sample(pairs, 900))
    b = point_set(q, rng.sample(pairs, 900))
    incidence._crossratio_table.cache_clear()
    tracemalloc.start()
    try:
        count = count_crossratio(a, b, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count > 0
    assert peak < 64 * 2 ** 20


def test_count_crossratio_validation():
    a = point_set(7, [(0, 1)])
    with pytest.raises(InvalidLambdaError):
        count_crossratio(a, a, 0)
    with pytest.raises(InvalidLambdaError):
        count_crossratio(a, a, 1)
    c = point_set(9, [(0, 1)])
    with pytest.raises(InvalidModulusError):
        count_crossratio(c, c, 2)


def test_crossratio_terms():
    assert crossratio_main_term(3, 5, 7) == Fraction(15, 7)
    assert math.isclose(crossratio_bound_rhs(7, 3, 5),
                        4.0 * 7 ** 0.75 * math.sqrt(15.0), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the shared evaluation behind counts and matrices


def _brute_value(kind, x, y, q):
    if kind == "dot":
        return sum(u * v for u, v in zip(x, y)) % q
    if kind == "det":
        d = math.isqrt(len(x) + len(y))
        flat = x + y
        return leibniz_det([flat[k:k + d] for k in range(0, len(flat), d)]) % q
    return _reference_cross_ratio(*x, *y, q)


# (kind, q, lam, row label width, column label width, build_matrix kwargs):
# dot at composite moduli, det at d = 2 and d = 3 through the cofactor
# matmul, cross-ratio at a small and a larger prime.  The sampled families
# are counted through value_blocks; build_matrix runs on the full families.
_KERNEL_CASES = [
    ("dot", 12, 5, 2, 2, {}),
    ("dot", 9, 4, 3, 3, {"n": 3}),
    ("det", 9, 2, 2, 2, {}),
    ("det", 5, 3, 3, 6, {"n": 3, "cap": 10 ** 5}),
    ("crossratio", 13, 4, 2, 2, {}),
    ("crossratio", 67, 5, 2, 2, {}),
]


@pytest.mark.parametrize("kind, q, lam, row_width, col_width, kwargs", _KERNEL_CASES)
def test_matrix_sum_equals_count(kind, q, lam, row_width, col_width, kwargs):
    rng = random.Random(f"{kind}:{q}")

    def family(width, size):
        if kind == "dot":
            return sorted(rng.sample(list(map(tuple, coprime_tuples(q, width).tolist())), size))
        return sorted({tuple(rng.randrange(q) for _ in range(width))
                       for _ in range(size)})

    rows, cols = family(row_width, 30), family(col_width, 40)
    count = {"dot": count_dot, "det": count_det, "crossratio": count_crossratio}[kind]
    brute = sum(_brute_value(kind, x, y, q) == lam for x in rows for y in cols)
    assert brute > 0
    a, b = point_set(q, rows), point_set(q, cols)
    assert count_values(kind, a, b, lam) == count(a, b, lam) == brute

    mat = build_matrix(kind, q, lam, **kwargs)
    full_a = point_set(q, mat.row_index, dimension=row_width)
    full_b = point_set(q, mat.col_index, dimension=col_width)
    assert int(mat.entries.sum()) == count(full_a, full_b, lam)


# ---------------------------------------------------------------------------
# the counts against the value_blocks oracle


def _labels(rng, q, width, size, extra=()):
    """`size` random width-tuples mod q plus the `extra` ones, distinct."""
    out = set(extra)
    while len(out) < size + len(extra):
        out.add(tuple(rng.randrange(q) for _ in range(width)))
    return sorted(out)


# Composite q with non-unit targets: members a and v a of one scaling class
# have the targets lam / u and lam / (u v), which coincide when v lam = lam,
# as for v = 4 and lam = 3 at q = 9.  A holds the zero vector and vectors
# with no unit coordinate.
@pytest.mark.parametrize("q, d, lams", [
    (9, 2, range(1, 9)),
    (15, 2, (3, 5, 6, 10, 1, 7)),
    (9, 3, (3, 6, 1)),
    (7, 2, range(1, 7)),
])
def test_count_det_matches_the_oracle(q, d, lams):
    rng = random.Random(f"det:{q}:{d}")
    if d == 2:
        rows = [(x, y) for x in range(q) for y in range(q)]
    else:
        rows = _labels(rng, q, d, 60, [(0, 0, 0), (3, 0, 6), (6, 3, 3), (1, 0, 0)])
    cols = _labels(rng, q, d * (d - 1), 30)
    a, b = point_set(q, rows), point_set(q, cols)
    for lam in lams:
        assert count_det(a, b, lam) == count_values("det", a, b, lam), lam


# Labels with no unit coordinate: (2, 3) mod 6 and (3, 10) mod 15.
@pytest.mark.parametrize("q, n, extra", [
    (6, 1, ()), (6, 2, [(2, 3), (3, 2), (4, 3)]), (6, 3, [(2, 3, 0), (4, 0, 3)]),
    (15, 1, ()), (15, 2, [(3, 10), (6, 5), (10, 9)]), (15, 3, [(6, 10, 0), (3, 5, 10)]),
])
def test_count_dot_matches_the_oracle(q, n, extra):
    rng = random.Random(f"dot:{q}:{n}")
    pool = [t for t in map(tuple, coprime_tuples(q, n).tolist()) if t not in extra]
    rows = rng.sample(pool, min(len(pool), 150)) + list(extra)
    cols = rng.sample(pool, min(len(pool), 80)) + list(extra)
    a, b = point_set(q, rows, dimension=n), point_set(q, cols, dimension=n)
    for lam in (x for x in range(q) if math.gcd(x, q) == 1):
        assert count_dot(a, b, lam) == count_values("dot", a, b, lam), lam


# a1 = a2 in A, x = b1 equal to a1 or a2, rows of B sharing a first
# coordinate, q below |B| (11) and above it (101), and 2^32 + 15, a prime on
# the Python-int path where the targets are the values that occur.
@pytest.mark.parametrize("q, window", [(11, 11), (101, 101), (2 ** 32 + 15, 12)])
def test_count_crossratio_matches_the_oracle(q, window):
    rng = random.Random(f"crossratio:{q}")
    rows = _labels(rng, window, 2, 30, [(0, 0), (3, 3), (1, 4), (4, 1)])
    cols = _labels(rng, window, 2, 25, [(3, x) for x in range(0, window, 2)]
                   + [(1, 5), (4, 2), (4, 0), (4, 4), (1, 1)])
    a, b = point_set(q, rows), point_set(q, cols)
    lams = range(2, q)
    if incidence._dtype(2, q) is object:
        lams = sorted({v for block in value_blocks("crossratio", a.labels, b.labels, q)
                       for v in block.ravel().tolist()} - {-1, 0, 1})
    for lam in lams:
        assert count_crossratio(a, b, lam) == count_values("crossratio", a, b, lam), lam


# Each count has two routes: dense lookup tables while a table of
# classes * q (dot, det) or q^2 (cross-ratio) entries has at most
# _DENSE_ENTRIES, and a binary search in sorted keys beyond.  A dense limit
# below q forces the second, and a block budget below q splits it into
# several blocks.  Composite q, det targets that are no unit (3 mod 9,
# 6 mod 9), and A holding the zero vector and unit-free labels.
@pytest.mark.parametrize("kind, q, lam, width", [
    ("dot", 12, 5, 2), ("dot", 7, 3, 3),
    ("det", 9, 3, 2), ("det", 15, 7, 2), ("det", 9, 6, 3), ("det", 7, 2, 3),
    ("crossratio", 13, 4, 2), ("crossratio", 101, 7, 2),
])
@pytest.mark.parametrize("dense", (True, False))
def test_both_count_routes_match_brute_force(monkeypatch, kind, q, lam, width, dense):
    rng = random.Random(f"routes:{kind}:{q}:{width}")
    if kind == "dot":
        pool = list(map(tuple, coprime_tuples(q, width).tolist()))
        rows, cols = rng.sample(pool, 40), rng.sample(pool, 50)
    else:
        col_width = width * (width - 1) if kind == "det" else width
        rows = _labels(rng, q, width, 40, [(0,) * width, (3,) * width])
        cols = _labels(rng, q, col_width, 50)
    brute = sum(_brute_value(kind, x, y, q) == lam for x in rows for y in cols)
    assert brute > 0
    a, b = point_set(q, rows), point_set(q, cols)
    searches, searchsorted = [], np.searchsorted

    def spy(*args, **kwargs):
        searches.append(args)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    if not dense:
        monkeypatch.setattr(incidence, "_DENSE_ENTRIES", q - 1)
        monkeypatch.setattr(incidence, "_BLOCK_ENTRIES", q - 1)
    count = {"dot": count_dot, "det": count_det, "crossratio": count_crossratio}[kind]
    assert count(a, b, lam) == brute
    assert bool(searches) is not dense


# The block budget bounds temporaries only: every count and every value is
# the same at any budget.  67 columns exceed budgets 1 and 7, which yield one
# row per block, and no budget but 1 divides them into whole cofactor runs.
@pytest.mark.parametrize("kind, q, lam, width", [
    ("dot", 11, 3, 2), ("dot", 5, 2, 3),
    ("det", 11, 2, 2), ("det", 5, 3, 3), ("det", 3, 1, 4),
    ("crossratio", 13, 4, 2),
])
def test_counts_do_not_depend_on_the_block_size(monkeypatch, kind, q, lam, width):
    rng = random.Random(f"blocks:{kind}:{q}:{width}")
    if kind == "dot":
        pool = list(map(tuple, coprime_tuples(q, width).tolist()))
        rows, cols = sorted(rng.sample(pool, 40)), sorted(rng.sample(pool, 67))
    else:
        col_width = width * (width - 1) if kind == "det" else width
        rows = _labels(rng, q, width, 40)
        cols = _labels(rng, q, col_width, 67)
    values = [[_brute_value(kind, x, y, q) for y in cols] for x in rows]
    values = [[-1 if v is None else v for v in row] for row in values]
    brute = sum(row.count(lam) for row in values)
    assert brute > 0
    a, b = point_set(q, rows), point_set(q, cols)
    count = {"dot": count_dot, "det": count_det, "crossratio": count_crossratio}[kind]
    for budget in (1, 7, 64, incidence._BLOCK_ENTRIES):
        monkeypatch.setattr(incidence, "_BLOCK_ENTRIES", budget)
        blocks = list(value_blocks(kind, a.labels, b.labels, q))
        assert all(block.size <= max(budget, len(cols)) for block in blocks), budget
        if budget < len(cols):
            assert all(len(block) == 1 for block in blocks), budget
        assert np.concatenate(blocks).tolist() == values, budget
        assert count(a, b, lam) == brute, budget


def test_counts_evaluate_no_equation_pair_by_pair(monkeypatch):
    # |A| = 168 at q = 13, yet dot and det evaluate at most q + 1 scaled
    # representatives; cross-ratios solve for partners without value_blocks.
    q, rows_seen = 13, []
    oracle = incidence.value_blocks

    def spy(kind, rows, cols, q):
        rows_seen.append(len(rows))
        return oracle(kind, rows, cols, q)

    monkeypatch.setattr(incidence, "value_blocks", spy)
    nonzero = full_coprime_set(q, 2)
    assert len(nonzero) > q + 1
    assert count_dot(nonzero, nonzero, 1) == dot_main_term(len(nonzero), len(nonzero), q, 2)
    assert count_det(nonzero, nonzero, 1) == q * (q * q - 1)
    assert rows_seen and max(rows_seen) <= q + 1

    def refuse(*args):
        raise AssertionError("count_crossratio evaluated value_blocks")

    monkeypatch.setattr(incidence, "value_blocks", refuse)
    pairs = point_set(q, [(x, y) for x in range(q) for y in range(q)])
    assert count_crossratio(pairs, pairs, 2) > 0


# ---------------------------------------------------------------------------
# instances and reports


def test_instance_validation_dot():
    q = 6
    a = point_set(q, [(2, 3)])
    IncidenceInstance("dot", a, a, 1)
    with pytest.raises(InvalidLambdaError):
        IncidenceInstance("dot", a, a, 2)
    bad = point_set(q, [(2, 4)])
    with pytest.raises(InvalidArgumentError):
        IncidenceInstance("dot", bad, bad, 1)
    # the message names the least element that fails
    mixed = point_set(q, [(2, 3), (4, 2), (1, 1), (0, 3)])
    with pytest.raises(InvalidArgumentError, match=r"element \(0, 3\) is not"):
        IncidenceInstance("dot", a, mixed, 1)
    # labels past int64 are checked on Python ints
    wide = 3 ** 41
    IncidenceInstance("dot", point_set(wide, [(3, wide - 1)]), point_set(wide, [(1, 0)]), 1)
    with pytest.raises(InvalidArgumentError, match="not jointly coprime"):
        IncidenceInstance("dot", point_set(wide, [(3, wide - 3)]), point_set(wide, [(1, 0)]), 1)
    with pytest.raises(InvalidArgumentError):
        IncidenceInstance("norm", a, a, 1)


def test_instance_validation_det_and_crossratio():
    odd = point_set(9, [(1, 2)])
    IncidenceInstance("det", odd, odd, 2)
    even = point_set(6, [(1, 2)])
    with pytest.raises(InvalidModulusError):
        IncidenceInstance("det", even, even, 1)
    prime_pairs = point_set(7, [(0, 1)])
    IncidenceInstance("crossratio", prime_pairs, prime_pairs, 3)
    with pytest.raises(InvalidLambdaError):
        IncidenceInstance("crossratio", prime_pairs, prime_pairs, 8)  # 8 = 1 mod 7


def test_crossratio_instances_refuse_q_2():
    # mod 2 every target is 0 or 1, and both are degenerate
    pair = point_set(2, [(0, 1)])
    with pytest.raises(InvalidModulusError, match="odd prime q, got 2"):
        IncidenceInstance("crossratio", pair, pair, 1)


def _outcome(make):
    """(class, message) of the error `make()` raises, None when it raises none."""
    try:
        make()
    except Error as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("kind", ["dot", "crossratio", "det"])
def test_matrices_and_counts_read_one_target_rule(kind):
    # cap = 1 stops an admitted matrix at its size refusal, before any label
    # is built; (1, 0) is jointly coprime with every q
    for q in range(2, 31):
        point = point_set(q, [(1, 0)])
        for lam in range(q):
            matrix = _outcome(lambda: build_matrix(kind, q, lam, cap=1))
            instance = _outcome(lambda: IncidenceInstance(kind, point, point, lam))
            admitted = matrix[0] is TooLargeError
            if kind == "det":  # odd q and lam != 0 are hypotheses of the count only
                assert admitted
                assert (instance is None) == (q % 2 == 1 and lam != 0)
            elif admitted:
                assert instance is None
            else:
                assert instance == matrix


_COUNTS = {"dot": count_dot, "det": count_det, "crossratio": count_crossratio}
_PAIR7 = point_set(7, [(1, 2)])


@pytest.mark.parametrize("kind, a, b, lam", [
    ("dot", _PAIR7, point_set(11, [(1, 2)]), 1),
    ("det", _PAIR7, point_set(11, [(1, 2)]), 1),
    ("crossratio", _PAIR7, point_set(11, [(1, 2)]), 3),
    ("dot", _PAIR7, point_set(7, [(1, 2, 3)]), 1),
    ("det", _PAIR7, point_set(7, [(1, 2, 3)]), 1),
    ("crossratio", _PAIR7, point_set(7, [(1, 2, 3)]), 3),
    ("det", point_set(6, [(1, 2)]), point_set(6, [(1, 2)]), 1),
    ("crossratio", point_set(9, [(1, 2)]), point_set(9, [(1, 2)]), 2),
    ("dot", _PAIR7, _PAIR7, 0),
    ("det", _PAIR7, _PAIR7, 0),
    ("crossratio", _PAIR7, _PAIR7, 0),
    ("crossratio", _PAIR7, _PAIR7, 1),
    ("dot", point_set(6, [(2, 4)]), point_set(6, [(1, 1)]), 1),
], ids=["dot-moduli", "det-moduli", "crossratio-moduli", "dot-dimension",
        "det-dimension", "crossratio-dimension", "det-even-q", "crossratio-composite-q",
        "dot-lam-0", "det-lam-0", "crossratio-lam-0", "crossratio-lam-1",
        "dot-not-coprime"])
def test_counts_refuse_what_the_instance_refuses(kind, a, b, lam):
    with pytest.raises(Error) as refused:
        IncidenceInstance(kind, a, b, lam)
    with pytest.raises(Error) as counted:
        _COUNTS[kind](a, b, lam)
    assert counted.type is refused.type


def test_hypothesis_warnings():
    a = full_coprime_set(3, 2)
    inst = IncidenceInstance("dot", a, a, 1)
    assert any("least prime" in w for w in inst.hypothesis_warnings())
    b = full_coprime_set(7, 2)
    assert IncidenceInstance("dot", b, b, 1).hypothesis_warnings() == ()
    d = point_set(9, [(1, 2)])
    assert any("not prime" in w
               for w in IncidenceInstance("det", d, d, 1).hypothesis_warnings())


def test_check_inequality_dot_full_set():
    a = full_coprime_set(5, 2)
    rep = check_inequality(IncidenceInstance("dot", a, a, 1))
    assert rep.kind == "dot"
    assert rep.count == len(a) ** 2 * 5 // jordan_totient(2, 5)
    assert rep.error_lhs == 0
    assert rep.slack == float("inf")
    assert rep.holds


def test_check_inequality_det_extras():
    vecs = [(x, y) for x in range(5) for y in range(5) if (x, y) != (0, 0)]
    a = point_set(5, vecs)
    rep = check_inequality(IncidenceInstance("det", a, a, 1))
    assert rep.extras["better_fit"] in ("per_modulus", "per_unit_group", "tie")
    assert "main_per_unit_group" in rep.extras
    # Full nonzero sets give one copy of the fixed-determinant matrix count
    # per unit target: q (q^2 - 1).
    assert rep.count == 5 * (5 ** 2 - 1)
    assert rep.extras["main_per_unit_group"] == Fraction(len(a) ** 2, 4)


def test_check_inequality_error_scaling():
    # The det error carries the stated 1/8 prefactor.
    a = point_set(5, [(1, 2), (3, 1)])
    rep = check_inequality(IncidenceInstance("det", a, a, 2))
    raw_dev = abs(Fraction(rep.count) - rep.main_term)
    assert rep.error_lhs == Fraction(1, 8) * raw_dev


# ---------------------------------------------------------------------------
# both sides of the int64 / Python-int switch


# (label width, q): the primes next to the last q at which `_dtype` keeps a
# width's arithmetic in int64, width (q - 1)^2 < 2^63, on either side of it,
# and the least prime above 2^63, where even labels are Python ints.
_SWITCH_CASES = [
    (1, 3037000493), (1, 3037000507),
    (2, 2147483647), (2, 2147483659),
    (3, 1753413037), (3, 1753413059),
    (1, 2 ** 63 + 29), (2, 2 ** 63 + 29), (3, 2 ** 63 + 29),
]


@pytest.mark.parametrize("width, q", _SWITCH_CASES)
def test_kernels_match_python_ints_at_the_int64_switch(width, q):
    top = 1 + math.isqrt((2 ** 63 - 1) // width)  # the last q kept in int64
    dtype = incidence._dtype(width, q)
    assert (dtype is np.int64) == (q <= top)
    gap = range(q + 1, top + 1) if q <= top else range(max(top + 1, 2 ** 63), q)
    assert not any(map(is_prime, gap))  # no prime lies nearer the switch

    rng = random.Random(f"switch:{width}:{q}")

    def family(w, size):
        return _labels(rng, q, w, size, [(q - 1,) * w, (1,) * w])

    kinds = [("dot", width, width), ("crossratio", 2, 2)]
    if width > 1:
        kinds.append(("det", width, width * (width - 1)))
    count = {"dot": count_dot, "det": count_det, "crossratio": count_crossratio}
    for kind, row_width, col_width in kinds:
        rows, cols = family(row_width, 5), family(col_width, 4)
        if kind == "crossratio":  # a column sharing a row's coordinates
            cols = sorted(set(cols) | {(rows[0][0], rows[1][1])})
        want = [[_brute_value(kind, x, y, q) for y in cols] for x in rows]
        want = [[-1 if v is None else v for v in row] for row in want]
        a, b = point_set(q, rows), point_set(q, cols)
        got = np.concatenate(list(value_blocks(kind, a.labels, b.labels, q)))
        assert got.tolist() == want, kind
        values = {v for row in want for v in row} - {-1, 0, 1}
        for lam in sorted(values | {q - 1}):
            assert count[kind](a, b, lam) == sum(row.count(lam) for row in want), kind

    num = [rng.randrange(q) for _ in range(8)] + [q - 1, 0, 1, q - 1]
    den = [rng.randrange(q) for _ in range(8)] + [q - 1, q - 1, 0, 1]
    want = [n * pow(d, -1, q) % q if d else -1 for n, d in zip(num, den)]
    got = divide(np.array(num, dtype=dtype), np.array(den, dtype=dtype), q)
    assert got.tolist() == want

    g = (q - 1, rng.randrange(q), rng.randrange(1, q), q - 2)
    pole = -g[3] * pow(g[2], -1, q) % q  # where c x + d vanishes
    xs = [0, 1, q - 1, pole] + [rng.randrange(q) for _ in range(8)]
    want = [(g[0] * x + g[1]) * pow((g[2] * x + g[3]) % q, -1, q) % q
            if x != pole else -1 for x in xs]
    assert mobius(g, np.array(xs, dtype=dtype), q).tolist() == want

    for w in (w for w in (1, 2, 3) if q ** w < 2 ** 63):  # int64 indices only
        idx = [0, 1, q ** w - 1] + [rng.randrange(q ** w) for _ in range(8)]
        want = [[i // q ** (w - 1 - k) % q for k in range(w)] for i in idx]
        assert decode_labels(np.array(idx, dtype=np.int64), q, w).tolist() == want
