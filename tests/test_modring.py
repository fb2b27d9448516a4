"""Arithmetic layer: factorization, totients, characters, 2x2 matrices."""

import cmath
import math
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incidencelab import (
    Character,
    InvalidArgumentError,
    InvalidModulusError,
    TooLargeError,
    as_modulus,
    char_eval,
    coprime_tuples,
    dlog_table,
    factorize,
    inv_mod,
    is_prime,
    jordan_totient,
    make_character,
    mobius,
    primitive_root,
    units,
)
from incidencelab import modring
from incidencelab.modring import (
    TABLE_CAP,
    decode_labels,
    divide,
    mat2_det,
    mat2_inv,
    mat2_mul,
)

moduli = st.integers(min_value=2, max_value=200)
small_primes = st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23])


def brute_jordan(k, q):
    # Independent oracle: count k-tuples jointly coprime with q directly.
    return sum(1 for t in product(range(q), repeat=k) if math.gcd(*t, q) == 1)


def test_factorize_fields():
    m = factorize(12)
    assert m.q == 12
    assert m.factors == ((2, 2), (3, 1))
    assert m.least_prime == 2
    assert not m.is_prime
    assert factorize(13).is_prime
    assert int(m) == 12


def test_factorize_rejects_bad_input():
    for bad in (1, 0, -5):
        with pytest.raises(InvalidModulusError):
            factorize(bad)


@given(moduli)
def test_factorize_reconstructs(q):
    m = factorize(q)
    prod = 1
    for p, e in m.factors:
        assert is_prime(p)
        prod *= p**e
    assert prod == q


def _trial_division(n):
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    return tuple(factors + [(n, 1)] if n > 1 else factors)


def test_factorize_matches_trial_division_below_1e5():
    factor = factorize.__wrapped__  # uncached: 10^5 entries would stay in the cache
    for n in range(2, 10 ** 5):
        assert factor(n).factors == _trial_division(n), n


# Carmichael numbers (561, 41041), strong pseudoprimes to base 2 (2047) and to
# bases 2..7 (3215031751), a prime just past 2^32, a prime square past 2^60
# and the Mersenne prime 2^61 - 1.
@pytest.mark.parametrize("n, factors", [
    (561, ((3, 1), (11, 1), (17, 1))),
    (41041, ((7, 1), (11, 1), (13, 1), (41, 1))),
    (2047, ((23, 1), (89, 1))),
    (3215031751, ((151, 1), (751, 1), (28351, 1))),
    (4294967311, ((4294967311, 1),)),
    ((2 ** 31 - 1) ** 2, ((2 ** 31 - 1, 2),)),
    (2 ** 61 - 1, ((2 ** 61 - 1, 1),)),
    (3825123056546413051, ((149491, 1), (747451, 1), (34233211, 1))),
    ((10 ** 9 + 7) * (10 ** 9 + 9), ((10 ** 9 + 7, 1), (10 ** 9 + 9, 1))),
])
def test_factorize_hard_cases(n, factors):
    assert factorize.__wrapped__(n).factors == factors


def test_factorize_mersenne_61_is_fast():
    start = time.perf_counter()
    assert factorize.__wrapped__(2 ** 61 - 1).is_prime
    assert time.perf_counter() - start < 0.1


def test_factorize_refuses_a_cofactor_past_the_proven_bound():
    # 2^89 - 1 is prime and above 3.3 * 10^24, where the bases prove nothing
    with pytest.raises(TooLargeError, match="primality is proven only below"):
        factorize.__wrapped__(2 ** 89 - 1)


def test_as_modulus_idempotent():
    m = factorize(10)
    assert as_modulus(m) is m
    assert as_modulus(10) == m


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(31) if is_prime(n)} == primes


def test_jordan_totient_known_values():
    assert jordan_totient(2, 6) == 24
    assert jordan_totient(2, 5) == 24
    assert jordan_totient(2, 3) == 8
    assert jordan_totient(1, 12) == 4
    assert jordan_totient(3, 1) == 1


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=30))
def test_jordan_totient_matches_brute_count(k, q):
    assert jordan_totient(k, q) == brute_jordan(k, q)


def test_jordan_totient_rejects_bad_order():
    with pytest.raises(InvalidArgumentError):
        jordan_totient(0, 7)


@given(moduli, st.integers(min_value=0, max_value=500))
def test_inv_mod(q, a):
    got = inv_mod(a, q)
    if math.gcd(a, q) == 1:
        assert got is not None and a * got % q == 1
    else:
        assert got is None


def test_units():
    assert units(12) == (1, 5, 7, 11)
    assert units(7) == (1, 2, 3, 4, 5, 6)
    assert len(units(30)) == jordan_totient(1, 30)


def test_coprime_tuples_dimension_one_is_one_column():
    got = coprime_tuples(6, 1)
    assert got.shape == (2, 1) and got.dtype == np.int64
    assert got.tolist() == [[1], [5]]


def test_decode_labels_is_lexicographic_order():
    for q, width in [(2, 1), (3, 3), (7, 2)]:
        got = decode_labels(np.arange(q ** width), q, width)
        assert got.dtype == np.int64
        assert got.tolist() == [list(t) for t in product(range(q), repeat=width)]


def test_decode_labels_allocates_only_its_output():
    # The quotients are reduced in place: the output is the one array built.
    indices = np.arange(0, 10 ** 6, 10, dtype=np.int64)
    tracemalloc.start()
    try:
        got = decode_labels(indices, 10, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (10 ** 5, 6)
    assert peak <= 1.1 * got.nbytes
    assert got[12345].tolist() == [1, 2, 3, 4, 5, 0]


def test_divide_marks_non_unit_denominators():
    num, den = np.array([[1, 5, 3, 4]]), np.array([[5, 2, 0, 1]])
    assert divide(num, den, 6).tolist() == [[5, -1, -1, 4]]
    assert mobius((1, 0, 2, 0), np.array([0, 1, 3]), 6).tolist() == [-1, -1, -1]
    assert mobius((1, 1, 0, 1), np.array([0, 5]), 6).tolist() == [1, 0]


@pytest.mark.parametrize("q", [2, 6, 12, 30, 97, 194, 1009])
def test_inverse_table_matches_inv_mod(q):
    table = modring._inverse_table(q)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table.tolist() == [inv_mod(x, q) or -1 for x in range(q)]


# Three routes: the cached table, the lockstep inversion of distinct
# denominators past TABLE_CAP, and Python ints on object arrays.
@pytest.mark.parametrize("q", [2, 6, 12, 30, 97, 194, 1009])
def test_divide_routes_agree(q, monkeypatch):
    rng = np.random.default_rng(q)
    num = rng.integers(0, q, size=(7, 40))
    den = rng.integers(0, q, size=(7, 40))
    den[0, :3] = (0, 1, q - 1)
    want = [[n * inv_mod(d, q) % q if math.gcd(d, q) == 1 else -1
             for n, d in zip(nr, dr)] for nr, dr in zip(num.tolist(), den.tolist())]
    assert divide(num.copy(), den, q).tolist() == want
    assert divide(num.astype(object), den.astype(object), q).tolist() == want
    monkeypatch.setattr(modring, "TABLE_CAP", 1)
    assert divide(num.copy(), den, q).tolist() == want


@pytest.mark.parametrize("q", [5, 61, 2053])
def test_inverse_tables_match_their_pow_constructions(q):
    from incidencelab.incidence import _crossratio_table
    inverses = [0, *(pow(x, -1, q) for x in range(1, q))]
    assert modring._inverse_table(q).tolist() == [-1, *inverses[1:]]
    table = np.outer(np.arange(q, dtype=np.int64), np.array(inverses, dtype=np.int64))
    table %= q
    table[:, 0] = -1
    got = _crossratio_table(q)
    assert got.dtype == np.int32 and np.array_equal(got, table)


def test_invert_past_the_table_cap():
    for q in (2 ** 31 - 1, 2 ** 32 + 15, 3 * 5 * 2 ** 40, 2 ** 61 - 1):
        x = np.random.default_rng(q % 1000).integers(0, q, size=500, dtype=np.int64)
        x[:3] = (0, 1, q - 1)
        assert modring._invert(x, q).tolist() == [inv_mod(v, q) or -1 for v in x.tolist()]


def test_coprime_tuples_counts_match_jordan():
    for q, n in [(6, 2), (5, 2), (9, 2), (12, 3)]:
        assert len(coprime_tuples(q, n)) == jordan_totient(n, q)


def test_coprime_tuples_includes_noncoprime_components():
    # (2, 3) mod 6: neither entry is a unit, but jointly coprime with 6.
    assert [2, 3] in coprime_tuples(6, 2).tolist()
    assert [2, 4] not in coprime_tuples(6, 2).tolist()


def test_primitive_root_small():
    assert primitive_root(3) == 2
    assert primitive_root(7) == 3
    assert primitive_root(11) == 2
    assert primitive_root(23) == 5


@given(small_primes)
def test_primitive_root_generates(p):
    g = primitive_root(p)
    assert {pow(g, e, p) for e in range(p - 1)} == set(range(1, p))


def test_dlog_table():
    p = 11
    g = primitive_root(p)
    table = dlog_table(p)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table[0] == -1
    for x in range(1, p):
        assert pow(g, int(table[x]), p) == x


def test_dlog_table_rejects_non_generator():
    # 3 generates only the squares mod 11.
    with pytest.raises(InvalidArgumentError):
        dlog_table(11, 3)


@pytest.mark.parametrize("n", [TABLE_CAP + 1, 1_000_000_007])
def test_tables_refuse_a_modulus_above_the_cap_before_allocating(n):
    tracemalloc.start()
    try:
        for build in (dlog_table, modring._inverse_table, modring._roots, units):
            with pytest.raises(TooLargeError, match=f"exceed the table cap {TABLE_CAP}"):
                build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # a table of n entries would take at least 8n bytes


def test_importing_the_package_builds_no_table():
    code = ("import incidencelab.cli\n"
            "from incidencelab import modring\n"
            "print([f.cache_info().currsize for f in (modring._inverse_table, "
            "modring._roots, modring.dlog_table, modring._char_row)])\n")
    src = os.path.dirname(os.path.dirname(modring.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[0, 0, 0, 0]"


def test_character_orders_and_principal():
    p = 13
    chis = [make_character(p, k) for k in range(p - 1)]
    assert len(chis) == p - 1
    assert chis[0].is_principal
    assert not any(chi.is_principal for chi in chis[1:])
    for k, chi in enumerate(chis):
        # the least m with chi^m principal is (p - 1) / gcd(k, p - 1)
        on_units = chi.values()[1:]
        least = next(m for m in range(1, p) if np.allclose(on_units ** m, 1.0))
        assert least == (p - 1) // math.gcd(k, p - 1)
    with pytest.raises(InvalidArgumentError):
        make_character(13, 12)


@given(small_primes, st.data())
def test_character_is_multiplicative(p, data):
    idx = data.draw(st.integers(min_value=0, max_value=p - 2))
    chi = make_character(p, idx)
    x = data.draw(st.integers(min_value=1, max_value=p - 1))
    y = data.draw(st.integers(min_value=1, max_value=p - 1))
    assert cmath.isclose(chi(x * y), chi(x) * chi(y), abs_tol=1e-12)


def test_character_vanishes_at_zero():
    chi = make_character(7, 2)
    assert chi(0) == 0
    assert chi(7) == 0
    assert chi(14) == 0


def test_character_orthogonality():
    # Sum over the group is p - 1 for the principal character, 0 otherwise.
    p = 17
    for chi in (make_character(p, k) for k in range(p - 1)):
        total = sum(chi(x) for x in range(p))
        expected = p - 1 if chi.is_principal else 0
        assert abs(total - expected) < 1e-9


def test_character_values_matches_pointwise():
    chi = make_character(11, 3)
    vals = chi.values()
    for x in range(11):
        assert cmath.isclose(vals[x], char_eval(chi, x), abs_tol=1e-12)


def test_mat2_inverse_law():
    q = 7
    g = (1, 2, 3, 4)
    assert mat2_mul(g, mat2_inv(g, q), q) == (1, 0, 0, 1)
    assert mat2_det(g, q) == (4 - 6) % 7
    with pytest.raises(InvalidArgumentError):
        mat2_inv((1, 2, 2, 4), q)  # determinant 0
    # entrywise over arrays, one matrix per position
    q = 2 ** 31 - 1
    mats = np.random.default_rng(5).integers(0, q, size=(4, 50))
    got = np.array(mat2_inv(mats, q)).T.tolist()
    assert got == [list(mat2_inv(g, q)) for g in mats.T.tolist()]
    mats[:, 7] = (1, 2, 2, 4)
    with pytest.raises(InvalidArgumentError):
        mat2_inv(mats, q)


@given(small_primes, st.data())
def test_mobius_action_composes(p, data):
    ints = st.integers(min_value=0, max_value=p - 1)
    g = data.draw(st.tuples(ints, ints, ints, ints))
    h = data.draw(st.tuples(ints, ints, ints, ints))
    x = np.array([data.draw(ints)])
    inner = mobius(h, x, p)
    if inner[0] < 0:
        return
    outer = mobius(g, inner, p)
    combined = mobius(mat2_mul(g, h, p), x, p)
    if outer[0] >= 0 and combined[0] >= 0:
        assert outer[0] == combined[0]
