"""Kloosterman sums, bilinear forms, hyperbola and group-twisted sums,
and multiplicative energies of matrix families."""

import cmath
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incidencelab import (
    InvalidArgumentError,
    TooLargeError,
    bilinear_form,
    bilinear_form_direct,
    energy_t2k,
    enumerate_gl2,
    gl2_order,
    group_twisted_sum,
    hyperbola_group,
    hyperbola_sum,
    intersection_char_sum,
    kloosterman,
    make_character,
    matrix_family,
    projective_lift_check,
    twisted_bound_rhs,
    unrank_gl2,
)
from incidencelab import charsums, modring
from incidencelab.modring import (
    TABLE_CAP,
    dlog_table,
    is_prime,
    mat2_det,
    mat2_inv,
    mat2_mul,
)


def chi_at(chi, x):
    """chi(x), read from the character row every sum reads."""
    return complex(modring._char_row(chi.p, chi.index)[x % chi.p])


def brute_hyperbola(chi, aa, bb, xx, yy, wa, wb):
    p = chi.p
    total = 0j
    for a in aa:
        for x in xx:
            for b in bb:
                for y in yy:
                    if (a + x) * (b + y) % p == 1:
                        total += wa[a] * wb[b] * chi_at(chi, a + x)
    return total


def random_disk_weights(rng, elems):
    out = {}
    for e in elems:
        r = math.sqrt(rng.random())
        t = 2.0 * math.pi * rng.random()
        out[e] = r * cmath.exp(1j * t)
    return out


# ---------------------------------------------------------------------------
# per-term oracles: each character value and each inverse computed on its
# own with cmath.exp and pow, the way the sums did before they read the
# lookup tables, in the same order, so the sums must agree bit for bit


def per_term_char(chi, x):
    x %= chi.p
    if x == 0:
        return 0j
    m = chi.p - 1
    e = int(dlog_table(chi.p)[x])
    return cmath.exp(2j * math.pi * ((chi.index * e) % m) / m)


def per_term_kloosterman(chi, n, m):
    p = chi.p
    n %= p
    m %= p
    total = 0j
    for x in range(1, p):
        phase = (n * x + m * pow(x, p - 2, p)) % p
        total += per_term_char(chi, x) * cmath.exp(2j * math.pi * phase / p)
    return total


def per_term_hyperbola(chi, aa, bb, xx, yy, wa, wb):
    p = chi.p
    inner_cache = {}
    total = 0j
    for a in aa:
        for x in xx:
            s = (a + x) % p
            if s == 0:
                continue
            t = pow(s, p - 2, p)
            inner = inner_cache.get(t)
            if inner is None:
                inner = sum((wb[b] for b in bb if (t - b) % p in yy), 0j)
                inner_cache[t] = inner
            total += wa[a] * per_term_char(chi, s) * inner
    return total


def per_term_group_twisted(chi, family, aa, wa, wb):
    p = family.p
    total = 0j
    for alpha, beta, gamma, delta in family.elements.tolist():
        for a in aa:
            den = (gamma * a + delta) % p
            if den == 0:
                continue
            b = (alpha * a + beta) * pow(den, p - 2, p) % p
            if b in wb:
                total += wa[a] * wb[b] * per_term_char(chi, den)
    return total


def per_term_intersection(chi, aa, variant):
    p = chi.p
    units = [a for a in aa if a % p]
    inv = {pow(a, p - 2, p) for a in units}
    if variant == "multiplicative":
        target = set(units) & inv
    else:
        target = inv & {(x + 1) % p for x in inv}
    return sum((per_term_char(chi, x) for x in sorted(target)), 0j)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_char_eval_is_bit_identical_to_the_per_term_formula(p):
    for chi in (make_character(p, k) for k in range(p - 1)):
        assert [chi_at(chi, x) for x in range(p)] == [
            per_term_char(chi, x) for x in range(p)]


@pytest.mark.parametrize("p", [5, 7, 11])
def test_kloosterman_is_bit_identical_to_the_per_term_sum(p):
    for chi in (make_character(p, k) for k in range(p - 1)):
        pairs = list(product(range(p), repeat=2))
        assert [kloosterman(chi, n, m) for n, m in pairs] == [
            per_term_kloosterman(chi, n, m) for n, m in pairs]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_twisted_sums_are_bit_identical_to_the_per_term_sums(seed):
    rng = random.Random(seed)
    p = rng.choice([11, 13, 53])
    chi = make_character(p, rng.randrange(p - 1))
    aa, bb, xx, yy = (sorted(rng.sample(range(p), rng.randint(1, p))) for _ in range(4))
    wa, wb = random_disk_weights(rng, aa), random_disk_weights(rng, bb)
    assert hyperbola_sum(chi, aa, bb, xx, yy, wa, wb).value == per_term_hyperbola(
        chi, aa, bb, xx, set(yy), wa, wb)
    family = matrix_family(p, [g for g in (tuple(rng.randrange(p) for _ in range(4))
                                           for _ in range(30)) if mat2_det(g, p)])
    assert group_twisted_sum(chi, family, aa, bb, wa, wb) == per_term_group_twisted(
        chi, family, aa, wa, wb)
    for variant in ("multiplicative", "shifted"):
        assert intersection_char_sum(chi, aa, variant).value == per_term_intersection(
            chi, aa, variant)


# ---------------------------------------------------------------------------
# the per-term loops the array kernels replaced, reading the same tables:
# every kernel must give their bits.  An inner sum that the loops wrote as
# sum(..., 0j) is spelled out as `total += t`, which is what sum() does on
# Python 3.10 and 3.11.


def bits(z):
    return z.real.hex(), z.imag.hex()


def loop_weights(weights, elems):
    return {e: complex((weights or {}).get(e, 1.0)) for e in elems}


def loop_kloosterman(chi, n, m):
    p = chi.p
    n %= p
    m %= p
    inv = modring._inverse_table(p).tolist()
    e_p = modring._roots(p).tolist()
    chi_of = modring._char_row(p, chi.index).tolist()
    total = 0j
    for x in range(1, p):
        total += chi_of[x] * e_p[(n * x + m * inv[x]) % p]
    return total


def loop_bilinear_direct(chi, alpha, beta):
    p = chi.p
    a = np.asarray(alpha, dtype=complex)
    b = np.asarray(beta, dtype=complex)
    total = 0j
    for n in range(p):
        if a[n] == 0:
            continue
        for m in range(p):
            if b[m] == 0:
                continue
            total += a[n] * b[m] * loop_kloosterman(chi, n, m)
    return total


def loop_hyperbola(chi, aa, bb, xx, yy, c_a, c_b):
    p = chi.p
    wa, wb = loop_weights(c_a, aa), loop_weights(c_b, bb)
    y_lookup = set(yy)
    inv = modring._inverse_table(p).tolist()
    chi_of = modring._char_row(p, chi.index).tolist()
    inner_cache = {}
    total = 0j
    for a in aa:
        for x in xx:
            s = (a + x) % p
            if s == 0:
                continue
            t = inv[s]
            inner = inner_cache.get(t)
            if inner is None:
                inner = 0j
                for b in bb:
                    if (t - b) % p in y_lookup:
                        inner += wb[b]
                inner_cache[t] = inner
            total += wa[a] * chi_of[s] * inner
    return total


def loop_group_twisted(chi, family, aa, bb, c_a, c_b):
    p = family.p
    wa, wb = loop_weights(c_a, aa), loop_weights(c_b, bb)
    b_lookup = set(bb)
    inv = modring._inverse_table(p).tolist()
    chi_of = modring._char_row(p, chi.index).tolist()
    total = 0j
    for g in family.elements.tolist():
        alpha, beta, gamma, delta = g
        for a in aa:
            den = (gamma * a + delta) % p
            if den == 0:
                continue
            b = (alpha * a + beta) * inv[den] % p
            if b in b_lookup:
                total += wa[a] * wb[b] * chi_of[den]
    return total


def loop_lifted(chi, family, aa, bb, c_a, c_b):
    p = family.p
    wa, wb = loop_weights(c_a, aa), loop_weights(c_b, bb)
    chi_of = modring._char_row(p, chi.index).tolist()
    support_a = []
    for a in aa:
        for lam in range(1, p):
            support_a.append((lam * a % p, lam, wa[a] * chi_of[lam].conjugate()))
    lift_b = np.zeros((p, p), dtype=complex)
    for b in bb:
        for mu in range(1, p):
            lift_b[mu * b % p, mu] = wb[b] * chi_of[mu]
    lifted = 0j
    for g in family.elements.tolist():
        alpha, beta, gamma, delta = g
        for x1, x2, val in support_a:
            y1 = (alpha * x1 + beta * x2) % p
            y2 = (gamma * x1 + delta * x2) % p
            lifted += val * lift_b[y1, y2]
    return lifted


def loop_intersection(chi, aa, variant):
    p = chi.p
    units = [a for a in aa if a % p != 0]
    inverses = modring._inverse_table(p).tolist()
    inv = {inverses[a] for a in units}
    if variant == "multiplicative":
        target = set(units) & inv
    else:
        target = inv & {(x + 1) % p for x in inv}
    chi_of = modring._char_row(p, chi.index).tolist()
    total = 0j
    for x in sorted(target):
        total += chi_of[x]
    return total


def loop_matrix_family(p, mats):
    reduced = set()
    for g in mats:
        if len(g) != 4:
            raise InvalidArgumentError(f"expected flat (a, b, c, d) tuples, got {g!r}")
        a, b, c, d = (int(v) % p for v in g)
        if (a * d - b * c) % p == 0:
            raise InvalidArgumentError(f"matrix {g!r} is singular mod {p}")
        reduced.add((a, b, c, d))
    return tuple(sorted(reduced))


# weights with signed-zero parts next to random ones of the unit disk
_EDGE_WEIGHTS = (1.0, -1.0, 1j, complex(-0.0, 0.5), complex(0.25, -0.0),
                 complex(-0.0, -0.0), complex(-1.0, -0.0), complex(0.0, -1.0))


def random_weights(rng, elems):
    out = {}
    for e in elems:
        if rng.random() < 0.3:
            out[e] = rng.choice(_EDGE_WEIGHTS)
        elif rng.random() < 0.8:
            out[e] = random_disk_weights(rng, [e])[e]
    return out


def assert_kernels_match_loops(chi, family, aa, bb, xx, yy, wa, wb, alpha, beta):
    assert bits(kloosterman(chi, len(aa), len(bb) - 1)) == bits(
        loop_kloosterman(chi, len(aa), len(bb) - 1))
    got, want = bilinear_form_direct(chi, alpha, beta), loop_bilinear_direct(chi, alpha, beta)
    assert type(got) is type(want) and bits(got) == bits(want)
    got = hyperbola_sum(chi, aa, bb, xx, yy, wa, wb).value
    assert type(got) is complex and bits(got) == bits(
        loop_hyperbola(chi, aa, bb, xx, yy, wa, wb))
    got = group_twisted_sum(chi, family, aa, bb, wa, wb)
    assert type(got) is complex and bits(got) == bits(
        loop_group_twisted(chi, family, aa, bb, wa, wb))
    lift = projective_lift_check(chi, family, aa, bb, wa, wb)
    want = loop_lifted(chi, family, aa, bb, wa, wb)
    assert type(lift.lifted) is type(want) and bits(lift.lifted) == bits(want)
    assert type(lift.residual) is type(abs(want - lift.affine_scaled))
    for variant in ("multiplicative", "shifted"):
        got = intersection_char_sum(chi, aa, variant).value
        assert type(got) is complex and bits(got) == bits(loop_intersection(chi, aa, variant))


@pytest.mark.parametrize("block", [1, 3, 7, charsums._BLOCK_PAIRS])
@pytest.mark.parametrize("seed", range(8))
def test_sum_kernels_give_the_bits_of_the_per_term_loops(seed, block):
    # a block of 1, 3 or 7 terms carries each running total across many
    # block edges, in the middle of rows as well as between them
    rng = random.Random(seed)
    p = rng.choice([3, 5, 7, 11, 13])  # the library has no characters mod 2
    chi = make_character(p, rng.randrange(p - 1))
    aa, bb, xx, yy = (sorted(rng.sample(range(p), rng.randint(0, p))) for _ in range(4))
    wa, wb = random_weights(rng, aa), random_weights(rng, bb)
    alpha, beta = np.zeros(p, dtype=complex), np.zeros(p, dtype=complex)
    for vec in (alpha, beta):
        for n, w in random_weights(rng, rng.sample(range(p), rng.randint(0, p))).items():
            vec[n] = w
    gl2 = enumerate_gl2(p)
    family = matrix_family(p, rng.sample(gl2, min(len(gl2), rng.randint(0, 12))))
    with patch.object(charsums, "_BLOCK_PAIRS", block):
        assert_kernels_match_loops(chi, family, aa, bb, xx, yy, wa, wb, alpha, beta)


@pytest.mark.parametrize("seed", range(3))
def test_sum_kernels_give_the_bits_of_the_loops_at_p53(seed):
    rng = random.Random(100 + seed)
    p = 53
    chi = make_character(p, rng.randrange(p - 1))
    aa, bb, xx, yy = (sorted(rng.sample(range(p), rng.randint(1, 30))) for _ in range(4))
    wa, wb = random_weights(rng, aa), random_weights(rng, bb)
    alpha, beta = np.zeros(p, dtype=complex), np.zeros(p, dtype=complex)
    alpha[rng.sample(range(p), 20)] = 0.5 - 0.25j
    beta[rng.sample(range(p), 9)] = complex(-0.0, 1.0)
    family = matrix_family(p, [g for g in (tuple(rng.randrange(p) for _ in range(4))
                                           for _ in range(30)) if mat2_det(g, p)])
    assert_kernels_match_loops(chi, family, aa, bb, xx, yy, wa, wb, alpha, beta)


def test_sum_kernels_on_empty_supports():
    chi = make_character(7, 2)
    empty = matrix_family(7, [])
    some = matrix_family(7, [(1, 1, 0, 1)])
    zeros, ones = np.zeros(7, dtype=complex), np.ones(7, dtype=complex)
    for family, aa, bb in ((empty, [1, 2], [3]), (some, [], [3]), (some, [1, 2], [])):
        assert_kernels_match_loops(chi, family, aa, bb, aa, bb, None, None, zeros, ones)
        assert_kernels_match_loops(chi, family, aa, bb, [], bb, None, None, ones, zeros)
        # both routes are exactly 0, and so is the tolerance
        lift = projective_lift_check(chi, family, aa, bb)
        assert lift.residual == lift.tolerance == 0.0 and lift.passed
    assert type(bilinear_form_direct(chi, zeros, ones)) is complex
    assert type(projective_lift_check(chi, empty, [1], [2]).lifted) is complex


def test_sums_start_from_plus_zero():
    # one term (-1, -0.0): 0j + t has imaginary part +0.0, where a sum
    # seeded with its first term would keep -0.0
    chi = make_character(7, 0)
    family = matrix_family(7, [(1, 0, 0, 1)])
    weight = {3: complex(-1.0, -0.0)}
    for got in (group_twisted_sum(chi, family, [3], [3], weight),
                hyperbola_sum(chi, [3], [1], [0], [4], weight).value,
                charsums._sum_blocks([(np.array([-1.0]), np.array([-0.0]))])):
        assert bits(got) == bits(0j + complex(-1.0, -0.0)) == ("-0x1.0000000000000p+0", "0x0.0p+0")
    assert bits(loop_group_twisted(chi, family, [3], [3], weight, None)) == bits(
        group_twisted_sum(chi, family, [3], [3], weight))


def test_kloosterman_past_one_block():
    p = next(q for q in range(charsums._BLOCK_PAIRS + 2, 17000) if is_prime(q))
    chi = make_character(p, 5)
    assert bits(kloosterman(chi, 3, p - 7)) == bits(loop_kloosterman(chi, 3, p - 7))


def test_product_helper_is_the_python_complex_product():
    rng = np.random.default_rng(11)
    size = 10 ** 5
    parts = rng.normal(size=(4, size)) * 10.0 ** rng.integers(-8, 9, size=(4, size))
    zero = rng.random((4, size)) < 0.1
    parts[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    re, im = charsums._product(*parts)
    want = [complex(ar, ai) * complex(br, bi) for ar, ai, br, bi in parts.T.tolist()]
    assert np.array_equal(re.view(np.int64), np.array([w.real for w in want]).view(np.int64))
    assert np.array_equal(im.view(np.int64), np.array([w.imag for w in want]).view(np.int64))


@pytest.mark.parametrize("p", [2, 3, 101, 2 ** 31 - 1, 2 ** 61 - 1])
def test_matrix_family_matches_the_loop(p):
    if p >= 2 ** 31:  # determinants of residues would overflow int64
        with pytest.raises(TooLargeError, match="2\\^31"):
            matrix_family(p, [(1, 0, 0, 1)])
        return
    rng = random.Random(p)
    for _ in range(30):
        mats = [tuple(rng.randrange(-10 ** 20, 10 ** 20) for _ in range(4))
                for _ in range(rng.randint(0, 12))]
        mats += rng.sample(mats, len(mats) // 3)  # repeats
        if mats and rng.random() < 0.3:
            mats.insert(rng.randrange(len(mats)), (2, 4, 1, 2))  # singular
        if mats and rng.random() < 0.3:
            mats.insert(rng.randrange(len(mats)), (1, 0, 1))
        try:
            want = loop_matrix_family(p, mats)
        except InvalidArgumentError as err:
            with pytest.raises(InvalidArgumentError, match=re.escape(str(err))):
                matrix_family(p, mats)
            continue
        got = matrix_family(p, iter(mats)).elements
        assert got.tolist() == [list(g) for g in want]


# ---------------------------------------------------------------------------
# families and weighted sets


def test_family_elements_are_one_read_only_int64_array():
    for fam in (matrix_family(7, [(3, 1, 0, 2), (1, 1, 0, 1), (10, 1, 7, 1)]),
                matrix_family(7, []), hyperbola_group(7, [0, 4], [0, 2, 5])):
        elements = fam.elements
        assert elements.dtype == np.int64 and elements.shape == (len(fam), 4)
        assert not elements.flags.writeable
        with pytest.raises(ValueError):
            elements[..., 0] = 1
    assert matrix_family(7, [(3, 1, 0, 2), (1, 1, 0, 1), (10, 1, 7, 1)]).elements.tolist() == [
        [1, 1, 0, 1], [3, 1, 0, 1], [3, 1, 0, 2]]


def test_matrix_family_validation():
    fam = matrix_family(5, [(6, 1, 0, 1), (1, 1, 0, 1)])
    assert len(fam) == 1  # (6,1,0,1) reduces to (1,1,0,1)
    with pytest.raises(InvalidArgumentError):
        matrix_family(6, [(1, 0, 0, 1)])
    with pytest.raises(InvalidArgumentError):
        matrix_family(5, [(1, 2, 2, 4)])  # singular
    with pytest.raises(InvalidArgumentError):
        matrix_family(5, [(1, 2, 3)])


def test_enumerate_gl2_size():
    got = enumerate_gl2(5)
    assert len(got) == (25 - 1) * (25 - 5)
    assert all(mat2_det(g, 5) != 0 for g in got[:50])
    with pytest.raises(InvalidArgumentError):
        enumerate_gl2(6)
    with pytest.raises(TooLargeError):
        enumerate_gl2(59)  # 59^4 candidates exceed DEFAULT_CONVOLUTION_CAP


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_unrank_gl2_decodes_the_enumeration(p):
    gl2 = enumerate_gl2(p)
    assert gl2_order(p) == len(gl2)
    assert [unrank_gl2(p, i) for i in range(len(gl2))] == list(gl2)
    for index in (-1, len(gl2)):
        with pytest.raises(InvalidArgumentError, match="elements, got index"):
            unrank_gl2(p, index)


# ---------------------------------------------------------------------------
# Kloosterman sums


def test_gauss_law():
    # A pure n-twist of a non-principal character has magnitude exactly sqrt(p).
    for p in (7, 11, 13):
        for idx in (1, 2, (p - 1) // 2):
            chi = make_character(p, idx)
            for n in (1, 2, p - 1):
                assert abs(abs(kloosterman(chi, n, 0)) - math.sqrt(p)) < 1e-9


def test_weil_bound_exhaustive():
    for p in (7, 11):
        cap = 2.0 * math.sqrt(p)
        for chi in (make_character(p, k) for k in range(p - 1)):
            for n in range(p):
                for m in range(p):
                    if n == 0 and m == 0:
                        continue
                    assert abs(kloosterman(chi, n, m)) <= cap + 1e-9


def test_complete_sum_cases():
    p = 11
    assert abs(kloosterman(make_character(p, 0), 0, 0) - (p - 1)) < 1e-12
    for idx in range(1, p - 1):
        assert abs(kloosterman(make_character(p, idx), 0, 0)) < 1e-9


def test_kloosterman_argument_symmetry():
    # Substituting x -> 1/x swaps the arguments for the principal character.
    chi0 = make_character(13, 0)
    for n, m in [(1, 2), (3, 5), (0, 4)]:
        assert cmath.isclose(kloosterman(chi0, n, m), kloosterman(chi0, m, n),
                             abs_tol=1e-9)


def test_kloosterman_reduces_arguments():
    chi = make_character(7, 2)
    assert cmath.isclose(kloosterman(chi, 8, -1), kloosterman(chi, 1, 6),
                         abs_tol=1e-12)


# ---------------------------------------------------------------------------
# bilinear forms


def test_bilinear_dual_routes_agree():
    rng = random.Random(17)
    p = 7
    for idx in (0, 1, 3):
        chi = make_character(p, idx)
        alpha = np.zeros(p, dtype=complex)
        beta = np.zeros(p, dtype=complex)
        for n in rng.sample(range(p), 4):
            alpha[n] = random_disk_weights(rng, [n])[n]
        for m in rng.sample(range(p), 3):
            beta[m] = random_disk_weights(rng, [m])[m]
        via_table = bilinear_form(chi, alpha, beta)
        direct = bilinear_form_direct(chi, alpha, beta)
        assert abs(via_table - direct) <= 1e-9 * max(1.0, abs(direct))


def test_bilinear_form_validates_length():
    chi = make_character(7, 1)
    with pytest.raises(InvalidArgumentError):
        bilinear_form(chi, np.ones(6), np.ones(7))


def test_bilinear_form_direct_reads_neither_table():
    chi = make_character(11, 3)
    alpha, beta = np.arange(11) / 11, np.ones(11)
    expected = bilinear_form_direct(chi, alpha, beta)
    with patch.object(charsums, "_kloosterman_table", side_effect=AssertionError), \
            patch("incidencelab.modring._char_values", side_effect=AssertionError):
        assert bilinear_form_direct(chi, alpha, beta) == expected


def test_kloosterman_table_refuses_past_the_table_cap():
    # 1031^2 entries exceed the cap, where 1021^2 stay below it
    p = 1031
    assert 1021 ** 2 <= TABLE_CAP < p * p
    chi = make_character(p, 1)
    with patch.object(charsums, "Character", side_effect=AssertionError), \
            pytest.raises(TooLargeError, match=f"{p * p} entries exceed the table cap"):
        bilinear_form(chi, np.ones(p), np.ones(p))


# ---------------------------------------------------------------------------
# hyperbola sums and the group encoding


def test_hyperbola_sum_matches_brute_force():
    rng = random.Random(5)
    p = 11
    chi = make_character(p, 3)
    aa, bb = [1, 3, 8], [2, 5, 6]
    xx, yy = [0, 1, 4, 9], [3, 7, 10]
    wa = random_disk_weights(rng, aa)
    wb = random_disk_weights(rng, bb)
    got = hyperbola_sum(chi, aa, bb, xx, yy, c_a=wa, c_b=wb)
    expected = brute_hyperbola(chi, aa, bb, xx, yy, wa, wb)
    assert abs(got.value - expected) < 1e-9
    assert math.isclose(got.trivial_bound, math.sqrt(9) * 12)


def test_weight_dicts_refuse_magnitudes_above_one():
    chi = make_character(7, 1)
    with pytest.raises(InvalidArgumentError):
        hyperbola_sum(chi, [1, 2], [3], [0, 1], [2, 4], c_a={1: 1.5})
    with pytest.raises(InvalidArgumentError):
        hyperbola_sum(chi, [1, 2], [3], [0, 1], [2, 4], c_b={3: 1j * 1.01})
    # magnitude exactly 1 and residues missing from the dict (weight 1) pass
    hyperbola_sum(chi, [1, 2], [3], [0, 1], [2, 4], c_a={1: 1j})


def test_hyperbola_group_structure():
    # the per-(a, b) formula, sorted and distinct (the map (a, b) -> g is
    # injective), each of determinant -1; the random sets hold a = 0, b = 0
    rng = random.Random(4)
    cases = [(11, [1, 3, 8], [2, 5, 6])]
    for p in (2, 3, 7, 13, 101, 101):
        cases.append((p, *([0] + rng.sample(range(1, p), rng.randint(0, p - 1))
                           for _ in range(2))))
    for p, aa, bb in cases:
        fam = hyperbola_group(p, aa, bb)
        want = {((-b) % p, (1 - a * b) % p, 1, a) for a in aa for b in bb}
        got = [tuple(g) for g in fam.elements.tolist()]
        assert got == sorted(want) and len(got) == len(aa) * len(bb)
        assert all(mat2_det(g, p) == p - 1 for g in got)


def test_hyperbola_group_refuses_past_the_table_cap():
    with patch.object(modring, "TABLE_CAP", 12):
        assert len(hyperbola_group(13, range(3), range(4))) == 12
        with patch.object(np, "stack", side_effect=RuntimeError) as stack:
            with pytest.raises(TooLargeError, match="table cap 12"):
                hyperbola_group(13, range(3), range(5))
            assert not stack.called


def test_hyperbola_encodes_as_group_twisted_sum():
    # With unit weights the hyperbola sum over (A, B, X, Y) is literally the
    # sum twisted by the family of maps x -> 1/(a + x) - b evaluated on (X, Y).
    p = 13
    chi = make_character(p, 2)
    aa, bb = [1, 4, 6], [2, 9]
    xx, yy = [0, 3, 5, 11], [1, 7, 8]
    plain = hyperbola_sum(chi, aa, bb, xx, yy).value
    encoded = group_twisted_sum(chi, hyperbola_group(p, aa, bb), xx, yy)
    assert abs(plain - encoded) < 1e-9


def test_group_twisted_sum_skips_poles():
    # A family element with gamma = 1, delta = -a hits a pole at a and must
    # contribute nothing there.
    p = 7
    chi = make_character(p, 1)
    fam = matrix_family(p, [(0, 1, 1, 5)])  # pole at a = 2
    total = group_twisted_sum(chi, fam, [2], list(range(p)))
    assert total == 0j


def test_group_twisted_sum_modulus_mismatch():
    chi = make_character(7, 1)
    fam = matrix_family(11, [(1, 0, 0, 1)])
    with pytest.raises(InvalidArgumentError):
        group_twisted_sum(chi, fam, [1], [1])


def test_projective_lift_check_passes():
    rng = random.Random(23)
    p = 7
    chi = make_character(p, 2)
    fam = matrix_family(p, [(1, 1, 0, 1), (2, 0, 0, 3), (0, 1, 6, 0)])
    aa, bb = [1, 2, 5], [3, 4]
    wa = random_disk_weights(rng, aa)
    wb = random_disk_weights(rng, bb)
    res = projective_lift_check(chi, fam, aa, bb, c_a=wa, c_b=wb)
    assert res.passed
    assert res.residual < 1e-8
    assert cmath.isclose(res.lifted, res.affine_scaled, abs_tol=1e-8)


# ---------------------------------------------------------------------------
# energies


FAMILY_F5 = [(1, 1, 0, 1), (2, 0, 0, 3), (0, 1, 4, 0)]


def brute_t2k(family, k):
    p = family.p
    mats = family.elements.tolist()
    hist = Counter()
    for combo in product(mats, repeat=2 * k):
        acc = (1, 0, 0, 1)
        for i in range(0, 2 * k, 2):
            step = mat2_mul(combo[i], mat2_inv(combo[i + 1], p), p)
            acc = mat2_mul(acc, step, p)
        hist[acc] += 1
    return sum(v * v for v in hist.values())


def cap_budget(family, k):
    """Products charged against the cap: |G|^2, then support(c_j) * support(c)
    before each convolution, supports counted as the products reached."""
    p = family.p
    mats = family.elements.tolist()
    base = {mat2_mul(g, mat2_inv(h, p), p) for g in mats for h in mats}
    budget, acc = len(mats) ** 2, base
    for _ in range(k - 1):
        budget += len(acc) * len(base)
        acc = {mat2_mul(x, y, p) for x in acc for y in base}
    return budget


def test_energy_t2k_frozen_value():
    fam = matrix_family(5, FAMILY_F5)
    assert energy_t2k(fam, 2) == 675


@pytest.mark.parametrize("step, size, k, expected", [
    (467, 28, 2, 36919246),
    (1319, 10, 3, 3176042360),
])
def test_energy_t2k_frozen_values_p11(step, size, k, expected):
    # Values from an independent dict-keyed convolution; both span many blocks.
    fam = matrix_family(11, enumerate_gl2(11)[::step][:size])
    assert len(fam) == size
    got = energy_t2k(fam, k)
    assert type(got) is int
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), k=st.sampled_from([2, 3]),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=14),
       block=st.sampled_from([5, 97, charsums._BLOCK_PAIRS]))
# 14 matrices whose second convolution forms 151^2 pairs, two default blocks
@example(p=7, k=2, picks=list(range(0, 2016, 144)), block=charsums._BLOCK_PAIRS)
def test_energy_t2k_matches_brute_force_random(p, k, picks, block):
    gl2 = enumerate_gl2(p)
    picks = picks if k == 2 else picks[:5]
    fam = matrix_family(p, [gl2[i % len(gl2)] for i in picks])
    with patch.object(charsums, "_BLOCK_PAIRS", block):
        assert energy_t2k(fam, k) == brute_t2k(fam, k)


def test_energy_t2k_matches_brute_force():
    fam = matrix_family(5, FAMILY_F5)
    assert energy_t2k(fam, 2) == brute_t2k(fam, 2)
    assert energy_t2k(fam, 3) == brute_t2k(fam, 3)
    pair = matrix_family(7, [(1, 2, 3, 4), (0, 1, 1, 0)])
    assert energy_t2k(pair, 2) == brute_t2k(pair, 2)


@pytest.mark.parametrize("p", [5, 7])
def test_row_table_gives_the_code_of_every_product(p):
    codes = np.arange(p ** 4, dtype=np.int64)
    mats = charsums._decode(codes, p)
    table = charsums._row_table(mats, p)
    top, bottom = np.divmod(codes, p * p)
    for left in np.array_split(codes, p * p):
        got = table[top[left]] * p * p + table[bottom[left]]
        want = charsums._encode(mat2_mul([e[left, None] for e in mats],
                                         [e[None, :] for e in mats], p), p)
        assert np.array_equal(got, want)


def dict_t2k(family, k):
    """T_2k by convolving dicts keyed by matrix tuples."""
    p = family.p
    mats = family.elements.tolist()
    base = Counter(mat2_mul(g, mat2_inv(h, p), p) for g in mats for h in mats)
    acc = base
    for _ in range(k - 1):
        step = Counter()
        for x, cx in acc.items():
            for y, cy in base.items():
                step[mat2_mul(x, y, p)] += cx * cy
        acc = step
    return sum(v * v for v in acc.values())


def test_energy_t2k_of_sl2_f5_at_k3():
    # a subgroup H: c_3 is |H|^5 on each of its elements, so T_6 = 120^11,
    # past 2^63 and summed in Python ints
    fam = matrix_family(5, [g for g in enumerate_gl2(5) if mat2_det(g, 5) == 1])
    assert len(fam) == 120
    expected = dict_t2k(fam, 3)
    assert expected == 120 ** 11 > 2 ** 63
    got = energy_t2k(fam, 3)
    assert type(got) is int and got == expected


@pytest.mark.parametrize("k", [2, 3])
def test_energy_t2k_of_gl2_f2(k):
    fam = matrix_family(2, enumerate_gl2(2))
    assert len(fam) == 6
    assert energy_t2k(fam, k) == brute_t2k(fam, k) == dict_t2k(fam, k)


def test_energy_t2k_singleton():
    fam = matrix_family(5, [(2, 0, 0, 3)])
    # One element: every product collapses to the identity.
    assert energy_t2k(fam, 2) == 1
    assert energy_t2k(fam, 3) == 1


def balanced_t2k(family, k):
    """T(f_G) for f_G = 1_G - |G| / |GL_2|, by float convolution over all
    of GL_2(p): c(x) = sum over g h^-1 = x of f(g) f(h), then k - 1 further
    convolutions with c, then the sum of squares."""
    p = family.p
    gl2 = np.array(enumerate_gl2(p))
    index = np.full(p ** 4, -1)
    index[((gl2[:, 0] * p + gl2[:, 1]) * p + gl2[:, 2]) * p + gl2[:, 3]] = np.arange(len(gl2))

    def product_index(x, y):
        x, y = x[:, None, :], y[None, :, :]
        a = (x[..., 0] * y[..., 0] + x[..., 1] * y[..., 2]) % p
        b = (x[..., 0] * y[..., 1] + x[..., 1] * y[..., 3]) % p
        c = (x[..., 2] * y[..., 0] + x[..., 3] * y[..., 2]) % p
        d = (x[..., 2] * y[..., 1] + x[..., 3] * y[..., 3]) % p
        return index[((a * p + b) * p + c) * p + d]

    share = len(family) / len(gl2)
    members = set(map(tuple, family.elements.tolist()))
    f = np.array([1.0 - share if g in members else -share
                  for g in map(tuple, gl2.tolist())])
    inverses = np.array([mat2_inv(g, p) for g in gl2.tolist()])
    base = np.zeros(len(gl2))
    np.add.at(base, product_index(gl2, inverses), np.outer(f, f))
    acc = base
    for _ in range(k - 1):
        step = np.zeros(len(gl2))
        np.add.at(step, product_index(gl2, gl2), np.outer(acc, base))
        acc = step
    return float((acc ** 2).sum())


def test_energy_t2k_balanced_identity():
    # Centering the indicator shifts the energy by exactly |G|^(4k) / |GL_2|,
    # the expansion the lift-energy runner uses for t2k_fg.
    for p, fam in ((5, matrix_family(5, FAMILY_F5)),
                   (3, matrix_family(3, enumerate_gl2(3)[::5]))):
        gl2 = len(enumerate_gl2(p))
        for k in (2, 3):
            raw = energy_t2k(fam, k)
            expected = float(Fraction(raw) - Fraction(len(fam) ** (4 * k), gl2))
            assert math.isclose(balanced_t2k(fam, k), expected,
                                rel_tol=1e-8, abs_tol=1e-8)


def test_energy_t2k_guards(monkeypatch):
    fam = matrix_family(5, FAMILY_F5)
    with pytest.raises(InvalidArgumentError):
        energy_t2k(fam, 4)
    monkeypatch.setattr(charsums, "DEFAULT_CONVOLUTION_CAP", 4)
    with pytest.raises(TooLargeError):
        energy_t2k(fam, 2)


def test_energy_t2k_cap_boundary(monkeypatch):
    fam = matrix_family(5, enumerate_gl2(5)[::37][:6])
    budget = cap_budget(fam, 3)
    assert budget - 1 >= 5 ** 4  # the table fits either way
    monkeypatch.setattr(charsums, "DEFAULT_CONVOLUTION_CAP", budget - 1)
    with pytest.raises(TooLargeError):
        energy_t2k(fam, 3)
    monkeypatch.setattr(charsums, "DEFAULT_CONVOLUTION_CAP", budget)
    assert energy_t2k(fam, 3) == brute_t2k(fam, 3)


def test_energy_t2k_refuses_before_convolving(monkeypatch):
    small = matrix_family(11, FAMILY_F5)
    # |G|^6 < 2^63 for |G| = 1448 but not for 1449
    wide = matrix_family(7, enumerate_gl2(7)[:1449])
    narrower = matrix_family(7, enumerate_gl2(7)[:1448])
    with patch.object(charsums, "_convolve", side_effect=RuntimeError) as convolve:
        monkeypatch.setattr(charsums, "DEFAULT_CONVOLUTION_CAP", 11 ** 4 - 1)
        with pytest.raises(TooLargeError):
            energy_t2k(small, 2)
        monkeypatch.setattr(charsums, "DEFAULT_CONVOLUTION_CAP", 10 ** 15)
        with pytest.raises(TooLargeError):
            energy_t2k(wide, 3)
        assert not convolve.called
        with pytest.raises(RuntimeError):  # past both refusals
            energy_t2k(narrower, 3)
    monkeypatch.setattr(charsums, "DEFAULT_CONVOLUTION_CAP", 11 ** 4)
    assert energy_t2k(small, 2) == brute_t2k(small, 2)


def test_twisted_bound_rhs():
    assert twisted_bound_rhs(2, 0, 5, 3, 100.0) == 0.0
    assert twisted_bound_rhs(2, 4, 0, 3, 100.0) == 0.0
    expected = (math.sqrt(4 * 5 * 3) * 96.0 ** (1 / 16)
                + math.sqrt(20) * 3 * 5 ** (-1 / 4))
    assert math.isclose(twisted_bound_rhs(2, 4, 5, 3, 96.0), expected, rel_tol=1e-12)
    with pytest.raises(InvalidArgumentError):
        twisted_bound_rhs(2, -1, 5, 3, 10.0)
    with pytest.raises(InvalidArgumentError):
        twisted_bound_rhs(2, 1, 5, 3, -1.0)


# ---------------------------------------------------------------------------
# intersection sums


def test_intersection_multiplicative_known():
    p = 7
    chi0 = make_character(p, 0)
    # {1, 2, 4} is closed under inversion mod 7.
    res = intersection_char_sum(chi0, [1, 2, 4])
    assert res.intersection_size == 3
    assert abs(res.value - 3) < 1e-12
    assert res.dropped == 0
    assert math.isclose(res.comparison, 9 / 7)


def test_intersection_shifted_known():
    p = 7
    res = intersection_char_sum(make_character(p, 0), [1, 2, 4], variant="shifted")
    # inverses {1, 2, 4}; shifted by one {2, 3, 5}; intersection {2}.
    assert res.intersection_size == 1
    assert abs(res.value - 1) < 1e-12


def test_intersection_drops_zero():
    res = intersection_char_sum(make_character(7, 1), [0, 1, 6])
    assert res.dropped == 1
    assert res.intersection_size == 2  # 1 and 6 are self-inverse
    with pytest.raises(InvalidArgumentError):
        intersection_char_sum(make_character(7, 1), [1], variant="additive")
