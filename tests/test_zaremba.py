"""Continued fractions, bounded-quotient sets, subgroup searches, and the
multiplicative-structure measurements on residue sets."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incidencelab import (
    InvalidArgumentError,
    InvalidFractionError,
    StructureError,
    TooLargeError,
    cf_expand,
    cf_value,
    energy_bound_report,
    find_in_subgroup,
    interval_union,
    is_prime,
    minimal_feasible_bound,
    mult_energy,
    primitive_root,
    subgroup,
    zaremba_set,
)
from incidencelab.harness import _generator
from incidencelab.modring import TABLE_CAP
from incidencelab.zaremba import _max_quotients


@st.composite
def reduced_fractions(draw, max_q=300):
    q = draw(st.integers(min_value=2, max_value=max_q))
    a = draw(st.integers(min_value=1, max_value=q - 1).filter(
        lambda x: math.gcd(x, q) == 1))
    return a, q


# ---------------------------------------------------------------------------
# continued fractions


def test_cf_expand_known():
    cf = cf_expand(4, 7)
    assert cf.quotients == (1, 1, 3)
    assert max(cf.quotients) == 3
    assert cf_expand(1, 2).quotients == (2,)


def test_cf_expand_validation():
    with pytest.raises(InvalidFractionError):
        cf_expand(0, 7)
    with pytest.raises(InvalidFractionError):
        cf_expand(7, 7)
    with pytest.raises(InvalidFractionError):
        cf_expand(2, 6)


@given(reduced_fractions())
def test_cf_round_trip(frac):
    a, q = frac
    cf = cf_expand(a, q)
    assert cf_value(cf.quotients) == (a, q)
    # Euclid lands in canonical form: final quotient at least 2.
    assert cf.quotients[-1] >= 2


def _twin(quotients) -> tuple:
    """The other expansion of the same rational: [..., c_s - 1, 1] for a
    canonical list, or the canonical form of the long one."""
    if quotients[-1] == 1:
        return quotients[:-2] + (quotients[-2] + 1,)
    return quotients[:-1] + (quotients[-1] - 1, 1)


def _fraction_value(quotients) -> tuple:
    """[0; c_1, ..., c_s] by the backward recurrence on Fractions."""
    value = Fraction(0)
    for c in reversed(quotients):
        value = Fraction(1, c + value)
    return value.numerator, value.denominator


@given(reduced_fractions())
def test_alternate_expansion_same_value(frac):
    a, q = frac
    cf = cf_expand(a, q)
    alt = _twin(cf.quotients)
    assert cf_value(alt) == (a, q)
    assert alt[-1] == 1
    assert len(alt) == len(cf.quotients) + 1


def test_alternate_round_trips():
    # [0; 1, 1, 3] <-> [0; 1, 1, 2, 1]; going once more returns the original.
    cf = cf_expand(4, 7)
    alt = _twin(cf.quotients)
    assert alt == (1, 1, 2, 1)
    assert _twin(alt) == cf.quotients
    assert cf_value(alt) == cf_value(cf.quotients) == (4, 7)


def test_alternate_of_one_half():
    assert _twin(cf_expand(1, 2).quotients) == (1, 1)
    assert cf_value((1, 1)) == (1, 2)


def test_cf_value_matches_the_fraction_recurrence():
    rng = random.Random(23)
    for _ in range(500):
        quotients = [rng.choice((1, 1, 2, 3, 7, 50, 10 ** 12))
                     for _ in range(rng.randrange(1, 30))]
        assert cf_value(quotients) == _fraction_value(quotients)


def test_cf_value_validation():
    with pytest.raises(InvalidFractionError):
        cf_value([])
    with pytest.raises(InvalidFractionError):
        cf_value([2, 0, 1])


# ---------------------------------------------------------------------------
# bounded-quotient sets


def test_zaremba_set_known():
    assert zaremba_set(7, 3) == {2, 3, 4, 5}
    assert zaremba_set(7, 6) == {2, 3, 4, 5, 6}
    assert zaremba_set(7, 7) == {1, 2, 3, 4, 5, 6}
    assert zaremba_set(2, 1) == set()


def test_zaremba_set_bound_one_is_empty():
    # The canonical last quotient is >= 2, so no expansion has max 1.
    for q in (2, 3, 5, 8, 13):
        assert zaremba_set(q, 1) == set()


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=8))
def test_zaremba_set_monotone_in_bound(q, bound):
    assert zaremba_set(q, bound) <= zaremba_set(q, bound + 1)


def test_zaremba_set_alternate_flag():
    q = 7
    got = zaremba_set(q, 2, alternate=True)
    expected = {a for a in range(1, q)
                if max(_twin(cf_expand(a, q).quotients)) <= 2}
    assert got == expected
    # 4/7 = [0; 1, 1, 2, 1] on the twin expansion, so 4 qualifies there
    # while the canonical [0; 1, 1, 3] does not.
    assert 4 in got
    assert 4 not in zaremba_set(q, 2)


def _zaremba_oracle(q, bound, alternate=False):
    """zaremba_set by one cf_expand per numerator."""
    out = set()
    for a in range(1, q):
        if math.gcd(a, q) == 1:
            quotients = cf_expand(a, q).quotients
            if max(_twin(quotients) if alternate else quotients) <= bound:
                out.add(a)
    return out


@pytest.mark.parametrize("q", (2, 3, 12, 97, 100, 1001, 10007))
def test_max_quotients_agree_with_cf_expand(q):
    front, last, gcd = _max_quotients(q)
    for a in range(1, q):
        g = math.gcd(a, q)
        # a / q in lowest terms has the same quotients
        quotients = cf_expand(a // g, q // g).quotients
        assert front[a - 1] == max(quotients[:-1], default=0), a
        assert last[a - 1] == quotients[-1], a
        assert gcd[a - 1] == g, a


@pytest.mark.parametrize("q", (2, 3, 12, 97, 100, 1001))
def test_zaremba_set_matches_the_per_numerator_definition(q):
    for bound in (1, 2, 3, 5, q):
        for alternate in (False, True):
            assert zaremba_set(q, bound, alternate) == _zaremba_oracle(q, bound, alternate)


def test_zaremba_set_validation():
    with pytest.raises(InvalidArgumentError):
        zaremba_set(1, 3)
    with pytest.raises(InvalidArgumentError):
        zaremba_set(7, 0)
    # 1048583 is the first prime past the cap: its table is refused unbuilt
    with pytest.raises(TooLargeError, match=f"1048583 entries exceed the table cap {TABLE_CAP}"):
        zaremba_set(1048583, 5)


# ---------------------------------------------------------------------------
# subgroups and witness search


def test_subgroup_basic():
    g = subgroup(7, 2)
    assert g.elements == frozenset({1, 2, 4})
    assert len(g) == 3
    assert 2 in g.elements and 3 not in g.elements
    assert subgroup(7, 9) == g  # the generator is taken mod p
    with pytest.raises(InvalidArgumentError):
        subgroup(8, 3)
    with pytest.raises(InvalidArgumentError):
        subgroup(7, 7)


def test_full_group_and_squares():
    # the generators `--subgroup full` and `--subgroup squares` name
    assert len(subgroup(13, _generator(13, "full"))) == 12
    qr = subgroup(13, _generator(13, "squares"))
    assert qr.elements == frozenset({x * x % 13 for x in range(1, 13)})
    assert len(qr) == 6
    assert _generator(13, 4) == 4


def test_all_subgroups_orders(all_subgroups):
    groups = all_subgroups(13)
    assert [len(g) for g in groups] == [1, 2, 3, 4, 6, 12]
    for g in groups:
        for x in g.elements:
            for y in g.elements:
                assert x * y % 13 in g.elements  # closed under multiplication


def test_subgroup_refuses_an_orbit_past_the_table_cap():
    p = 1000000007
    g = primitive_root(p)
    assert subgroup(p, pow(g, (p - 1) // 2, p)).elements == frozenset({1, p - 1})
    with pytest.raises(TooLargeError, match=f"exceed the table cap {TABLE_CAP}"):
        subgroup(p, g)


def test_find_in_subgroup_frozen():
    rep = find_in_subgroup(7, 3, subgroup(7, 2))
    assert rep.witness == 2
    assert rep.intersection == (2, 4)
    assert rep.intersection_size == 2
    assert rep.bounded_set_size == 4
    # 4 * 3 / 6 - 1 * 4 * 1 with all knobs at their defaults.
    assert math.isclose(rep.lower_bound, -2.0)


def test_find_in_subgroup_empty_intersection():
    rep = find_in_subgroup(7, 2, subgroup(7, 2))
    assert rep.witness is None
    assert rep.intersection == ()


def test_find_in_subgroup_knobs_and_validation():
    rep = find_in_subgroup(7, 3, subgroup(7, 2), c0=0.5, c_star=2.0,
                           n_value=4)
    assert math.isclose(rep.lower_bound, 2.0 - 0.5 * 4 * 4.0 ** -2.0)
    with pytest.raises(InvalidArgumentError):
        find_in_subgroup(9, 3, subgroup(7, 2))
    with pytest.raises(InvalidArgumentError):
        find_in_subgroup(11, 3, subgroup(7, 2))
    # n^(-c_star) is undefined at 0 and complex for negative n
    for n_value in (0, -4):
        with pytest.raises(InvalidArgumentError, match="n_value"):
            find_in_subgroup(7, 3, subgroup(7, 2), c_star=0.5, n_value=n_value)


# ---------------------------------------------------------------------------
# energy and regularity


def brute_energy(elems, q):
    return sum(
        1
        for z1 in elems for z2 in elems for z3 in elems for z4 in elems
        if z1 * z2 % q == z3 * z4 % q
    )


def test_mult_energy_matches_brute():
    q = 13
    for elems in ([1, 2, 3], [1, 5, 8, 12], [2, 3, 5, 7, 11]):
        assert mult_energy(elems, q) == brute_energy(elems, q)


def test_mult_energy_subgroup_law(all_subgroups):
    for p in (7, 11, 13):
        for g in all_subgroups(p):
            assert mult_energy(sorted(g.elements), p) == len(g) ** 3


@given(st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=6))
def test_mult_energy_lower_bound(elems):
    # Diagonal quadruples alone give |Z|^2.
    assert mult_energy(elems, 13) >= len(elems) ** 2


def test_interval_union():
    assert interval_union(20, [0, 10], 2) == (1, 2, 11, 12)
    with pytest.raises(StructureError):
        interval_union(20, [0, 1], 2)  # the translates overlap


def test_energy_bound_report_frozen():
    rep = energy_bound_report([1, 3, 9], 2, 0.8, 13)
    assert rep.energy == 27  # {1, 3, 9} is a subgroup
    assert rep.trivial_bound == 27
    assert math.isclose(rep.random_baseline, 81 / 13 + 9)
    expected_rhs = 27 * (13 / 3) ** (3 - 3.2) * 2 ** (-0.4)
    assert math.isclose(rep.bound_rhs, expected_rhs)
    assert rep.regime_ok
    assert rep.within_bound == (27 <= expected_rhs)


def test_energy_bound_report_regime_flag():
    rep = energy_bound_report([1, 2], 2, 0.5, 13)
    assert not rep.regime_ok


def test_energy_bound_report_validation():
    with pytest.raises(InvalidArgumentError):
        energy_bound_report([], 2, 0.8, 13)
    with pytest.raises(InvalidArgumentError):
        energy_bound_report([1], 0, 0.8, 13)
    with pytest.raises(InvalidArgumentError):
        energy_bound_report([1], 2, 1.5, 13)


def test_minimal_feasible_bound():
    assert minimal_feasible_bound(7, subgroup(7, 3)) == 2
    assert minimal_feasible_bound(7, subgroup(7, 2)) == 3
    with pytest.raises(InvalidArgumentError):
        minimal_feasible_bound(2, subgroup(2, 1))


def _scan_minimal_bound(q, gamma):
    """The first bound whose bounded set meets the subgroup, one
    zaremba_set per bound."""
    for bound in range(1, q + 1):
        if zaremba_set(q, bound) & gamma.elements:
            return bound
    raise AssertionError(f"no feasible bound at q={q}")


@pytest.mark.parametrize("q", [p for p in range(3, 60) if is_prime(p)])
def test_minimal_feasible_bound_matches_the_scan(q):
    g = primitive_root(q)
    for gamma in (subgroup(q, g), subgroup(q, g * g), subgroup(q, 2)):
        assert minimal_feasible_bound(q, gamma) == _scan_minimal_bound(q, gamma)


@pytest.mark.parametrize("q", (3, 97, 1009, 10007))
def test_minimal_feasible_bound_matches_the_per_element_definition(q, all_subgroups):
    for gamma in all_subgroups(q):
        expected = min(max(cf_expand(a, q).quotients) for a in gamma.elements)
        assert minimal_feasible_bound(q, gamma) == expected
