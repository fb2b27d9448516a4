"""Continued fractions with bounded partial quotients, the residue sets
they carve out of Z_q, and the multiplicative-structure measurements made
on those sets: subgroup witness search and product-representation energy;
plus the unions of disjoint interval translates that the structured
intersection sets are drawn from.

A subgroup of Z_p^* is cyclic, so `subgroup(p, generator)` is its one
constructor.  Every bounded-quotient set mod q and every minimal feasible
bound read one table, `_max_quotients(q)`: the lockstep Euclidean algorithm
on all a/q, cached per modulus like the tables of `modring` and refused
above its TABLE_CAP, as is a subgroup of more elements than that.

Everything here is exact integer or rational arithmetic except the bound
expressions, which are plain floats.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidFractionError,
    StructureError,
    TooLargeError,
)
from .modring import (TABLE_CAP, TABLES_KEPT, _check_table, _read_only, factorize, is_prime,
                      sorted_residues)


@dataclass(frozen=True)
class ContinuedFraction:
    """A reduced fraction a/q in (0, 1) with its quotient sequence, so the
    value is 1/(c_1 + 1/(c_2 + ...)).  Canonical form: the last quotient is
    at least 2 whenever there are two or more."""

    numerator: int
    denominator: int
    quotients: tuple


def cf_expand(a: int, q: int) -> ContinuedFraction:
    """Quotients of a/q by the Euclidean algorithm.

    The algorithm lands in canonical form on its own: the last division is
    exact with a strictly smaller divisor, so the final quotient is >= 2.
    """
    a = int(a)
    if not 0 < a < q:
        raise InvalidFractionError(f"need 0 < a < q, got {a}/{q}")
    if math.gcd(a, q) != 1:
        raise InvalidFractionError(f"{a}/{q} is not reduced")
    quotients = []
    hi, lo = q, a
    while lo:
        c, r = divmod(hi, lo)
        quotients.append(c)
        hi, lo = lo, r
    return ContinuedFraction(a, q, tuple(quotients))


def cf_value(quotients) -> tuple:
    """Exact (numerator, denominator) of [0; c_1, ..., c_s], evaluated by
    the backward recurrence on integer continuants,
    num / den -> den / (c den + num) from 0 / 1.  Consecutive continuants
    are coprime, so the pair is already in lowest terms."""
    qs = [int(c) for c in quotients]
    if not qs:
        raise InvalidFractionError("empty quotient list")
    if any(c < 1 for c in qs):
        raise InvalidFractionError(f"quotients must be positive, got {qs}")
    num, den = 0, 1
    for c in reversed(qs):
        num, den = den, c * den + num
    return num, den


@lru_cache(maxsize=TABLES_KEPT)
def _max_quotients(q: int) -> tuple:
    """The Euclidean algorithm on every a/q with a in [1, q) at once.

    Returns three read-only int64 arrays indexed by a - 1: the largest
    quotient before the last one (0 when there is only one), the last
    quotient, and gcd(a, q), the last nonzero remainder.  The quotients are
    those of `cf_expand` on a/q in lowest terms.  All numerators divide in
    lockstep, and those whose division came out exact drop out after each
    step.  A q above TABLE_CAP is refused before anything is built.
    """
    _check_table("partial quotients", q)
    front = np.zeros(q - 1, dtype=np.int64)
    last = np.empty(q - 1, dtype=np.int64)
    gcd = np.empty(q - 1, dtype=np.int64)
    live = np.arange(q - 1)
    hi = np.full(q - 1, q, dtype=np.int64)
    lo = np.arange(1, q, dtype=np.int64)
    top = np.zeros(q - 1, dtype=np.int64)
    while len(live):
        c, r = np.divmod(hi, lo)
        done = r == 0
        ended = live[done]
        front[ended] = top[done]
        last[ended] = c[done]
        gcd[ended] = lo[done]
        going = ~done
        live, hi, lo = live[going], lo[going], r[going]
        top = np.maximum(top[going], c[going])
    return _read_only(front), _read_only(last), _read_only(gcd)


def zaremba_set(q: int, bound: int, alternate: bool = False) -> set:
    """Numerators a in [1, q) with gcd(a, q) = 1 whose quotients all stay
    at or below ``bound``.  With alternate=True the max quotient is taken
    on the non-canonical twin expansion [c_1, ..., c_s - 1, 1] instead, as
    a sensitivity check."""
    if q < 2 or bound < 1:
        raise InvalidArgumentError(f"need q >= 2 and bound >= 1, got q={q}, bound={bound}")
    front, last, gcd = _max_quotients(q)
    if alternate:  # the twin's trailing 1 is within every bound >= 1
        last = last - 1
    keep = (gcd == 1) & (np.maximum(front, last) <= bound)
    return set((np.flatnonzero(keep) + 1).tolist())


# ---------------------------------------------------------------------------
# multiplicative subgroups


@dataclass(frozen=True)
class SubgroupSpec:
    """A cyclic subgroup of Z_p^* given by a generator."""

    modulus: int
    generator: int
    elements: frozenset

    def __len__(self) -> int:
        return len(self.elements)


def subgroup(p: int, generator: int) -> SubgroupSpec:
    """The subgroup of Z_p^* generated by one element, refused once its
    orbit passes TABLE_CAP elements."""
    if not is_prime(p):
        raise InvalidArgumentError(f"subgroups need a prime modulus, got {p}")
    g = int(generator) % p
    if g == 0:
        raise InvalidArgumentError("generator must be a unit")
    orbit = {1}
    x = g
    for _ in range(TABLE_CAP):
        if x == 1:
            return SubgroupSpec(p, g, frozenset(orbit))
        orbit.add(x)
        x = x * g % p
    raise TooLargeError(
        f"subgroup generated by {g} mod {p}: its elements exceed the table cap {TABLE_CAP}")


@dataclass(frozen=True)
class WitnessReport:
    """Result of searching a subgroup for a bounded-quotient numerator."""

    witness: int | None
    intersection: tuple
    intersection_size: int
    bounded_set_size: int
    lower_bound: float


def find_in_subgroup(q: int, bound: int, gamma: SubgroupSpec,
                     c0: float = 1.0, c_star: float = 1.0,
                     n_value: int = 1) -> WitnessReport:
    """Smallest element of the subgroup whose fraction over q has all
    quotients <= bound, plus the size of the full intersection.

    The reported lower bound is |A| |Gamma| / (q - 1) - c0 |A| n^(-c_star)
    with A the bounded-quotient set; it is a heuristic expression whose
    constants are knobs, not a proven floor on the intersection size.
    """
    if n_value < 1:
        raise InvalidArgumentError(f"the scale n_value must be >= 1, got {n_value}")
    if not is_prime(q):
        raise InvalidArgumentError(f"subgroup search needs a prime modulus, got {q}")
    if gamma.modulus != q:
        raise InvalidArgumentError(
            f"subgroup lives mod {gamma.modulus}, expected mod {q}")
    bounded = zaremba_set(q, bound)
    hits = sorted(bounded & gamma.elements)
    lower = (len(bounded) * len(gamma) / (q - 1)
             - c0 * len(bounded) * float(n_value) ** (-c_star))
    return WitnessReport(hits[0] if hits else None, tuple(hits), len(hits),
                         len(bounded), lower)


# ---------------------------------------------------------------------------
# energies and regularity


def mult_energy(z, q: int) -> int:
    """Number of quadruples z1 z2 = z3 z4 in the set of residues mod q,
    counted exactly as the sum of squared product-representation counts."""
    factorize(q)  # refuses a q that is not an integer >= 2
    elems = sorted_residues(z, q)
    rep = Counter((z1 * z2) % q for z1 in elems for z2 in elems)
    return sum(c * c for c in rep.values())


def interval_union(q: int, translates, length: int) -> tuple:
    """The sorted union of the translates t + {1..length} mod q, required to
    be disjoint, so a repeated translate counts as an overlap."""
    if not 1 <= length < q:
        raise StructureError(f"interval length must lie in [1, q), got {length}")
    union = {(t + x) % q for t in translates for x in range(1, length + 1)}
    if len(union) != length * len(translates):
        raise StructureError(
            f"translates of a length-{length} interval overlap mod {q}")
    return tuple(sorted(union))


@dataclass(frozen=True)
class EnergyBoundReport:
    """Exact multiplicative energy against three reference quantities: the
    structured-set bound |Z|^3 (p/|Z|)^(3-4w) N^(-2(1-w)), the trivial
    |Z|^3 cap, and the random-set baseline |Z|^4/p + |Z|^2."""

    energy: int
    bound_rhs: float
    trivial_bound: int
    random_baseline: float
    regime_ok: bool
    within_bound: bool


def energy_bound_report(z, base_length: int, w: float, p: int) -> EnergyBoundReport:
    """Compare exact energy with the dimension-w prediction at modulus p.

    The prediction only claims anything for w > 3/4; outside that regime
    the row is still computed but flagged.  Constants are taken to be 1,
    so this is a comparison table, not an inequality test.
    """
    factorize(p)  # refuses a p that is not an integer >= 2
    elems = sorted_residues(z, p)
    if not elems:
        raise InvalidArgumentError("energy report needs a nonempty set")
    if base_length < 1 or not 0 < w <= 1:
        raise InvalidArgumentError(
            f"need base length >= 1 and 0 < w <= 1, got {base_length}, {w}")
    size = len(elems)
    energy = mult_energy(elems, p)
    rhs = (size ** 3 * (p / size) ** (3.0 - 4.0 * w)
           * float(base_length) ** (-2.0 * (1.0 - w)))
    baseline = size ** 4 / p + size ** 2
    return EnergyBoundReport(energy, rhs, size ** 3, baseline,
                             regime_ok=w > 0.75, within_bound=energy <= rhs)


def minimal_feasible_bound(q: int, gamma: SubgroupSpec) -> int:
    """Smallest quotient bound M for which the bounded set meets the
    subgroup: the least largest quotient of a/q over the elements a of
    Gamma, a subgroup of Z_q^* (so every a is a unit in [1, q))."""
    if q < 3:
        raise InvalidArgumentError(f"need q >= 3, got {q}")
    front, last, _ = _max_quotients(q)
    at = np.fromiter(gamma.elements, dtype=np.int64, count=len(gamma)) - 1
    return int(np.maximum(front[at], last[at]).min())
