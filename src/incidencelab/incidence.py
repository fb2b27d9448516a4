"""Incidence counting over Z_q with exact main terms and bound evaluators.

Three pair equations are supported between two point families A and B:

* dot:        a . b = lam with every tuple jointly coprime to q,
* det:        det(a, b_1 .. b_{d-1}) = lam for d-vectors,
* crossratio: [a_1, a_2, b_1, b_2] = lam over a prime field.

This module owns the three equations.  `label_widths` and the domain
functions are the one place each kind's label families are declared: the
widths of A's and B's labels, and the labels each side ranges over, the
jointly coprime tuples for dot and every tuple otherwise, in lexicographic
order.  The samplers of `harness` draw from those domains and
`spectra.build_matrix` enumerates them whole.  `value_blocks` is
the one place that computes the equations at every (row, column) pair, for
the incidence matrices of `spectra` and as the test oracle of the counts.
Every label family on this path, a point set's or a matrix's, is one array
of sorted label rows in the form of `PointSet.labels`, read in place.  det
is linear in a, so it is evaluated as the dot product of a with the
cofactor vector of (b_1 .. b_{d-1}).  A cross-ratio is num / den mod q,
both sides computed in numpy; the quotient is read from a cached q x q
table while q^2 <= _DENSE_ENTRIES (q <= 2048) and found by
`modring.divide` beyond.  Values are computed in blocks of about
_BLOCK_ENTRIES, so a block's temporaries stay cache-sized; _DENSE_ENTRIES
bounds the dense lookup tables, a separate limit that picks each count's
route.  The counts evaluate no equation pair by pair.
dot and det scale each a to a representative of
its unit multiples and evaluate only the distinct representatives (at most
q + 1 at prime q and n = 2); a cross-ratio equation is linear in b_2 once
a and b_1 are fixed, so each (a, b_1) has at most one partner b_2, solved
for and looked up in B.  Every value is exact at every modulus.
`check_target` states each kind's equation hypotheses once and
`check_hypotheses` adds the det bound's own; every count goes through
`IncidenceInstance`, which calls it, as `harness.make_config` does.
Counts are exact integers, main terms exact rationals; only the bound side
of an inequality is floating point.  check_inequality packages one
instance into a SlackReport with slack = bound / |error| (infinite when
error = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidLambdaError,
    InvalidModulusError,
)
from .modring import (TABLE_CAP, TABLES_KEPT, _inverse_table, _read_only, as_modulus,
                      coprime_tuples, decode_labels, divide, is_prime, jordan_totient)
from .setops import PointSet

_BLOCK_ENTRIES = 2 ** 16  # values per block yielded by value_blocks
_DENSE_ENTRIES = 2 ** 22  # entries of the largest dense lookup table


# ---------------------------------------------------------------------------
# label families


def label_widths(kind: str, n: int) -> tuple[int, int]:
    """The widths of A's and of B's labels in `kind`'s equation of size n:
    (n, n) for dot, (d, d(d-1)) for det with d = n, (2, 2) for cross-ratios."""
    if kind == "dot":
        return n, n
    if kind == "det":
        return n, n * (n - 1)
    if kind == "crossratio":
        return 2, 2
    raise InvalidArgumentError(f"unknown incidence kind {kind!r}")


def domain_size(kind: str, q: int, width: int) -> int:
    """How many labels of `width` the kind ranges over mod q, known before
    any label is built: the J_width(q) jointly coprime tuples for dot, all
    q^width tuples otherwise."""
    return jordan_totient(width, q) if kind == "dot" else q ** width


def domain_labels(kind: str, q: int, width: int, indices: np.ndarray) -> np.ndarray:
    """The labels at the sorted `indices` of the kind's domain of `width`
    mod q, which is in lexicographic order, one label per row of an int64
    array.  A tuple is decoded from its index, and so is a dot label at
    prime q, where the coprime tuples are the nonzero ones and the i-th
    has index i + 1; at composite q the dot labels are read from one
    cached read-only table of the coprime tuples."""
    if kind != "dot":
        return decode_labels(indices, q, width)
    if is_prime(q):
        return decode_labels(indices + 1, q, width)
    return _coprime_table(q, width)[indices]


@lru_cache(maxsize=TABLES_KEPT)
def _coprime_table(q: int, n: int) -> np.ndarray:
    return _read_only(coprime_tuples(q, n))


# ---------------------------------------------------------------------------
# the equations


def _block_budget(kind: str, q: int) -> int:
    """Values per block of `kind`'s equation mod q: _BLOCK_ENTRIES, except
    for cross-ratios past TABLE_CAP, where `modring.divide` inverts each
    block's distinct denominators and a block of _DENSE_ENTRIES amortises
    that work."""
    return _DENSE_ENTRIES if kind == "crossratio" and q > TABLE_CAP else _BLOCK_ENTRIES


def value_blocks(kind: str, rows: np.ndarray, cols: np.ndarray, q: int):
    """The value mod q of `kind`'s equation at every (row, col) label pair:
    the entries of `spectra.build_matrix`, and the oracle the counts are
    tested against.

    `rows` and `cols` are label arrays of reduced residues, one label per
    row, as `PointSet.labels` holds them: a det row is one d-vector a and a
    det column stacks d - 1 of them, b; cross-ratio labels are pairs.  They
    are read in place, not copied.  det is a dot product,
    det(a; b) = a . cof(b), so it shares dot's matmul once every column is
    replaced by its cofactor vector; the cofactors fill one (len(cols), d)
    array, computed in runs of at most _BLOCK_ENTRIES columns.  Yields one
    array of shape (run, len(cols)) per run of full rows holding at most
    `_block_budget` values, or one row alone when len(cols) exceeds it.
    A cross-ratio is num / den for num = (a1-b1)(a2-b2) and
    den = (a1-b2)(a2-b1) mod q, -1 where den = 0: the quotient comes from
    the q x q table `_crossratio_table` while q^2 <= _DENSE_ENTRIES, and
    beyond that from `modring.divide`, which gathers den^-1 from the cached
    inverse table of q while q <= TABLE_CAP, inverts the block's distinct
    denominators by the same lockstep Euclid past it, and uses Python ints
    on object arrays.
    The arithmetic is int64 while its largest intermediate provably fits,
    n (q-1)^2 for row labels of width n, and runs on Python ints (object
    arrays) beyond that, so every value is exact.  Nothing is computed
    until the blocks are consumed.
    """
    if not len(rows) or not len(cols):
        return
    dtype = _dtype(rows.shape[1], q)
    ra = rows.astype(dtype, copy=False)
    ca = cols.astype(dtype, copy=False)
    if kind == "det":
        d = ra.shape[1]
        b = ca.reshape(len(ca), d - 1, d)
        ca = np.empty((len(b), d), dtype=dtype)
        for j in range(0, len(b), _BLOCK_ENTRIES):
            ca[j:j + _BLOCK_ENTRIES] = _cofactors(b[j:j + _BLOCK_ENTRIES], q)
    if kind in ("dot", "det"):
        def values(run):
            out = run @ ca.T
            out %= q
            return out
    else:
        table = _crossratio_table(q) if q * q <= _DENSE_ENTRIES else None

        def values(run):
            num = run[:, :1] - ca[:, 0]
            num *= run[:, 1:] - ca[:, 1]
            num %= q
            den = run[:, :1] - ca[:, 1]
            den *= run[:, 1:] - ca[:, 0]
            den %= q
            return divide(num, den, q) if table is None else table[num, den]
    step = max(1, _block_budget(kind, q) // len(cols))
    for i in range(0, len(ra), step):
        yield values(ra[i:i + step])


def _dtype(width: int, q: int):
    """int64 while width (q-1)^2, the largest intermediate of a dot product
    of two residue labels of that width, fits; object (Python ints) beyond."""
    return np.int64 if width * (q - 1) ** 2 < 2 ** 63 else object


def _cofactors(b: np.ndarray, q: int) -> np.ndarray:
    """Signed maximal minors mod q of a stack of (k-1) x k matrices: the rows
    cof with det(a; b) = a . cof(b) for every k-vector a, by Laplace
    expansion along a, vectorised over the stack.  `expand` works on the
    submatrix on rows `row`.. and columns `cols` of the original stack,
    reading it by index, so no submatrix is copied.  Every intermediate is
    a sum of at most k products of residues."""
    def expand(row: int, cols: tuple) -> np.ndarray:
        if len(cols) == 1:
            return np.ones((len(b), 1), dtype=b.dtype)
        minors = np.empty((len(b), len(cols)), dtype=b.dtype)
        for j in range(len(cols)):
            rest = cols[:j] + cols[j + 1:]
            sub = expand(row + 1, rest)
            minor = sum(b[:, row, c] * sub[:, t] for t, c in enumerate(rest))
            minors[:, j] = -minor if j % 2 else minor
        minors %= q
        return minors

    return expand(0, tuple(range(b.shape[2])))


def _count(inst: IncidenceInstance) -> int:
    """Number of pairs in A x B at which the instance's equation takes its
    target value."""
    rows, cols = inst.a.labels, inst.b.labels
    if not len(rows) or not len(cols):
        return 0
    if inst.kind == "crossratio":
        return _count_crossratio(rows, cols, inst.lam, inst.modulus.q)
    return _count_linear(inst.kind, rows, cols, inst.lam, inst.modulus.q)


def _count_linear(kind: str, rows, cols, lam: int, q: int) -> int:
    """dot or det count through unit-scaling classes.

    The equation is linear in the row a, so a = u r with u a unit gives
    E(a, b) = lam exactly when E(r, b) = lam / u.  u is a's first unit
    coordinate (1 when it has none), so r has a 1 there and the distinct r
    are few: at most q + 1 nonzero ones at prime q and n = 2.  Only the
    distinct r go through `value_blocks`; a value v in row r counts once
    for every member a of r's class whose target lam / u is v, so two
    members sharing a target (a and 4a at q = 9, lam = 3) both count.
    A value block is matched against the (class, target) member counts by
    indexing a dense int32 table of classes * q entries while that table
    has at most _DENSE_ENTRIES (16 MiB), and by binary search in the sorted
    keys beyond.
    """
    dtype = _dtype(rows.shape[1], q)
    ra = rows.astype(dtype, copy=False)
    unit = np.gcd(ra, q) == 1
    u = np.where(unit.any(axis=1), ra[np.arange(len(ra)), unit.argmax(axis=1)], 1)
    # r = a / u and the target lam / u in one pass; u is a unit, never 0
    scaled = np.column_stack([ra, np.full(len(ra), lam, dtype=dtype)])
    scaled = divide(scaled, np.repeat(u[:, None], scaled.shape[1], axis=1), q)
    scaled = scaled[np.lexsort(scaled.T[::-1])]
    reps = np.ones(len(scaled), dtype=bool)  # the first row of each class
    reps[1:] = (scaled[1:, :-1] != scaled[:-1, :-1]).any(axis=1)
    # class * q + target stays below 2^63 in int64: there q < 2^31.5 and
    # there are far fewer than 2^31 classes
    keys = (np.cumsum(reps) - 1).astype(dtype) * q + scaled[:, -1]
    keys, members = np.unique(keys, return_counts=True)
    classes = int(reps.sum())
    dense = classes * q <= _DENSE_ENTRIES
    if dense:
        table = np.zeros(classes * q, dtype=np.int32)  # a count is at most |A|
        table[keys] = members
    total, start = 0, 0
    for block in value_blocks(kind, scaled[reps, :-1], cols, q):
        block += (np.arange(start, start + len(block), dtype=dtype) * q)[:, None]
        start += len(block)
        if dense:
            total += int(np.take(table, block).sum())
        else:
            pos = np.searchsorted(keys, block)
            hit = np.take(keys, pos, mode="clip") == block
            total += int(members[pos[hit]].sum())
    return total


def _count_crossratio(rows, cols, lam: int, q: int) -> int:
    """Cross-ratio count through solved partners.

    For a = (a1, a2) and x = b1, [a1, a2, x, y] = lam with a defined ratio
    reads (a1 - x)(a2 - y) = lam (a1 - y)(a2 - x) with y != a1 and x != a2,
    which is linear in y: y (lam (a2 - x) - (a1 - x)) = lam a1 (a2 - x)
    - a2 (a1 - x).  When the coefficient vanishes no y satisfies both, so
    each (a, x) has at most one partner y, and the count is the number of
    partners (x, y) that lie in B: |A| min(q, |B|) solves in all, in
    blocks of full A-rows holding at most `_block_budget` values.  A
    partner is looked up in a dense q x q membership array while
    q^2 <= _DENSE_ENTRIES, the rule `value_blocks` applies to its quotient
    table, and by binary search in B's sorted keys beyond.
    """
    dtype = _dtype(2, q)
    ra, cb = rows.astype(dtype, copy=False), cols.astype(dtype, copy=False)
    a1, a2 = ra[:, 0], ra[:, 1]
    lam_a1 = lam * a1 % q
    in_b = cb[:, 0] * q + cb[:, 1]  # sorted, as B's labels are
    dense = q * q <= _DENSE_ENTRIES
    if dense:
        member = np.zeros(q * q, dtype=bool)
        member[in_b] = True
    # B's distinct first coordinates, read off the sorted column
    first = np.ones(len(cb), dtype=bool)
    first[1:] = cb[1:, 0] != cb[:-1, 0]
    xs = cb[first, :1]
    total, step = 0, max(1, _block_budget("crossratio", q) // len(rows))
    for i in range(0, len(xs), step):
        x = xs[i:i + step]
        d1 = a1 - x
        d1 %= q
        d2 = a2 - x
        d2 %= q
        num = a2 * d1  # num = -rhs and then d1 = -coefficient: y = num / d1
        num -= lam_a1 * d2
        num %= q
        d1 -= lam * d2
        d1 %= q
        y = divide(num, d1, q)
        hit = (y >= 0) & (y != a1) & (d2 != 0)
        y += x * q
        if dense:  # y is x q - 1 at a non-unit coefficient, where hit is false
            hit &= member[np.where(hit, y, 0)]
        else:
            hit &= np.take(in_b, np.searchsorted(in_b, y), mode="clip") == y
        total += int(np.count_nonzero(hit))
    return total


# ---------------------------------------------------------------------------
# dot products


def count_dot(a: PointSet, b: PointSet, lam: int) -> int:
    """Exact number of pairs (a, b) in A x B with a . b = lam mod q, for
    jointly coprime tuples and a unit lam (the hypotheses of the
    dot-incidence bound)."""
    return _count(IncidenceInstance("dot", a, b, lam))


def theta(q, n: int) -> Fraction:
    """Arithmetic factor of the dot bound: prod_{p^e || q} sum_{r<=e} p^(-r(n-2)).

    Exact rational; for n = 2 every summand is 1 and the factor equals the
    divisor count tau(q).
    """
    if n < 2:
        raise InvalidArgumentError(f"the arithmetic factor needs n >= 2, got {n}")
    mod = as_modulus(q)
    total = Fraction(1)
    for p, e in mod.factors:
        total *= sum(Fraction(1, p ** (r * (n - 2))) for r in range(e + 1))
    return total


def dot_main_term(size_a: int, size_b: int, q, n: int) -> Fraction:
    """Expected count |A||B| q^(n-1) / J_n(q), exact."""
    mod = as_modulus(q)
    return Fraction(size_a * size_b * mod.q ** (n - 1), jordan_totient(n, mod))


def dot_bound_rhs(q, n: int, size_a: int, size_b: int) -> float:
    """2 q^(n-1) sqrt(|A||B|) (theta(q, n) / m^(n*))^(1/4) with m the least
    prime divisor of q, n* = 1 for n in {2, 3} and n - 3 beyond."""
    mod = as_modulus(q)
    n_star = 1 if n in (2, 3) else n - 3
    factor = theta(mod, n) / Fraction(mod.least_prime ** n_star)
    return 2.0 * mod.q ** (n - 1) * math.sqrt(size_a * size_b) * float(factor) ** 0.25


def second_eigenvalue_bound(q, n: int) -> float:
    """Bound on the largest non-principal eigenvalue of the dot matrix:
    (3 m^(-1) q^(4n-4) theta(q, n))^(1/4)."""
    mod = as_modulus(q)
    val = 3 * Fraction(mod.q ** (4 * n - 4), mod.least_prime) * theta(mod, n)
    return float(val) ** 0.25


# ---------------------------------------------------------------------------
# determinants


class DetMainTerms(NamedTuple):
    """Both candidate normalizations of the determinant main term."""

    per_modulus: Fraction       # |A||B| / q
    per_unit_group: Fraction    # |A||B| / (q - 1)


def count_det(a: PointSet, b: PointSet, lam: int) -> int:
    """Exact number of pairs with det(a, b_1 .. b_{d-1}) = lam mod q.

    Elements of A are d-vectors and elements of B flattened (d-1)-tuples of
    d-vectors (dimension d(d-1)).  Requires odd q and a nonzero target:
    hypotheses of the det bound, not of the equation (`check_hypotheses`).
    """
    return _count(IncidenceInstance("det", a, b, lam))


def det_main_term(size_a: int, size_b: int, q) -> DetMainTerms:
    qq = int(q)
    ab = size_a * size_b
    return DetMainTerms(Fraction(ab, qq), Fraction(ab, qq - 1))


def det_bound_rhs(q, d: int, size_a: int, size_b: int) -> float:
    """q^(d^2/2 - d/4 - 3/4) sqrt(|A||B|) + |A||B| / q^2."""
    qq = int(q)
    ab = size_a * size_b
    return qq ** (d * d / 2.0 - d / 4.0 - 0.75) * math.sqrt(ab) + ab / qq ** 2


# ---------------------------------------------------------------------------
# cross-ratios


@lru_cache(maxsize=TABLES_KEPT)
def _crossratio_table(q: int) -> np.ndarray:
    """num / den mod a prime q at index [num, den]; the den = 0 column is -1."""
    table = np.outer(np.arange(q, dtype=np.int64), _inverse_table(q))
    table %= q
    table[:, 0] = -1
    return _read_only(table.astype(np.int32))


def count_crossratio(a: PointSet, b: PointSet, lam: int) -> int:
    """Exact number of pairs ((a1,a2),(b1,b2)) with [a1,a2,b1,b2] = lam.

    Undefined cross-ratios never count.  Requires an odd prime q and lam
    outside {0, 1}, the rule `check_target` states.
    """
    return _count(IncidenceInstance("crossratio", a, b, lam))


def crossratio_main_term(size_a: int, size_b: int, q) -> Fraction:
    return Fraction(size_a * size_b, int(q))


def crossratio_bound_rhs(q, size_a: int, size_b: int) -> float:
    """4 q^(3/4) sqrt(|A||B|)."""
    return 4.0 * int(q) ** 0.75 * math.sqrt(size_a * size_b)


# ---------------------------------------------------------------------------
# instances and slack reports


def check_target(kind: str, q: int, lam: int) -> int:
    """`lam` mod q once `kind`'s equation admits it: dot needs a unit
    target, a cross-ratio an odd prime q (mod 2 every target is 0 or 1) and
    a target outside {0, 1}, and det's equation admits every q and target."""
    if kind == "crossratio" and (q == 2 or not is_prime(q)):
        raise InvalidModulusError(f"cross-ratios need an odd prime q, got {q}")
    lam %= q
    if kind == "dot" and math.gcd(lam, q) != 1:
        raise InvalidLambdaError(f"target {lam} is not a unit mod {q}")
    if kind == "crossratio" and lam in (0, 1):
        raise InvalidLambdaError(f"target {lam} is degenerate for cross-ratios mod {q}")
    return lam


def check_hypotheses(kind: str, q: int, lam: int) -> int:
    """`check_target`, then what the det bound adds to det's equation and
    every count needs: odd q and a nonzero target."""
    lam = check_target(kind, q, lam)
    if kind == "det" and q % 2 == 0:
        raise InvalidModulusError(f"determinant instances need odd q, got {q}")
    if kind == "det" and lam == 0:
        raise InvalidLambdaError(f"target 0 is excluded for determinants mod {q}")
    return lam


@dataclass(frozen=True)
class IncidenceInstance:
    """One fully validated (kind, A, B, lam) incidence-counting instance:
    A's and B's labels have the widths `label_widths` gives at A's width,
    and q and lam pass `check_hypotheses`, the rule `harness.make_config`
    applies at every listed modulus before a sweep's first row."""

    kind: str
    a: PointSet
    b: PointSet
    lam: int

    def __post_init__(self):
        widths = label_widths(self.kind, self.a.dimension)
        q = self.a.modulus.q
        if q != self.b.modulus.q:
            raise InvalidArgumentError(f"moduli differ: {q} vs {self.b.modulus.q}")
        if (self.a.dimension, self.b.dimension) != widths:
            raise InvalidArgumentError(
                f"{self.kind} instances need label widths {widths}, got "
                f"({self.a.dimension}, {self.b.dimension})")
        object.__setattr__(self, "lam", check_hypotheses(self.kind, q, self.lam))
        if self.kind == "dot":
            for ps in (self.a, self.b):
                gcds = np.gcd.reduce(np.gcd(ps.labels, q), axis=1)
                if (gcds != 1).any():  # labels are sorted: the first is the least
                    first = list(ps)[int(np.argmax(gcds != 1))]
                    raise InvalidArgumentError(
                        f"element {first!r} is not jointly coprime with {q}")

    @property
    def modulus(self):
        return self.a.modulus

    def hypothesis_warnings(self) -> tuple[str, ...]:
        """Hypotheses the bounds assume but counting does not require.

        Violations are surfaced here rather than raised, so instances beyond
        the proven range stay explorable.
        """
        out = []
        if self.kind == "dot" and self.modulus.least_prime < 5:
            out.append(f"least prime divisor {self.modulus.least_prime} < 5")
        if self.kind == "det" and not self.modulus.is_prime:
            out.append(f"modulus {self.modulus.q} is not prime")
        return tuple(out)


_SLACK_INF = float("inf")


@dataclass(frozen=True)
class SlackReport:
    """Outcome of one inequality check.

    error_lhs is the exact left-hand side (including any stated constant
    factor), bound_rhs the floating right-hand side, and slack their ratio,
    infinite when the error vanishes.
    """

    kind: str
    count: int
    main_term: Fraction
    error_lhs: Fraction
    bound_rhs: float
    slack: float
    warnings: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.slack >= 1.0


def _slack(error_lhs: Fraction, bound_rhs: float) -> float:
    if error_lhs == 0:
        return _SLACK_INF
    return bound_rhs / float(error_lhs)


def check_inequality(inst: IncidenceInstance) -> SlackReport:
    """Count the instance and compare the exact error with the stated bound.

    For det instances the check uses the |A||B|/q normalization with the
    stated 1/8 prefactor and the additive |A||B|/q^2 term; the alternative
    |A||B|/(q-1) main term is carried in extras, together with which of the
    two sits closer to the actual count.
    """
    q_mod = inst.modulus
    size_a, size_b = len(inst.a), len(inst.b)
    scale, extras = 1, {}
    if inst.kind == "dot":
        n = inst.a.dimension
        count = count_dot(inst.a, inst.b, inst.lam)
        main = dot_main_term(size_a, size_b, q_mod, n)
        rhs = dot_bound_rhs(q_mod, n, size_a, size_b)
    elif inst.kind == "det":
        d = inst.a.dimension
        count = count_det(inst.a, inst.b, inst.lam)
        mains = det_main_term(size_a, size_b, q_mod.q)
        main, scale = mains.per_modulus, Fraction(1, 8)
        rhs = det_bound_rhs(q_mod.q, d, size_a, size_b)
        dev_mod = abs(Fraction(count) - mains.per_modulus)
        dev_unit = abs(Fraction(count) - mains.per_unit_group)
        if dev_mod < dev_unit:
            fit = "per_modulus"
        elif dev_unit < dev_mod:
            fit = "per_unit_group"
        else:
            fit = "tie"
        extras = {"main_per_unit_group": mains.per_unit_group, "better_fit": fit}
    else:
        count = count_crossratio(inst.a, inst.b, inst.lam)
        main = crossratio_main_term(size_a, size_b, q_mod.q)
        rhs = crossratio_bound_rhs(q_mod.q, size_a, size_b)
    err = scale * abs(Fraction(count) - main)
    return SlackReport(inst.kind, count, main, err, rhs, _slack(err, rhs),
                       inst.hypothesis_warnings(), extras)
