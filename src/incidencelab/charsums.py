"""Character sums over prime fields: twisted Kloosterman sums, bilinear
forms, hyperbola counts, sums twisted by fractional-linear group actions,
and multiplicative energies of matrix families.

The sums take sets as iterables of residues mod p, plus optional weight
dicts (c_A, c_B) of complex weights of magnitude at most 1; a residue
missing from a dict has weight 1.  Every sum is evaluated in a fixed
order (sorted, or for energy_t2k a fixed block order over integer-coded
matrices, exact in int64) so repeated runs are bit identical, and the
heavyweight identities all come with an independently computed second
route (table vs direct sum, affine vs projective lift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _cartesian

import numpy as np

from .errors import InvalidArgumentError, TooLargeError
from .modring import (
    Character,
    _char_row,
    _check_table,
    _inverses,
    _roots,
    as_complex_vector,
    is_prime,
    mat2_inv,
    mat2_mul,
)

_WEIGHT_TOL = 1e-12
_LIFT_REL_TOL = 1e-6
DEFAULT_CONVOLUTION_CAP = 10 ** 7


@dataclass(frozen=True)
class MatrixFamily:
    """A finite subset of GL_2(F_p), elements stored as flat (a, b, c, d),
    sorted and distinct."""

    p: int
    elements: tuple

    def __len__(self) -> int:
        return len(self.elements)


def matrix_family(p: int, mats) -> MatrixFamily:
    """Validate and reduce a family of invertible 2x2 matrices mod p."""
    if not is_prime(p):
        raise InvalidArgumentError(f"matrix families need a prime modulus, got {p}")
    reduced = set()
    for g in mats:
        if len(g) != 4:
            raise InvalidArgumentError(f"expected flat (a, b, c, d) tuples, got {g!r}")
        a, b, c, d = (int(v) % p for v in g)
        if (a * d - b * c) % p == 0:
            raise InvalidArgumentError(f"matrix {g!r} is singular mod {p}")
        reduced.add((a, b, c, d))
    return MatrixFamily(p, tuple(sorted(reduced)))


@lru_cache(maxsize=8)
def enumerate_gl2(p: int) -> tuple[tuple[int, int, int, int], ...]:
    """All of GL_2(F_p), lexicographically.  Refuses p^4 candidate
    matrices over DEFAULT_CONVOLUTION_CAP with TooLargeError."""
    if not is_prime(p):
        raise InvalidArgumentError(f"GL_2 enumeration needs a prime, got {p}")
    if p ** 4 > DEFAULT_CONVOLUTION_CAP:
        raise TooLargeError(
            f"GL_2(F_{p}) from {p ** 4} candidates exceeds the cap {DEFAULT_CONVOLUTION_CAP}")
    return tuple(g for g in _cartesian(range(p), repeat=4)
                 if (g[0] * g[3] - g[1] * g[2]) % p)


def _residues(s, p: int) -> list[int]:
    """Sorted distinct residues mod p of an iterable of ints."""
    return sorted({int(x) % p for x in s})


def _weight_map(weights, elems) -> dict:
    """The weight of each element: from the dict, 1 where it has none."""
    out = {e: complex((weights or {}).get(e, 1.0)) for e in elems}
    for w in out.values():
        if abs(w) > 1.0 + _WEIGHT_TOL:
            raise InvalidArgumentError(f"weight magnitude {abs(w)} exceeds 1")
    return out


# ---------------------------------------------------------------------------
# Kloosterman sums and bilinear forms


def kloosterman(chi: Character, n: int, m: int) -> complex:
    """K_chi(n, m) = sum over units x of chi(x) e((n x + m x^-1) / p),
    summed in increasing order of x."""
    p = chi.p
    n %= p
    m %= p
    inv = _inverses(p)
    e_p = _roots(p)
    chi_of = _char_row(p, chi.generator, chi.index)
    total = 0j
    for x in range(1, p):
        total += chi_of[x] * e_p[(n * x + m * inv[x]) % p]
    return total


@lru_cache(maxsize=8)
def _kloosterman_table(p: int, generator: int, index: int) -> np.ndarray:
    """K_chi(n, m) for all (n, m), via one vectorized pass over the units.
    A table of p^2 entries above TABLE_CAP is refused with TooLargeError
    before anything is built."""
    _check_table("Kloosterman sums", p, p * p)
    chi = Character(p, generator, index)
    xs = np.arange(1, p, dtype=np.int64)
    xinv = np.array(_inverses(p)[1:], dtype=np.int64)
    chi_vals = chi.values()[1:]
    e_nx = np.exp(2j * np.pi * np.outer(np.arange(p), xs) / p)
    e_minv = np.exp(2j * np.pi * np.outer(np.arange(p), xinv) / p)
    return (e_nx * chi_vals) @ e_minv.T


def bilinear_form(chi: Character, alpha, beta) -> complex:
    """S_chi(alpha, beta) = sum_{n, m} alpha(n) beta(m) K_chi(n, m), via the
    precomputed Kloosterman table."""
    p = chi.p
    a = as_complex_vector(alpha, p)
    b = as_complex_vector(beta, p)
    table = _kloosterman_table(p, chi.generator, chi.index)
    return complex(a @ table @ b)


def bilinear_form_direct(chi: Character, alpha, beta) -> complex:
    """The same bilinear form as a literal double sum over (n, m) of the
    literal Kloosterman sums.

    It is the independent route `bilinear_form` is compared against, so it
    reads neither `_char_values` nor `_kloosterman_table`: its terms are
    roots of unity that cmath.exp evaluated once per prime, where the table
    route multiplies matrices of np.exp values.  The two share only the
    exact integer table of inverses mod p.
    """
    p = chi.p
    a = as_complex_vector(alpha, p)
    b = as_complex_vector(beta, p)
    total = 0j
    for n in range(p):
        if a[n] == 0:
            continue
        for m in range(p):
            if b[m] == 0:
                continue
            total += a[n] * b[m] * kloosterman(chi, n, m)
    return total


# ---------------------------------------------------------------------------
# hyperbola and group-twisted sums


@dataclass(frozen=True)
class HyperbolaSum:
    """Value of a weighted hyperbola character sum plus its trivial bound
    sqrt(|A||B|) |X||Y|."""

    value: complex
    trivial_bound: float


def hyperbola_sum(chi: Character, a_set, b_set, x_set, y_set,
                  c_a=None, c_b=None) -> HyperbolaSum:
    """sum over (a, x, b, y) with (a + x)(b + y) = 1 of c_A(a) c_B(b) chi(a + x).

    Enumerates A x X and solves for b + y; terms with a + x = 0 vanish since
    chi(0) = 0 and the equation has no solution there anyway.
    """
    p = chi.p
    aa = _residues(a_set, p)
    bb = _residues(b_set, p)
    xx = _residues(x_set, p)
    yy = _residues(y_set, p)
    wa = _weight_map(c_a, aa)
    wb = _weight_map(c_b, bb)
    y_lookup = set(yy)
    inv = _inverses(p)
    chi_of = _char_row(p, chi.generator, chi.index)
    inner_cache: dict[int, complex] = {}
    total = 0j
    for a in aa:
        for x in xx:
            s = (a + x) % p
            if s == 0:
                continue
            t = inv[s]
            inner = inner_cache.get(t)
            if inner is None:
                inner = sum((wb[b] for b in bb if (t - b) % p in y_lookup), 0j)
                inner_cache[t] = inner
            total += wa[a] * chi_of[s] * inner
    trivial = math.sqrt(len(aa) * len(bb)) * len(xx) * len(yy)
    return HyperbolaSum(total, trivial)


def hyperbola_group(p: int, a_set, b_set) -> MatrixFamily:
    """The matrices x -> 1/(a + x) - b, one per (a, b); all have
    determinant -1 and are pairwise distinct."""
    aa = _residues(a_set, p)
    bb = _residues(b_set, p)
    mats = [((-b) % p, (1 - a * b) % p, 1, a) for a in aa for b in bb]
    return matrix_family(p, mats)


def group_twisted_sum(chi: Character, family: MatrixFamily, a_set, b_set,
                      c_a=None, c_b=None) -> complex:
    """sum over a in A, b in B, g in G with g a = b of
    c_A(a) c_B(b) chi(gamma a + delta), where g acts by
    a -> (alpha a + beta) / (gamma a + delta); poles contribute nothing."""
    p = family.p
    if chi.p != p:
        raise InvalidArgumentError(f"character mod {chi.p} does not match family mod {p}")
    aa = _residues(a_set, p)
    bb = _residues(b_set, p)
    wa = _weight_map(c_a, aa)
    wb = _weight_map(c_b, bb)
    b_lookup = set(bb)
    inv = _inverses(p)
    chi_of = _char_row(p, chi.generator, chi.index)
    total = 0j
    for g in family.elements:
        alpha, beta, gamma, delta = g
        for a in aa:
            den = (gamma * a + delta) % p
            if den == 0:
                continue
            b = (alpha * a + beta) * inv[den] % p
            if b in b_lookup:
                total += wa[a] * wb[b] * chi_of[den]
    return total


@dataclass(frozen=True)
class LiftCheck:
    """Comparison of the projective-plane lift of a group-twisted sum with
    (p - 1) times its affine evaluation `affine`."""

    lifted: complex
    affine: complex
    affine_scaled: complex
    residual: float
    tolerance: float
    passed: bool


def projective_lift_check(chi: Character, family: MatrixFamily, a_set, b_set,
                          c_a=None, c_b=None) -> LiftCheck:
    """Evaluate the twisted sum through its linear lift to (F_p)^2 minus 0.

    A lifts to (lambda a, lambda) -> c_A(a) conj(chi(lambda)), B likewise
    with chi(mu); the group then acts linearly, and the lifted bilinear sum
    must equal (p - 1) times the affine one.  The residual is measured
    against 1e-6 * (p - 1) * sqrt(|A||B|) * |G|.
    """
    p = family.p
    if chi.p != p:
        raise InvalidArgumentError(f"character mod {chi.p} does not match family mod {p}")
    aa = _residues(a_set, p)
    bb = _residues(b_set, p)
    wa = _weight_map(c_a, aa)
    wb = _weight_map(c_b, bb)
    chi_of = _char_row(p, chi.generator, chi.index)

    support_a = []
    for a in aa:
        for lam in range(1, p):
            support_a.append((lam * a % p, lam, wa[a] * chi_of[lam].conjugate()))
    lift_b = np.zeros((p, p), dtype=complex)
    for b in bb:
        for mu in range(1, p):
            lift_b[mu * b % p, mu] = wb[b] * chi_of[mu]

    lifted = 0j
    for g in family.elements:
        alpha, beta, gamma, delta = g
        for x1, x2, val in support_a:
            y1 = (alpha * x1 + beta * x2) % p
            y2 = (gamma * x1 + delta * x2) % p
            lifted += val * lift_b[y1, y2]

    affine = group_twisted_sum(chi, family, a_set, b_set, c_a, c_b)
    affine_scaled = (p - 1) * affine
    residual = abs(lifted - affine_scaled)
    tolerance = _LIFT_REL_TOL * (p - 1) * math.sqrt(len(aa) * len(bb)) * len(family)
    return LiftCheck(lifted, affine, affine_scaled, residual, tolerance,
                     residual < tolerance)


# ---------------------------------------------------------------------------
# multiplicative energy of matrix families


# Products per block: a block's dozen int64 temporaries stay near 1.5 MB
# while the per-block interpreter overhead stays small against the work.
_BLOCK_PAIRS = 1 << 14


def _encode(entries, p: int) -> np.ndarray:
    """Integer codes ((a p + b) p + c) p + d of matrices given entrywise; the
    code order is the lexicographic order of the (a, b, c, d) tuples."""
    a, b, c, d = entries
    return ((a * p + b) * p + c) * p + d


def _decode(codes: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    return codes // p ** 3, codes // p ** 2 % p, codes // p % p, codes % p


def _codes(mats, p: int) -> np.ndarray:
    return _encode(np.array(mats, dtype=np.int64).reshape(-1, 4).T, p)


def _convolve(left, right, p: int):
    """Sparse (codes, weights) of z -> sum over x y = z of left(x) right(y).

    Products are formed in blocks of at most _BLOCK_PAIRS pairs (a run of
    left rows against a run of right columns) and summed into a dense table
    indexed by code; a code is in the support once some product reaches it,
    as in a dict keyed by products.
    """
    (left_codes, left_w), (right_codes, right_w) = left, right
    left_m, right_m = _decode(left_codes, p), _decode(right_codes, p)
    table = np.zeros(p ** 4, dtype=left_w.dtype)
    reached = np.zeros(p ** 4, dtype=bool)
    rows = max(1, _BLOCK_PAIRS // max(1, len(right_codes)))
    for r in range(0, len(left_codes), rows):
        lhs = slice(r, r + rows)
        for c in range(0, len(right_codes), _BLOCK_PAIRS):
            rhs = slice(c, c + _BLOCK_PAIRS)
            z = _encode(mat2_mul([e[lhs, None] for e in left_m],
                                 [e[None, rhs] for e in right_m], p), p).ravel()
            np.add.at(table, z, (left_w[lhs, None] * right_w[None, rhs]).ravel())
            reached[z] = True
    codes = np.flatnonzero(reached)
    return codes, table[codes]


def energy_t2k(family: MatrixFamily, k: int = 2,
               cap: int = DEFAULT_CONVOLUTION_CAP) -> int:
    """2k-fold multiplicative energy T(G) of the family inside GL_2(F_p).

    Builds c(x) = #{(g, h) in G^2 : g h^-1 = x} and convolves it with
    itself k - 1 times; the result is sum_x c_k(x)^2.  The balanced energy
    of f_G = 1_G - |G| / |GL_2| follows exactly from it as
    T(G) - |G|^(4k) / |GL_2|.

    Matrices are integer codes ((a p + b) p + c) p + d, multiplied in
    vectorized blocks and summed with int64 weights into a dense table of
    p^4 entries.  The count is exact: every partial sum is at most
    |G|^(2k), so a family with |G|^(2k) >= 2^63 is refused, and the result
    is a Python int summed with Python ints.  ``cap`` bounds both the table
    size p^4 and the products formed: |G|^2 for c, plus
    support(c_j) * support(c) before each further convolution, where the
    support is every product reached.  Over any of these limits the call
    raises TooLargeError; the table and int64 limits are checked before
    anything is allocated.
    """
    if k not in (2, 3):
        raise InvalidArgumentError(f"supported energies are k = 2 or 3, got {k}")
    p = family.p
    if p ** 4 > cap:
        raise TooLargeError(f"a table of {p ** 4} codes exceeds the convolution cap {cap}")
    if len(family) ** (2 * k) >= 2 ** 63:
        raise TooLargeError(f"|G|^{2 * k} with |G| = {len(family)} overflows int64")
    mats = family.elements
    budget = len(mats) ** 2
    if budget > cap:
        raise TooLargeError(f"{budget} products exceed the convolution cap {cap}")

    weights = np.ones(len(mats), dtype=np.int64)
    codes = _codes(mats, p)
    inverses = _codes([mat2_inv(g, p) for g in mats], p)
    base = _convolve((codes, weights), (inverses, weights), p)

    acc = base
    for _ in range(k - 1):
        budget += len(acc[0]) * len(base[0])
        if budget > cap:
            raise TooLargeError(f"{budget} products exceed the convolution cap {cap}")
        acc = _convolve(acc, base, p)
    return sum(v * v for v in acc[1].tolist())


def twisted_bound_rhs(k: int, size_a: int, size_b: int, size_g: int, t2k) -> float:
    """Right-hand side of the twisted-sum estimate:
    sqrt(|A||B||G|) T^(1/8k) + sqrt(|A||B|) |G| max(|A|, |B|)^(-1/2k)."""
    if min(size_a, size_b, size_g) < 0:
        raise InvalidArgumentError("sizes must be nonnegative")
    t = float(t2k)
    if t < 0:
        raise InvalidArgumentError(f"energy must be nonnegative, got {t}")
    if size_a * size_b == 0:
        return 0.0
    first = math.sqrt(size_a * size_b * size_g) * t ** (1.0 / (8 * k))
    second = math.sqrt(size_a * size_b) * size_g * max(size_a, size_b) ** (-1.0 / (2 * k))
    return first + second


# ---------------------------------------------------------------------------
# intersection character sums


@dataclass(frozen=True)
class IntersectionSum:
    """Character sum over a structured intersection, with the trivial
    comparison quantity |A|^2 / p and the count of dropped non-units."""

    value: complex
    intersection_size: int
    comparison: float
    dropped: int


def intersection_char_sum(chi: Character, a_set,
                          variant: str = "multiplicative") -> IntersectionSum:
    """Sum chi over A cap A^-1 ("multiplicative") or over
    A^-1 cap (A^-1 + 1) ("shifted").  Non-units of A are dropped and
    counted, never silently ignored."""
    p = chi.p
    aa = _residues(a_set, p)
    units = [a for a in aa if a % p != 0]
    dropped = len(aa) - len(units)
    inverses = _inverses(p)
    inv = {inverses[a] for a in units}
    if variant == "multiplicative":
        target = set(units) & inv
    elif variant == "shifted":
        target = inv & {(x + 1) % p for x in inv}
    else:
        raise InvalidArgumentError(f"unknown variant {variant!r}")
    chi_of = _char_row(p, chi.generator, chi.index)
    value = sum((chi_of[x] for x in sorted(target)), 0j)
    return IntersectionSum(value, len(target), len(aa) ** 2 / p, dropped)
