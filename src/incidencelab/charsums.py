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

The sums are array kernels that keep the bits of a per-term Python loop
`total = 0j; total += t`: each complex product is formed on float parts by
CPython's formula (`_product`), and each sum adds its terms one at a time
in order from +0.0 (`_running_sum`).  numpy's complex `*` and `np.sum`
would round differently.  Terms are formed in blocks of at most
_BLOCK_PAIRS, the running total carried from one block to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from itertools import product as _cartesian

import numpy as np

from .errors import InvalidArgumentError, TooLargeError
from .modring import (
    TABLES_KEPT,
    Character,
    _char_row,
    _check_table,
    _inverse_table,
    _read_only,
    _roots,
    as_complex_vector,
    is_prime,
    mat2_inv,
    mat2_mul,
    sorted_residues,
)

_WEIGHT_TOL = 1e-12
_LIFT_REL_TOL = 1e-6
DEFAULT_CONVOLUTION_CAP = 10 ** 7

# Terms (or products) per block of every sum and convolution: a block's
# temporaries stay near a megabyte while the per-block interpreter overhead
# stays small against the work.
_BLOCK_PAIRS = 1 << 14


@dataclass(frozen=True, eq=False)
class MatrixFamily:
    """A finite subset of GL_2(F_p) for a prime p < 2^31.

    `elements` is one read-only (N, 4) int64 array of the distinct flat
    matrices (a, b, c, d), meaning [[a, b], [c, d]], in lexicographic
    order, as `PointSet.labels` holds a point set: the sums read it in
    place.  Construct through :func:`matrix_family` or
    :func:`hyperbola_group`."""

    p: int
    elements: np.ndarray

    def __len__(self) -> int:
        return len(self.elements)


def matrix_family(p: int, mats) -> MatrixFamily:
    """Validate and reduce a family of invertible 2x2 matrices mod p.

    The entries are reduced by Python's % as one array into the int64
    `elements` of the family.  A prime p >= 2^31, whose determinants of
    residues overflow int64, is refused with TooLargeError.  The first
    matrix in the given order that is not a flat 4-tuple or is singular
    is reported."""
    _check_family_modulus(p)
    mats = list(mats)
    wrong = np.flatnonzero(np.fromiter(map(len, mats), dtype=np.int64, count=len(mats)) != 4)
    whole = mats[:wrong[0]] if len(wrong) else mats
    flat = np.fromiter(chain.from_iterable(whole), dtype=object, count=4 * len(whole))
    reduced = (flat % p).astype(np.int64).reshape(-1, 4)
    a, b, c, d = reduced.T
    singular = np.flatnonzero((a * d - b * c) % p == 0)
    if len(singular):
        raise InvalidArgumentError(f"matrix {mats[singular[0]]!r} is singular mod {p}")
    if len(wrong):
        raise InvalidArgumentError(f"expected flat (a, b, c, d) tuples, got {mats[wrong[0]]!r}")
    return _family(p, reduced)


def _check_family_modulus(p: int) -> None:
    if not is_prime(p):
        raise InvalidArgumentError(f"matrix families need a prime modulus, got {p}")
    if p >= 2 ** 31:
        raise TooLargeError(
            f"matrix families mod {p}: determinants of residues overflow int64 from 2^31")


def _family(p: int, reduced: np.ndarray) -> MatrixFamily:
    """The family of the invertible int64 rows `reduced`, sorted with the
    repeats dropped, held read-only."""
    ordered = reduced[np.lexsort(reduced.T[::-1])]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return MatrixFamily(p, _read_only(ordered[first]))


@lru_cache(maxsize=TABLES_KEPT)
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


def gl2_order(p: int) -> int:
    """|GL_2(F_p)| = (p^2 - 1)(p^2 - p) for a prime p."""
    return (p * p - 1) * (p * p - p)


def unrank_gl2(p: int, index: int) -> tuple[int, int, int, int]:
    """enumerate_gl2(p)[index], decoded with no table.

    In lexicographic order each nonzero first row (a, b) heads a block of
    p^2 - p second rows: every (c, d) except the p multiples t (a, b), so
    the position of (c, d) in the block is raised past each multiple that
    sorts at or before it."""
    if not 0 <= index < gl2_order(p):
        raise InvalidArgumentError(
            f"GL_2(F_{p}) has {gl2_order(p)} elements, got index {index}")
    first, second = divmod(index, p * p - p)
    a, b = divmod(first + 1, p)
    for skip in sorted(t * a % p * p + t * b % p for t in range(p)):
        if skip > second:
            break
        second += 1
    return (a, b, *divmod(second, p))


def _weights(weights, elems) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of each element's weight: from the dict, 1 where it has none."""
    out = [complex((weights or {}).get(e, 1.0)) for e in elems]
    for w in out:
        if abs(w) > 1.0 + _WEIGHT_TOL:
            raise InvalidArgumentError(f"weight magnitude {abs(w)} exceeds 1")
    return _parts(out)


def _parts(values) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of a sequence of complex numbers."""
    z = np.array(values, dtype=complex)
    return z.real.copy(), z.imag.copy()


def _product(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """(ar + i ai)(br + i bi) on float parts by CPython's formula for a
    complex product, so it has the bits of `complex * complex` (and of a
    numpy complex scalar product); numpy's complex array loop may round
    otherwise."""
    return ar * br - ai * bi, ar * bi + ai * br


def _running_sum(start, terms) -> np.ndarray:
    """start + terms[..., 0] + terms[..., 1] + ... added left to right along
    the last axis, one IEEE addition per term as `total += t` does; np.sum
    and sum() may add in another order."""
    head = np.reshape(start, np.shape(start) + (1,))
    return np.add.accumulate(np.concatenate((head, terms), axis=-1), axis=-1)[..., -1]


def _spread(values: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """values broadcast to the shape of the mask hit, at its True cells in
    row-major order."""
    return np.broadcast_to(values, hit.shape)[hit]


def _grid_blocks(rows: int, width: int):
    """(run, cols) slices that cover range(rows) x range(width) in row-major
    order: runs of whole rows of at most _BLOCK_PAIRS cells, or single
    rows in runs of _BLOCK_PAIRS columns when a row is longer."""
    step = max(1, min(width, _BLOCK_PAIRS))
    height = _BLOCK_PAIRS // step
    for r in range(0, rows, height):
        for c in range(0, width, step):
            yield slice(r, r + height), slice(c, c + step)


def _sum_blocks(blocks) -> complex:
    """0j + t_0 + t_1 + ... over the (re, im) term blocks in turn, each
    block's terms in row-major order."""
    re = im = 0.0
    for t_re, t_im in blocks:
        re = _running_sum(re, t_re.ravel())
        im = _running_sum(im, t_im.ravel())
    return complex(re, im)


def _row_sums(rows: int, width: int, terms) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of 0j + t[r, 0] + t[r, 1] + ... + t[r, width - 1] for each
    row r, in order.  terms(run, cols) gives the (re, im) block of the terms
    of the rows in the slice run at the columns in the slice cols, the
    blocks of `_grid_blocks`; a row split over several blocks carries its
    total from one to the next."""
    re, im = np.zeros(rows), np.zeros(rows)
    for run, cols in _grid_blocks(rows, width):
        t_re, t_im = terms(run, cols)
        re[run] = _running_sum(re[run], t_re)
        im[run] = _running_sum(im[run], t_im)
    return re, im


# ---------------------------------------------------------------------------
# Kloosterman sums and bilinear forms


def kloosterman(chi: Character, n: int, m: int) -> complex:
    """K_chi(n, m) = sum over units x of chi(x) e((n x + m x^-1) / p),
    summed in increasing order of x."""
    p = chi.p
    re, im = _kloosterman_sums(chi, np.array([n % p]), np.array([m % p]))
    return complex(re[0], im[0])


def _kloosterman_sums(chi: Character, ns: np.ndarray, ms: np.ndarray):
    """(re, im) of K_chi(n, m) for each pair of ns x ms in row-major order,
    each summed over x = 1 .. p - 1 in increasing order, as `kloosterman`
    documents.  The terms chi(x) e_p(n x + m x^-1) read the inverse, root
    of unity and character-row tables by exact int64 indices."""
    p = chi.p
    inv = _inverse_table(p)[1:]
    e = _roots(p)
    c = _char_row(p, chi.index)[1:]
    xs = np.arange(1, p, dtype=np.int64)
    pairs = len(ns) * len(ms)

    def terms(run, cols):
        pair = np.arange(*run.indices(pairs), dtype=np.int64)[:, None]
        n, m = ns[pair // len(ms)], ms[pair % len(ms)]
        phase = (n * xs[cols] + m * inv[cols]) % p
        return _product(c.real[cols], c.imag[cols], e.real[phase], e.imag[phase])
    return _row_sums(pairs, p - 1, terms)


@lru_cache(maxsize=TABLES_KEPT)
def _kloosterman_table(p: int, index: int) -> np.ndarray:
    """K_chi(n, m) for all (n, m), via one vectorized pass over the units.
    A table of p^2 entries above TABLE_CAP is refused with TooLargeError
    before anything is built."""
    _check_table("Kloosterman sums", p, p * p)
    xs = np.arange(1, p, dtype=np.int64)
    xinv = _inverse_table(p)[1:]
    chi_vals = Character(p, index).values()[1:]
    e_nx = np.exp(2j * np.pi * np.outer(np.arange(p), xs) / p)
    e_minv = np.exp(2j * np.pi * np.outer(np.arange(p), xinv) / p)
    return _read_only((e_nx * chi_vals) @ e_minv.T)


def bilinear_form(chi: Character, alpha, beta) -> complex:
    """S_chi(alpha, beta) = sum_{n, m} alpha(n) beta(m) K_chi(n, m), via the
    precomputed Kloosterman table."""
    p = chi.p
    a = as_complex_vector(alpha, p)
    b = as_complex_vector(beta, p)
    table = _kloosterman_table(p, chi.index)
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
    ns, ms = np.flatnonzero(a), np.flatnonzero(b)
    if not (len(ns) and len(ms)):
        return 0j
    k_re, k_im = (k.reshape(len(ns), len(ms)) for k in _kloosterman_sums(chi, ns, ms))

    def terms():
        for run, cols in _grid_blocks(len(ns), len(ms)):
            n, m = ns[run, None], ms[cols]
            weight = _product(a.real[n], a.imag[n], b.real[m], b.imag[m])
            yield _product(*weight, k_re[run, cols], k_im[run, cols])
    # a numpy scalar, the type of a sum of the numpy scalar terms a(n) b(m) K
    return np.complex128(_sum_blocks(terms()))


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
    aa = sorted_residues(a_set, p)
    bb = sorted_residues(b_set, p)
    xx = sorted_residues(x_set, p)
    yy = sorted_residues(y_set, p)
    wa_re, wa_im = _weights(c_a, aa)
    wb_re, wb_im = _weights(c_b, bb)
    inv = _inverse_table(p)
    c = _char_row(p, chi.index)
    a, b, x = (np.array(v, dtype=np.int64) for v in (aa, bb, xx))
    in_y = np.zeros(p, dtype=bool)
    in_y[yy] = True
    # the s = a + x that occur, and for each the inner sum over b in B with
    # 1/s - b in Y, in the order of B; a b outside adds +0.0, which leaves
    # a running total from +0.0 unchanged (it is never -0.0)
    reached = np.zeros(p, dtype=bool)
    for run, cols in _grid_blocks(len(a), len(x)):
        reached[(a[run, None] + x[cols]) % p] = True
    reached[0] = False
    occurring = np.flatnonzero(reached)

    def inner_terms(run, cols):
        hit = in_y[(inv[occurring[run], None] - b[cols]) % p]
        return np.where(hit, wb_re[cols], 0.0), np.where(hit, wb_im[cols], 0.0)
    inner_re, inner_im = np.zeros(p), np.zeros(p)
    inner_re[occurring], inner_im[occurring] = _row_sums(len(occurring), len(b), inner_terms)

    def terms():
        for run, cols in _grid_blocks(len(a), len(x)):
            s = (a[run, None] + x[cols]) % p
            hit = s != 0
            w_re, w_im = (_spread(w[run, None], hit) for w in (wa_re, wa_im))
            s = s[hit]
            weight = _product(w_re, w_im, c.real[s], c.imag[s])
            yield _product(*weight, inner_re[s], inner_im[s])
    trivial = math.sqrt(len(aa) * len(bb)) * len(xx) * len(yy)
    return HyperbolaSum(_sum_blocks(terms()), trivial)


def hyperbola_group(p: int, a_set, b_set) -> MatrixFamily:
    """The matrices x -> 1/(a + x) - b, one per (a, b), built as one array;
    all have determinant -1 and are pairwise distinct.  A family of
    |A| |B| matrices above TABLE_CAP is refused with TooLargeError before
    it is built."""
    _check_family_modulus(p)
    aa = sorted_residues(a_set, p)
    bb = sorted_residues(b_set, p)
    _check_table("hyperbola group", p, len(aa) * len(bb))
    a = np.repeat(np.array(aa, dtype=np.int64), len(bb))
    b = np.tile(np.array(bb, dtype=np.int64), len(aa))
    mats = np.stack((-b % p, (1 - a * b) % p, np.ones_like(a), a), axis=1)
    return _family(p, mats)


def group_twisted_sum(chi: Character, family: MatrixFamily, a_set, b_set,
                      c_a=None, c_b=None) -> complex:
    """sum over a in A, b in B, g in G with g a = b of
    c_A(a) c_B(b) chi(gamma a + delta), where g acts by
    a -> (alpha a + beta) / (gamma a + delta); poles contribute nothing."""
    p = family.p
    if chi.p != p:
        raise InvalidArgumentError(f"character mod {chi.p} does not match family mod {p}")
    aa = sorted_residues(a_set, p)
    bb = sorted_residues(b_set, p)
    wa_re, wa_im = _weights(c_a, aa)
    wb_re, wb_im = _weights(c_b, bb)
    inv = _inverse_table(p)
    c = _char_row(p, chi.index)
    a = np.array(aa, dtype=np.int64)
    where_b = np.full(p, -1, dtype=np.int64)
    where_b[bb] = np.arange(len(bb))
    mats = family.elements

    def terms():
        for run, cols in _grid_blocks(len(mats), len(a)):
            alpha, beta, gamma, delta = mats[run, :, None].transpose(1, 0, 2)
            den = (gamma * a[cols] + delta) % p
            # below p^3 + p^2 < 2^63, as p is within the inverse table's cap
            j = where_b[(alpha * a[cols] + beta) * inv[den] % p]
            hit = (den != 0) & (j >= 0)
            j, den = j[hit], den[hit]
            w_re, w_im = (_spread(w[cols], hit) for w in (wa_re, wa_im))
            weight = _product(w_re, w_im, wb_re[j], wb_im[j])
            yield _product(*weight, c.real[den], c.imag[den])
    return _sum_blocks(terms())


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
    aa = sorted_residues(a_set, p)
    bb = sorted_residues(b_set, p)
    wa_re, wa_im = _weights(c_a, aa)
    wb_re, wb_im = _weights(c_b, bb)
    c = _char_row(p, chi.index)
    lam = np.arange(1, p, dtype=np.int64)

    # the support of the lifted A, (lam a, lam) for a in A and lam a unit,
    # with the value c_A(a) conj(chi(lam)); a outer, lam inner
    i, lam_a = np.divmod(np.arange(len(aa) * (p - 1), dtype=np.int64), p - 1)
    x2 = lam[lam_a]
    x1 = np.array(aa, dtype=np.int64)[i] * x2 % p
    val_re, val_im = _product(wa_re[i], wa_im[i], c.real[x2], -c.imag[x2])
    # the lifted B as a flat p x p table, (mu b, mu) -> c_B(b) chi(mu)
    j, mu = np.divmod(np.arange(len(bb) * (p - 1), dtype=np.int64), p - 1)
    mu = lam[mu]
    lift_re, lift_im = np.zeros(p * p), np.zeros(p * p)
    cell = np.array(bb, dtype=np.int64)[j] * mu % p * p + mu
    lift_re[cell], lift_im[cell] = _product(wb_re[j], wb_im[j], c.real[mu], c.imag[mu])

    mats = family.elements

    def terms():
        for run, cols in _grid_blocks(len(mats), len(x1)):
            alpha, beta, gamma, delta = mats[run, :, None].transpose(1, 0, 2)
            y1 = (alpha * x1[cols] + beta * x2[cols]) % p
            cell = y1 * p + (gamma * x1[cols] + delta * x2[cols]) % p
            yield _product(val_re[cols], val_im[cols], lift_re[cell], lift_im[cell])
    lifted = _sum_blocks(terms())
    if len(mats) * len(x1):
        lifted = np.complex128(lifted)  # the type of a sum of numpy scalar terms

    affine = group_twisted_sum(chi, family, a_set, b_set, c_a, c_b)
    affine_scaled = (p - 1) * affine
    residual = abs(lifted - affine_scaled)
    tolerance = _LIFT_REL_TOL * (p - 1) * math.sqrt(len(aa) * len(bb)) * len(family)
    # both routes are exactly 0 when G, A or B is empty, and so is the tolerance
    return LiftCheck(lifted, affine, affine_scaled, residual, tolerance,
                     residual == 0 or residual < tolerance)


# ---------------------------------------------------------------------------
# multiplicative energy of matrix families


def _encode(entries, p: int) -> np.ndarray:
    """Integer codes ((a p + b) p + c) p + d of matrices given entrywise; the
    code order is the lexicographic order of the (a, b, c, d) tuples."""
    a, b, c, d = entries
    return ((a * p + b) * p + c) * p + d


def _decode(codes: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    return codes // p ** 3, codes // p ** 2 % p, codes // p % p, codes % p


def _row_table(right, p: int) -> np.ndarray:
    """[u p + v, j]: the code u' p + v' of the row (u', v') = (u, v) y_j for
    every row vector (u, v) and each matrix y_j of `right`, given
    entrywise.  It is `mat2_mul` of the matrices (0, 0, u, v), whose codes
    are u p + v, so the product law stays written in one place."""
    rows = _decode(np.arange(p * p, dtype=np.int64), p)
    return _encode(mat2_mul([e[:, None] for e in rows], [e[None, :] for e in right], p), p)


def _convolve(left, right, p: int):
    """Sparse (codes, weights) of z -> sum over x y = z of left(x) right(y).

    The code of x y is (top row of x times y) p^2 + (bottom row of x times
    y): two gathers from the `_row_table` of a run of right factors, which
    holds at most _BLOCK_PAIRS entries when p^2 allows.  Products are
    formed in blocks of at most _BLOCK_PAIRS pairs (a run of left rows
    against the table's run) and summed into a dense table indexed by code.
    A code is in the support once some product reaches it, as in a dict
    keyed by products.
    """
    (left_codes, left_w), (right_codes, right_w) = left, right
    span = p * p
    top, bottom = np.divmod(left_codes, span)
    right_m = _decode(right_codes, p)
    table = np.zeros(p ** 4, dtype=left_w.dtype)
    reached = np.zeros(p ** 4, dtype=bool)
    cols = max(1, _BLOCK_PAIRS // span)
    rows = max(1, _BLOCK_PAIRS // max(1, min(cols, len(right_codes))))
    for c in range(0, len(right_codes), cols):
        rhs = slice(c, c + cols)
        times = _row_table([e[rhs] for e in right_m], p)
        for r in range(0, len(left_codes), rows):
            lhs = slice(r, r + rows)
            z = (times[top[lhs]] * span + times[bottom[lhs]]).ravel()
            np.add.at(table, z, (left_w[lhs, None] * right_w[None, rhs]).ravel())
            reached[z] = True
    codes = np.flatnonzero(reached)
    return codes, table[codes]


def energy_t2k(family: MatrixFamily, k: int = 2) -> int:
    """2k-fold multiplicative energy T(G) of the family inside GL_2(F_p).

    Builds c(x) = #{(g, h) in G^2 : g h^-1 = x} and convolves it with
    itself k - 1 times; the result is sum_x c_k(x)^2.  The balanced energy
    of f_G = 1_G - |G| / |GL_2| follows exactly from it as
    T(G) - |G|^(4k) / |GL_2|.

    Matrices are integer codes ((a p + b) p + c) p + d, multiplied in
    vectorized blocks and summed with int64 weights into a dense table of
    p^4 entries.  The count is exact: every partial sum is at most
    |G|^(2k), so a family with |G|^(2k) >= 2^63 is refused.  The counts sum
    to |G|^(2k), so their sum of squares is at most the largest count times
    |G|^(2k): it is summed in int64 below 2^63 and in Python ints from
    there, and returned as a Python int.  DEFAULT_CONVOLUTION_CAP, read at
    each call, bounds both the table size p^4 and the products formed: |G|^2 for c, plus
    support(c_j) * support(c) before each further convolution, where the
    support is every product reached.  Over any of these limits the call
    raises TooLargeError; the table and int64 limits are checked before
    anything is allocated.
    """
    if k not in (2, 3):
        raise InvalidArgumentError(f"supported energies are k = 2 or 3, got {k}")
    p, cap = family.p, DEFAULT_CONVOLUTION_CAP
    if p ** 4 > cap:
        raise TooLargeError(f"a table of {p ** 4} codes exceeds the convolution cap {cap}")
    if len(family) ** (2 * k) >= 2 ** 63:
        raise TooLargeError(f"|G|^{2 * k} with |G| = {len(family)} overflows int64")
    budget = len(family) ** 2
    if budget > cap:
        raise TooLargeError(f"{budget} products exceed the convolution cap {cap}")

    weights = np.ones(len(family), dtype=np.int64)
    entries = family.elements.T
    codes = _encode(entries, p)
    inverses = _encode(mat2_inv(entries, p), p)
    base = _convolve((codes, weights), (inverses, weights), p)

    acc = base
    for _ in range(k - 1):
        budget += len(acc[0]) * len(base[0])
        if budget > cap:
            raise TooLargeError(f"{budget} products exceed the convolution cap {cap}")
        acc = _convolve(acc, base, p)
    counts = acc[1]
    if int(counts.max(initial=0)) * len(family) ** (2 * k) >= 2 ** 63:
        counts = counts.astype(object)
    return int(counts @ counts)


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
    aa = sorted_residues(a_set, p)
    units = np.array(aa, dtype=np.int64)
    units = units[units != 0]
    dropped = len(aa) - len(units)
    in_inverses = np.zeros(p, dtype=bool)
    in_inverses[_inverse_table(p)[units]] = True
    if variant == "multiplicative":
        other = np.zeros(p, dtype=bool)
        other[units] = True
    elif variant == "shifted":
        other = np.roll(in_inverses, 1)  # x - 1 in A^-1
    else:
        raise InvalidArgumentError(f"unknown variant {variant!r}")
    target = np.flatnonzero(in_inverses & other)
    c = _char_row(p, chi.index)
    value = _sum_blocks((c.real[target[cols]], c.imag[target[cols]])
                        for _, cols in _grid_blocks(1, len(target)))
    return IntersectionSum(value, len(target), len(aa) ** 2 / p, dropped)
