"""Incidence matrices and their spectra.

Matrices are dense 0/1 arrays indexed by explicit label families; their
entries come from `incidence.value_blocks`, the evaluation the counts use
too.  The symmetric eigensolver is a cyclic Jacobi iteration written here
on purpose: the spectra are the object under study, so the solver must be
auditable.  Its rotation order and arithmetic are fixed, so its values
are reproducible to the bit.  Fourth moments of the spectrum are checked
against an exact integer Gram computation (the rectangular norm), giving
a dual-route consistency test for every matrix, and every matrix is
checked to be invariant under a generating set of its equation's
symmetry group (signed permutations, SL_2, PGL_2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidLambdaError,
    InvalidModulusError,
    MappingError,
    TooLargeError,
)
from .incidence import value_blocks
from .modring import Modulus, as_modulus, coprime_tuples, mobius, primitive_root

DEFAULT_MATRIX_CAP = 5000
_JACOBI_TOL = 1e-10
_JACOBI_MAX_SWEEPS = 100


@dataclass(frozen=True)
class IncidenceMatrix:
    """A 0/1 incidence matrix M(a, b) = [equation(a, b) = lam] with its
    row/column label families.  ``d`` is the vector length for det kind."""

    kind: str
    modulus: Modulus
    lam: int
    row_index: tuple
    col_index: tuple
    entries: np.ndarray
    d: int | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def row_position(self) -> dict:
        return {label: i for i, label in enumerate(self.row_index)}

    def col_position(self) -> dict:
        return {label: j for j, label in enumerate(self.col_index)}


def build_matrix(kind: str, q, lam: int, n: int | None = None,
                 cap: int = DEFAULT_MATRIX_CAP) -> IncidenceMatrix:
    """Materialize the incidence matrix of one equation kind on its full
    label families: dot uses the jointly coprime n-tuples; det uses all
    d-vectors as rows and all flattened (d-1)-tuples of d-vectors as
    columns, with d = n; n defaults to 2 for both.  crossratio uses all of
    (Z_q)^2.  Any family exceeding ``cap`` labels is refused.
    """
    mod = as_modulus(q)
    qq = mod.q
    lam %= qq
    n = 2 if n is None else n
    d = None
    if kind == "dot":
        if math.gcd(lam, qq) != 1:
            raise InvalidLambdaError(f"target {lam} is not a unit mod {qq}")
        rows = cols = coprime_tuples(qq, n)
    elif kind == "det":
        d = n
        if d < 2:
            raise InvalidArgumentError(f"determinant size must be >= 2, got {d}")
        if qq ** (d * (d - 1)) > cap:
            raise TooLargeError(
                f"det family of size {qq ** (d * (d - 1))} exceeds cap {cap}")
        rows = list(_cartesian(range(qq), repeat=d))
        cols = list(_cartesian(range(qq), repeat=d * (d - 1)))
    elif kind == "crossratio":
        if not mod.is_prime:
            raise InvalidModulusError(f"cross-ratio matrices need prime q, got {qq}")
        if lam in (0, 1):
            raise InvalidArgumentError(f"target {lam} is degenerate for cross-ratios")
        rows = cols = list(_cartesian(range(qq), repeat=2))
    else:
        raise InvalidArgumentError(f"unknown matrix kind {kind!r}")

    if max(len(rows), len(cols)) > cap:
        raise TooLargeError(
            f"matrix of shape {(len(rows), len(cols))} exceeds cap {cap}")

    blocks = [block == lam for block in value_blocks(kind, rows, cols, qq)]
    entries = (np.concatenate(blocks) if blocks
               else np.zeros((len(rows), len(cols)), bool)).astype(np.uint8)
    return IncidenceMatrix(kind, mod, lam, tuple(rows), tuple(cols), entries, d)


# ---------------------------------------------------------------------------
# eigensolver


def eig_symmetric(matrix) -> np.ndarray:
    """Eigenvalues (descending) of a symmetric matrix by cyclic Jacobi
    rotations.

    Sweeps row pairs in a fixed order until the off-diagonal Frobenius norm
    drops below _JACOBI_TOL, or raises ArithmeticError after
    _JACOBI_MAX_SWEEPS sweeps.  The matrix is stored in full and kept
    exactly symmetric: each rotation computes the new rows p and r once,
    writes each to its row and its column, then sets the two diagonal
    entries and zeroes (p, r).  On symmetric storage this is the same
    arithmetic as rotating the columns and then the rows.  No eigenvectors
    are formed.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise InvalidArgumentError("matrix is not symmetric")
    a = (a + a.T) * 0.5  # no-op on exactly symmetric input
    dim = a.shape[0]
    if dim == 1:
        return a.diagonal().copy()

    negligible = _JACOBI_TOL / (dim * dim) * 1e-3
    # Summing the off-diagonal squares directly avoids the cancellation that
    # sqrt(|A|_F^2 - |diag|^2) suffers once the true norm nears sqrt(eps)|A|.
    off_mask = ~np.eye(dim, dtype=bool)
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off < _JACOBI_TOL:
            break
        for p in range(dim - 1):
            for r in range(p + 1, dim):
                apr = a.item(p, r)
                if abs(apr) <= negligible:
                    if apr != 0.0:
                        a[p, r] = a[r, p] = 0.0
                    continue
                diff = a.item(r, r) - a.item(p, p)
                if diff == 0.0:
                    t = 1.0
                else:
                    phi = diff / (2.0 * apr)
                    t = math.copysign(1.0, phi) / (abs(phi) + math.sqrt(phi * phi + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                row_p = a[p]
                row_r = a[r]
                new_p = c * row_p - s * row_r
                new_r = s * row_p + c * row_r
                a[p] = a[:, p] = new_p
                a[r] = a[:, r] = new_r
                a[p, p] = c * new_p.item(p) - s * new_p.item(r)
                a[r, r] = s * new_r.item(p) + c * new_r.item(r)
                a[p, r] = a[r, p] = 0.0
    else:
        raise ArithmeticError(f"Jacobi iteration did not reach {_JACOBI_TOL} "
                              f"in {_JACOBI_MAX_SWEEPS} sweeps")
    values = a.diagonal().copy()
    return values[np.argsort(-values, kind="stable")]


def singular_values(matrix) -> np.ndarray:
    """Singular values (descending) via the eigenvalues of M M^T."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise InvalidArgumentError(f"expected a matrix, got shape {m.shape}")
    gram = m @ m.T
    values = eig_symmetric(gram)
    return np.sqrt(np.clip(values, 0.0, None))


# ---------------------------------------------------------------------------
# exact fourth moment


def _gram_int(matrix) -> list[list[int]]:
    entries = matrix.entries if isinstance(matrix, IncidenceMatrix) else matrix
    mi = np.asarray(entries, dtype=np.int64)
    gram = mi @ mi.T
    return gram.tolist()  # python ints from here on: no overflow anywhere


def rectangular_norm(matrix) -> int:
    """sum_{a, a'} (sum_b M(a,b) M(a',b))^2, exactly.

    Equals the sum of fourth powers of the singular values, so it serves as
    the integer side of the spectral fourth-moment cross-check.
    """
    return sum(v * v for row in _gram_int(matrix) for v in row)


# ---------------------------------------------------------------------------
# clustering and reports


def cluster_multiplicities(values, tol: float) -> tuple[tuple[float, int], ...]:
    """Group a descending eigenvalue list into clusters of width ``tol``.

    Consecutive values within tol of the previous one merge, so ties at a
    boundary land in one cluster (multiplicities are never undercounted).
    Each cluster reports (mean value, size).
    """
    vals = [float(v) for v in values]
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise InvalidArgumentError("values must be sorted in descending order")
    if not 0 <= tol < math.inf:
        raise InvalidArgumentError(f"tolerance must be finite and >= 0, got {tol}")
    clusters = []
    bucket: list[float] = []
    for v in vals:
        if bucket and bucket[-1] - v > tol:
            clusters.append((sum(bucket) / len(bucket), len(bucket)))
            bucket = []
        bucket.append(v)
    if bucket:
        clusters.append((sum(bucket) / len(bucket), len(bucket)))
    return tuple(clusters)


@dataclass(frozen=True)
class SpectrumReport:
    """Spectral summary of one incidence matrix.

    ``spectral_values`` are eigenvalues when the matrix is symmetric and
    singular values otherwise; ``second_value`` is the largest magnitude
    among the non-top values.  The two fourth moments come from independent
    routes (floating spectrum vs exact integer Gram) and must agree.
    """

    spectral_values: tuple[float, ...]
    clusters: tuple[tuple[float, int], ...]
    cluster_tol: float
    top_value: float
    second_value: float
    fourth_moment_float: float
    fourth_moment_exact: int
    symmetric: bool


def spectrum_report(matrix, cluster_tol: float | None = None) -> SpectrumReport:
    """Compute the spectrum and package the standard diagnostics.

    The default cluster tolerance is 1e-6 * dim * max|entry|, which scales
    with the worst-case rounding of the Jacobi iteration.
    """
    entries = matrix.entries if isinstance(matrix, IncidenceMatrix) else np.asarray(matrix)
    arr = entries.astype(float)
    symmetric = arr.shape[0] == arr.shape[1] and np.array_equal(arr, arr.T)
    if symmetric:
        values = eig_symmetric(arr)
    else:
        values = singular_values(arr)
    vals = tuple(float(v) for v in values)
    if cluster_tol is None:
        scale = float(np.abs(entries).max()) if entries.size else 1.0
        cluster_tol = 1e-6 * arr.shape[0] * max(scale, 1.0)
    clusters = cluster_multiplicities(vals, cluster_tol)
    top = vals[0] if vals else 0.0
    second = max((abs(v) for v in vals[1:]), default=0.0)
    fourth_float = float(sum(v ** 4 for v in vals))
    fourth_exact = rectangular_norm(entries)
    return SpectrumReport(vals, clusters, cluster_tol, top, second,
                          fourth_float, fourth_exact, symmetric)


# ---------------------------------------------------------------------------
# invariance under the symmetry group of the equation


def _pointwise(h, q: int):
    """The fractional-linear map h on every coordinate; None at a pole."""
    def apply(label):
        image = tuple(mobius(h, x, q) for x in label)
        return None if None in image else image
    return apply


def _generators(matrix: IncidenceMatrix) -> list:
    """(name, label map) pairs generating the group the equation is invariant
    under, acting on rows and columns alike; a map returns None at a pole.

    dot: the swap of coordinates 0 and 1, the cyclic shift and negation of
    coordinate 0, which generate the signed permutations (negation alone for
    n = 1).  det: T = I + E_01 and the signed cyclic shift S on every
    d-vector; for d = 2 these are ((1,1),(0,1)) and ((0,-1),(1,0)), and they
    generate SL_d(Z_q).  crossratio: x -> x + 1, x -> g x with g a primitive
    root, and x -> 1/x, which generate PGL_2(F_q).
    """
    q = matrix.modulus.q
    if matrix.kind == "dot":
        if matrix.row_index and isinstance(matrix.row_index[0], int):
            return [("negate", lambda a: -a % q)]
        return [("swap01", lambda a: (a[1], a[0]) + a[2:]),
                ("shift", lambda a: a[-1:] + a[:-1]),
                ("negate0", lambda a: (-a[0] % q,) + a[1:])]
    if matrix.kind == "det":
        d = matrix.d
        sign = (-1) ** (d - 1)

        def blockwise(vec_map):
            return lambda label: tuple(x for k in range(0, len(label), d)
                                       for x in vec_map(label[k:k + d]))
        return [("T", blockwise(lambda v: ((v[0] + v[1]) % q,) + v[1:])),
                ("S", blockwise(lambda v: (sign * v[-1] % q,) + v[:-1]))]
    g = primitive_root(q)
    return [("x+1", _pointwise((1, 1, 0, 1), q)),
            ("g*x", _pointwise((g, 0, 0, 1), q)),
            ("1/x", _pointwise((0, 1, 1, 0), q))]


def _label_permutation(apply, labels, position: dict, side: str):
    """(index of each label's image, mask of labels whose image is defined)."""
    index = np.zeros(len(labels), dtype=np.int64)
    defined = np.ones(len(labels), dtype=bool)
    for i, label in enumerate(labels):
        image = apply(label)
        if image is None:
            defined[i] = False
        elif image in position:
            index[i] = position[image]
        else:
            raise MappingError(f"image {image!r} of {side} {label!r} not in index")
    return index, defined


@dataclass(frozen=True)
class InvarianceReport:
    """Result of checking M(a, b) = M(g a, g b) over a generating set."""

    ok: bool
    counterexample: tuple | None
    transforms_checked: int
    entries_checked: int


def check_invariance(matrix: IncidenceMatrix) -> InvarianceReport:
    """Verify that each generator of the equation's symmetry group permutes
    the labels without changing an entry (see `_generators`).

    Label pairs whose image hits a pole are skipped.  A transformed label
    outside the index set is a MappingError: with the full default families
    that cannot happen.  The counterexample is (generator name, a, b).
    """
    generators = _generators(matrix)
    row_pos = matrix.row_position()
    entries = matrix.entries
    checked = 0
    for name, apply in generators:
        row_map, row_ok = _label_permutation(apply, matrix.row_index, row_pos, "row")
        if matrix.col_index == matrix.row_index:
            col_map, col_ok = row_map, row_ok
        else:
            col_map, col_ok = _label_permutation(apply, matrix.col_index,
                                                 matrix.col_position(), "column")
        rows = np.flatnonzero(row_ok)
        cols = np.flatnonzero(col_ok)
        orig = entries[np.ix_(rows, cols)]
        moved = entries[np.ix_(row_map[rows], col_map[cols])]
        checked += orig.size
        if not np.array_equal(orig, moved):
            bad = np.argwhere(orig != moved)[0]
            a = matrix.row_index[rows[bad[0]]]
            b = matrix.col_index[cols[bad[1]]]
            return InvarianceReport(False, (name, a, b), len(generators), checked)
    return InvarianceReport(True, None, len(generators), checked)
