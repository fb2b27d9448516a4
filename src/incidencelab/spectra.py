"""Incidence matrices and their spectra.

Matrices are dense 0/1 arrays indexed by their full label families, the
whole domains `incidence` declares for each kind (`label_widths`,
`domain_size`, `domain_labels`).  A family is a read-only int64 array with
one label per row, sorted lexicographically: the form `PointSet.labels`
holds.  The entries come from
`incidence.value_blocks`, the evaluation the counts use too.  The symmetric
eigensolver is a cyclic Jacobi iteration written here
on purpose: the spectra are the object under study, so the solver must be
auditable.  Its rotation order and arithmetic are fixed, so its values
are reproducible to the bit.  Each rotation updates rows p and r in place
through one two-row view of the matrix, in two numpy calls; column r is
mirrored from its row after each rotation, and column p only once p's run
of partners has ended.  Every entry keeps the bits of the textbook
two-sided rotation (columns, then rows), which the tests keep as the
oracle.  Fourth moments of the spectrum are checked
against an exact integer Gram computation (the rectangular norm), giving
a dual-route consistency test for every matrix, and every matrix is
checked to be invariant under a generating set of its equation's
symmetry group (signed permutations, SL_2, PGL_2), each generator acting
on a whole label array at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, MappingError, TooLargeError
from .incidence import check_target, domain_labels, domain_size, label_widths, value_blocks
from .modring import factorize, mobius, primitive_root

DEFAULT_MATRIX_CAP = 5000
_JACOBI_TOL = 1e-10
_JACOBI_MAX_SWEEPS = 100


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """A 0/1 incidence matrix M(a, b) = [equation(a, b) = lam] with its
    row and column label families, each a read-only int64 array of
    lexicographically sorted labels, one per row.  `build_matrix` makes
    them one shared array when rows and columns have the same width."""

    kind: str
    q: int
    lam: int
    row_index: np.ndarray
    col_index: np.ndarray
    entries: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def build_matrix(kind: str, q, lam: int, n: int | None = None,
                 cap: int = DEFAULT_MATRIX_CAP) -> IncidenceMatrix:
    """Materialize the incidence matrix of one equation kind on its full
    label families: the whole domains `incidence` declares for the kind,
    rows for A and columns for B, at size n (dot's tuple length, det's d;
    2 by default), at a target `incidence.check_target` admits.  A family
    of more than ``cap`` labels is refused from its size, before any label
    is decoded.
    """
    factorize(q)  # refuses a q that is not an integer >= 2
    lam = check_target(kind, q, lam)
    n = 2 if n is None else n
    if kind == "det" and n < 2:
        raise InvalidArgumentError(f"determinant size must be >= 2, got {n}")
    widths = label_widths(kind, n)
    sizes = tuple(domain_size(kind, q, w) for w in widths)
    if max(sizes) > cap:
        raise TooLargeError(f"matrix of shape {sizes} exceeds cap {cap}")
    rows = domain_labels(kind, q, widths[0], np.arange(sizes[0], dtype=np.int64))
    cols = rows if widths[0] == widths[1] else domain_labels(
        kind, q, widths[1], np.arange(sizes[1], dtype=np.int64))
    rows.flags.writeable = cols.flags.writeable = False
    entries = np.concatenate([block == lam for block in value_blocks(kind, rows, cols, q)])
    return IncidenceMatrix(kind, q, lam, rows, cols, entries.astype(np.uint8))


# ---------------------------------------------------------------------------
# eigensolver


def eig_symmetric(matrix) -> np.ndarray:
    """Eigenvalues (descending) of a symmetric matrix by cyclic Jacobi
    rotations.

    Sweeps row pairs in a fixed order until the off-diagonal Frobenius norm
    drops below _JACOBI_TOL, or raises ArithmeticError after
    _JACOBI_MAX_SWEEPS sweeps.  A matrix with a non-finite entry is refused
    before any sweep.  No eigenvectors are formed.

    The matrix is stored in full and rotated in place.  Rows p and r are one
    (2, dim) view of ``a``, and each rotation is two numpy calls on it: a
    multiply by [[c, -s], [s, c]] into a scratch buffer, then the add of its
    two columns back into the view.  Column r is then copied from row r.
    Column p is copied from row p only once p's run of partners r has ended:
    until then its stale entries reach only a[p, p] and a[r, p], the cells
    that the 2x2 block update overwrites.  The diagonal is kept in Python
    floats, and the 2x2 block takes the same operations as rotating the
    columns and then the rows.  Since (-s)*y == -(s*y) and x + (-z) == x - z
    hold exactly in IEEE arithmetic, and the multiply and the add are
    separate calls that cannot fuse, every entry keeps the bits of the
    two-sided rotation.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a)
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
    coef = np.empty((2, 2, 1))
    cs = coef.reshape(4)
    prod = np.empty((2, 2, dim))
    prod_p, prod_r = prod[:, 0], prod[:, 1]
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off < _JACOBI_TOL:
            break
        diag = a.diagonal().tolist()
        for p in range(dim - 1):
            row_p = a[p]
            app = diag[p]
            for r in range(p + 1, dim):
                apr = row_p.item(r)
                if abs(apr) <= negligible:
                    if apr != 0.0:
                        a[p, r] = a[r, p] = 0.0
                    continue
                arr = diag[r]
                diff = arr - app
                if diff == 0.0:
                    t = 1.0
                else:
                    phi = diff / (2.0 * apr)
                    t = math.copysign(1.0, phi) / (abs(phi) + math.sqrt(phi * phi + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                cs[0] = cs[3] = c
                cs[1] = -s
                cs[2] = s
                pair = a[p:r + 1:r - p]  # rows p and r, a view
                np.multiply(coef, pair, out=prod)
                np.add(prod_p, prod_r, out=pair)
                # the block [[app, apr], [apr, arr]] rotated on both sides
                npp = c * app - s * apr
                npr = c * apr - s * arr
                nrp = s * app + c * apr
                nrr = s * apr + c * arr
                app = c * npp - s * npr
                diag[r] = arr = s * nrp + c * nrr
                row_r = a[r]
                row_r[p] = 0.0
                row_r[r] = arr
                a[:, r] = row_r  # and a[p, r] = a[r, p] = 0.0
            row_p[p] = app  # p's run has ended: mirror row p into column p
            a[:, p] = row_p
    else:
        raise ArithmeticError(f"Jacobi iteration did not reach {_JACOBI_TOL} "
                              f"in {_JACOBI_MAX_SWEEPS} sweeps")
    values = a.diagonal().copy()
    return values[np.argsort(-values, kind="stable")]


def _require_finite(a: np.ndarray) -> None:
    """Refuse an array with an infinite or NaN entry, naming the first few."""
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        shown = ", ".join(str(tuple(i)) for i in bad[:4].tolist())
        more = f" and {len(bad) - 4} more" if len(bad) > 4 else ""
        raise InvalidArgumentError(f"matrix has non-finite entries at {shown}{more}")


def singular_values(gram: np.ndarray) -> np.ndarray:
    """Singular values (descending) of M, from the eigenvalues of its Gram
    M M^T."""
    return np.sqrt(np.clip(eig_symmetric(gram), 0.0, None))


# ---------------------------------------------------------------------------
# exact fourth moment


def rectangular_norm(gram: np.ndarray) -> int:
    """sum_{a, a'} (sum_b M(a,b) M(a',b))^2 for the entries M, exactly, from
    the integer Gram M M^T (`_gram`).

    Equals the sum of fourth powers of the singular values, so it serves as
    the integer side of the spectral fourth-moment cross-check.  The squares
    are summed in int64 while the entry count times the largest square
    stays below 2^63, and in Python ints beyond.
    """
    flat = gram.ravel()
    if flat.size and int(np.abs(flat).max()) ** 2 * flat.size >= 2 ** 63:
        flat = flat.astype(object)
    return int(flat @ flat)


def _gram(entries: np.ndarray) -> np.ndarray:
    """M M^T of an integer matrix M, exactly, in int64.  For a 0/1 matrix
    every entry is a count below 2^53, so its float copy has the bits of the
    float product m @ m.T (which BLAS may run on several threads)."""
    mi = np.asarray(entries, dtype=np.int64)
    return mi @ mi.T


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


def spectrum_report(matrix: IncidenceMatrix,
                    cluster_tol: float | None = None) -> SpectrumReport:
    """Compute the spectrum of an incidence matrix and package the standard
    diagnostics.

    The default cluster tolerance is 1e-6 * dim * max|entry|, which scales
    with the worst-case rounding of the Jacobi iteration.
    """
    entries = matrix.entries
    arr = entries.astype(float)
    symmetric = arr.shape[0] == arr.shape[1] and np.array_equal(arr, arr.T)
    gram = _gram(entries)  # one exact Gram for the singular values and the norm
    if symmetric:
        values = eig_symmetric(arr)
    else:
        values = singular_values(gram)
    vals = tuple(float(v) for v in values)
    if cluster_tol is None:
        scale = float(np.abs(entries).max()) if entries.size else 1.0
        cluster_tol = 1e-6 * arr.shape[0] * max(scale, 1.0)
    clusters = cluster_multiplicities(vals, cluster_tol)
    top = vals[0] if vals else 0.0
    second = max((abs(v) for v in vals[1:]), default=0.0)
    fourth_float = float(sum(v ** 4 for v in vals))
    fourth_exact = rectangular_norm(gram)
    return SpectrumReport(vals, clusters, cluster_tol, top, second,
                          fourth_float, fourth_exact, symmetric)


# ---------------------------------------------------------------------------
# invariance under the symmetry group of the equation


def _generators(matrix: IncidenceMatrix) -> list:
    """(name, label map) pairs generating the group the equation is invariant
    under, acting on rows and columns alike.  A map takes a label array and
    returns the array of images, with a -1 in each image at a pole.

    dot: the swap of coordinates 0 and 1, the cyclic shift and negation of
    coordinate 0, which generate the signed permutations (negation alone for
    n = 1).  det: T = I + E_01 and the signed cyclic shift S on every
    d-vector; for d = 2 these are ((1,1),(0,1)) and ((0,-1),(1,0)), and they
    generate SL_d(Z_q).  crossratio: x -> x + 1, x -> g x with g a primitive
    root, and x -> 1/x, which generate PGL_2(F_q), on every coordinate.
    """
    q = matrix.q
    d = matrix.row_index.shape[1]
    if matrix.kind == "dot":
        maps = [("swap01", lambda a: a[:, [1, 0, *range(2, d)]]),
                ("shift", lambda a: np.roll(a, 1, axis=1)),
                ("negate0", lambda a: np.column_stack([-a[:, 0] % q, a[:, 1:]]))]
        return maps if d > 1 else maps[2:]
    if matrix.kind == "det":
        sign = (-1) ** (d - 1)

        def blockwise(vec_map):
            return lambda a: vec_map(a.reshape(len(a), -1, d)).reshape(a.shape)
        return [("T", blockwise(lambda v: np.concatenate(
                    [(v[..., :1] + v[..., 1:2]) % q, v[..., 1:]], axis=-1))),
                ("S", blockwise(lambda v: np.concatenate(
                    [sign * v[..., -1:] % q, v[..., :-1]], axis=-1)))]
    g = primitive_root(q)
    return [(name, lambda a, h=h: mobius(h, a, q))
            for name, h in (("x+1", (1, 1, 0, 1)), ("g*x", (g, 0, 0, 1)),
                            ("1/x", (0, 1, 1, 0)))]


def _image_index(apply, labels: np.ndarray, q: int, side: str):
    """(position of each label's image in `labels`, mask of the labels whose
    image is defined), found by `searchsorted` on the base-q keys of the
    sorted labels."""
    images = apply(labels)
    defined = (images >= 0).all(axis=1)
    powers = q ** np.arange(labels.shape[1], dtype=np.int64)[::-1]
    keys, image_keys = labels @ powers, images @ powers
    index = np.minimum(np.searchsorted(keys, image_keys), len(keys) - 1)
    missing = defined & (keys[index] != image_keys)
    if missing.any():
        i = np.argmax(missing)
        raise MappingError(f"image {tuple(images[i].tolist())} of {side} "
                           f"{tuple(labels[i].tolist())} not in index")
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
    that cannot happen.  The counterexample is (generator name, a, b), with
    the labels a and b as tuples.
    """
    generators = _generators(matrix)
    q = matrix.q
    entries = matrix.entries
    checked = 0
    for name, apply in generators:
        row_map, row_ok = _image_index(apply, matrix.row_index, q, "row")
        if matrix.col_index is matrix.row_index:
            col_map, col_ok = row_map, row_ok
        else:
            col_map, col_ok = _image_index(apply, matrix.col_index, q, "column")
        rows = np.flatnonzero(row_ok)
        cols = np.flatnonzero(col_ok)
        orig = entries[np.ix_(rows, cols)]
        moved = entries[np.ix_(row_map[rows], col_map[cols])]
        checked += orig.size
        if not np.array_equal(orig, moved):
            bad = np.argwhere(orig != moved)[0]
            a = tuple(matrix.row_index[rows[bad[0]]].tolist())
            b = tuple(matrix.col_index[cols[bad[1]]].tolist())
            return InvarianceReport(False, (name, a, b), len(generators), checked)
    return InvarianceReport(True, None, len(generators), checked)
