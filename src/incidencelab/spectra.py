"""Incidence matrices and their spectra.

Matrices are dense 0/1 arrays indexed by explicit label families; their
entries come from `incidence.value_blocks`, the evaluation the counts use
too.  The symmetric eigensolver is a cyclic Jacobi iteration written here
on purpose: the spectra are the object under study, so the solver must be
auditable and deterministic rather than fast.  Fourth moments of the
spectrum are checked against an exact integer Gram computation (the
rectangular norm), giving a dual-route consistency test for every matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product as _cartesian

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidLambdaError,
    InvalidModulusError,
    MappingError,
    TooLargeError,
)
from .incidence import value_blocks
from .modring import (
    Modulus,
    as_modulus,
    coprime_tuples,
    jordan_totient,
    mat2_mul,
    mobius,
)

DEFAULT_MATRIX_CAP = 5000
DEFAULT_SL2_CAP = 10 ** 6
_JACOBI_TOL = 1e-10


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


def build_matrix(kind: str, q, lam: int, n: int | None = None, m: int | None = None,
                 row_family=None, col_family=None,
                 cap: int = DEFAULT_MATRIX_CAP) -> IncidenceMatrix:
    """Materialize the incidence matrix of one equation kind.

    Default families: dot uses the jointly coprime n-tuples (n defaults
    to 2); det uses all flattened n-tuples / m-tuples of d-vectors with
    d = n + m (defaults 1, 1); crossratio uses all of (Z_q)^2.  Any family
    exceeding ``cap`` labels is refused.
    """
    mod = as_modulus(q)
    qq = mod.q
    lam %= qq
    d = None
    if kind == "dot":
        if math.gcd(lam, qq) != 1:
            raise InvalidLambdaError(f"target {lam} is not a unit mod {qq}")
        n = 2 if n is None else n
        rows = list(row_family) if row_family is not None else coprime_tuples(qq, n)
        cols = list(col_family) if col_family is not None else rows
    elif kind == "det":
        n = 1 if n is None else n
        m = 1 if m is None else m
        d = n + m
        if qq ** (d * n) > cap or qq ** (d * m) > cap:
            raise TooLargeError(
                f"det family of size {qq ** (d * max(n, m))} exceeds cap {cap}")
        rows = (list(row_family) if row_family is not None
                else list(_cartesian(range(qq), repeat=d * n)))
        cols = (list(col_family) if col_family is not None
                else list(_cartesian(range(qq), repeat=d * m)))
    elif kind == "crossratio":
        if not mod.is_prime:
            raise InvalidModulusError(f"cross-ratio matrices need prime q, got {qq}")
        if lam in (0, 1):
            raise InvalidArgumentError(f"target {lam} is degenerate for cross-ratios")
        rows = (list(row_family) if row_family is not None
                else list(_cartesian(range(qq), repeat=2)))
        cols = list(col_family) if col_family is not None else rows
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


def eig_symmetric(matrix, tol: float = _JACOBI_TOL,
                  max_sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps row pairs in a fixed order until the off-diagonal Frobenius norm
    drops below ``tol``.  Returns (values, vectors) with values descending
    and vectors in matching columns; the rotation product keeps the vectors
    orthonormal to machine precision.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise InvalidArgumentError("matrix is not symmetric")
    dim = a.shape[0]
    vecs = np.eye(dim)
    if dim == 1:
        return a.diagonal().copy(), vecs

    negligible = tol / (dim * dim) * 1e-3
    # Summing the off-diagonal squares directly avoids the cancellation that
    # sqrt(|A|_F^2 - |diag|^2) suffers once the true norm nears sqrt(eps)|A|.
    off_mask = ~np.eye(dim, dtype=bool)
    for _ in range(max_sweeps):
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off < tol:
            break
        for p in range(dim - 1):
            for r in range(p + 1, dim):
                apr = a[p, r]
                if abs(apr) <= negligible:
                    if apr != 0.0:
                        a[p, r] = a[r, p] = 0.0
                    continue
                diff = a[r, r] - a[p, p]
                if diff == 0.0:
                    t = 1.0
                else:
                    phi = diff / (2.0 * apr)
                    t = math.copysign(1.0, phi) / (abs(phi) + math.sqrt(phi * phi + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_r = a[:, r].copy()
                a[:, p] = c * col_p - s * col_r
                a[:, r] = s * col_p + c * col_r
                row_p = a[p, :].copy()
                row_r = a[r, :].copy()
                a[p, :] = c * row_p - s * row_r
                a[r, :] = s * row_p + c * row_r
                a[p, r] = a[r, p] = 0.0
                vec_p = vecs[:, p].copy()
                vec_r = vecs[:, r].copy()
                vecs[:, p] = c * vec_p - s * vec_r
                vecs[:, r] = s * vec_p + c * vec_r
    else:
        raise ArithmeticError(f"Jacobi iteration did not reach {tol} "
                              f"in {max_sweeps} sweeps")
    values = a.diagonal().copy()
    order = np.argsort(-values, kind="stable")
    return values[order], vecs[:, order]


def singular_values(matrix) -> np.ndarray:
    """Singular values (descending) via the eigenvalues of M M^T."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise InvalidArgumentError(f"expected a matrix, got shape {m.shape}")
    gram = m @ m.T
    values, _ = eig_symmetric(gram)
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


def rectangular_norm_split(matrix) -> tuple[int, int]:
    """(total, off-diagonal) rectangular norm.

    The diagonal Gram entries are the row sums, whose squares dominate when
    rows are heavy; separating them shows how much of the norm survives on
    genuinely distinct row pairs.
    """
    gram = _gram_int(matrix)
    total = sum(v * v for row in gram for v in row)
    diag = sum(gram[i][i] ** 2 for i in range(len(gram)))
    return total, total - diag


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
    if tol < 0:
        raise InvalidArgumentError(f"tolerance must be >= 0, got {tol}")
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
        values, _ = eig_symmetric(arr)
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
# transform groups and invariance


def enumerate_sl2(q, cap: int = DEFAULT_SL2_CAP) -> list[tuple[int, int, int, int]]:
    """All of SL_2(Z_q) as flat (a, b, c, d) tuples, lexicographically.

    The group has q * J_2(q) elements; enumeration is refused beyond ``cap``.
    For each (a, b, c) the solutions d of a d = 1 + b c mod q form an
    explicit congruence class, so the scan is O(q^3) and duplicate free.
    """
    mod = as_modulus(q)
    qq = mod.q
    size = qq * jordan_totient(2, mod)
    if size > cap:
        raise TooLargeError(f"SL_2(Z_{qq}) has {size} elements, over the cap {cap}")
    out = []
    for a in range(qq):
        g = math.gcd(a, qq)
        for b in range(qq):
            for c in range(qq):
                rhs = (1 + b * c) % qq
                if g == 1:
                    out.append((a, b, c, rhs * pow(a, -1, qq) % qq))
                    continue
                if rhs % g:
                    continue
                step = qq // g
                d0 = (rhs // g) * pow(a // g, -1, step) % step if step > 1 else 0
                out.extend((a, b, c, d0 + k * step) for k in range(g))
    if len(out) != size:
        raise ArithmeticError(
            f"SL_2 enumeration produced {len(out)} elements, expected {size}")
    out.sort()
    return out


def signed_permutation_matrices(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All 2^n n! signed permutation matrices as row tuples with entries
    in {-1, 0, 1}.  These preserve the dot form and joint coprimality."""
    out = []
    for perm in permutations(range(n)):
        for signs in _cartesian((1, -1), repeat=n):
            rows = []
            for i in range(n):
                row = [0] * n
                row[perm[i]] = signs[i]
                rows.append(tuple(row))
            out.append(tuple(rows))
    return out


def _apply_linear(g, label, q: int):
    """Apply a k x k integer matrix blockwise to a flat label mod q."""
    k = len(g)
    if isinstance(label, int):
        label = (label,)
    if len(label) % k:
        raise MappingError(f"label {label!r} does not split into {k}-blocks")
    out = []
    for start in range(0, len(label), k):
        block = label[start:start + k]
        out.extend(sum(g[i][j] * block[j] for j in range(k)) % q for i in range(k))
    return out[0] if len(out) == 1 else tuple(out)


def _apply_mobius(g, label, q: int):
    """Apply a fractional-linear map to every coordinate; None at a pole."""
    if isinstance(label, int):
        label = (label,)
    out = []
    for x in label:
        y = mobius(g, x, q)
        if y is None:
            return None
        out.append(y)
    return out[0] if len(out) == 1 else tuple(out)


@dataclass(frozen=True)
class InvarianceReport:
    """Result of checking M(a, b) = M(g a, g b) over a transform family."""

    ok: bool
    counterexample: tuple | None
    transforms_checked: int
    entries_checked: int


def check_invariance(matrix: IncidenceMatrix, transforms, action: str) -> InvarianceReport:
    """Verify that each transform permutes the labels without changing entries.

    action "linear" applies the transform blockwise (signed permutations for
    dot labels, d x d matrices for det labels); "mobius" applies a
    fractional-linear map to every coordinate, and label pairs whose image
    hits a pole are skipped.  A transformed label outside the index set is a
    MappingError: with full default families that cannot happen.
    """
    if action not in ("linear", "mobius"):
        raise InvalidArgumentError(f"unknown action {action!r}")
    transforms = list(transforms)
    q = matrix.modulus.q
    row_pos = matrix.row_position()
    col_pos = matrix.col_position()
    entries = matrix.entries
    checked = 0
    for g in transforms:
        if action == "linear":
            size = len(g)
            if size == 0 or any(len(row) != size for row in g):
                raise InvalidArgumentError(f"transform {g!r} is not square")
            apply = lambda label: _apply_linear(g, label, q)
        else:
            if len(g) != 4:
                raise InvalidArgumentError(
                    f"mobius transforms are flat (a, b, c, d) tuples, got {g!r}")
            apply = lambda label: _apply_mobius(g, label, q)
        row_map = np.empty(len(matrix.row_index), dtype=np.int64)
        row_ok = np.ones(len(matrix.row_index), dtype=bool)
        for i, label in enumerate(matrix.row_index):
            image = apply(label)
            if image is None:
                row_ok[i] = False
                continue
            if image not in row_pos:
                raise MappingError(f"image {image!r} of row {label!r} not in index")
            row_map[i] = row_pos[image]
        if matrix.col_index == matrix.row_index and col_pos == row_pos:
            col_map, col_ok = row_map, row_ok
        else:
            col_map = np.empty(len(matrix.col_index), dtype=np.int64)
            col_ok = np.ones(len(matrix.col_index), dtype=bool)
            for j, label in enumerate(matrix.col_index):
                image = apply(label)
                if image is None:
                    col_ok[j] = False
                    continue
                if image not in col_pos:
                    raise MappingError(f"image {image!r} of column {label!r} not in index")
                col_map[j] = col_pos[image]
        rows = np.flatnonzero(row_ok)
        cols = np.flatnonzero(col_ok)
        if rows.size == 0 or cols.size == 0:
            continue
        orig = entries[np.ix_(rows, cols)]
        moved = entries[np.ix_(row_map[rows], col_map[cols])]
        checked += orig.size
        if not np.array_equal(orig, moved):
            bad = np.argwhere(orig != moved)[0]
            a = matrix.row_index[rows[bad[0]]]
            b = matrix.col_index[cols[bad[1]]]
            return InvarianceReport(False, (g, a, b),
                                    transforms_checked=len(transforms),
                                    entries_checked=checked)
    return InvarianceReport(True, None, len(transforms), checked)


def mat2_orbit(generators, q, cap: int = DEFAULT_SL2_CAP) -> list:
    """Closure of 2x2 generators under multiplication mod q (for spot checks
    with small transform families)."""
    seen = set(generators)
    frontier = list(seen)
    while frontier:
        if len(seen) > cap:
            raise TooLargeError(f"orbit exceeded the cap {cap}")
        nxt = []
        for g in frontier:
            for h in list(seen):
                for prod in (mat2_mul(g, h, q), mat2_mul(h, g, q)):
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return sorted(seen)


def dump_matrix(matrix: IncidenceMatrix, stream) -> None:
    """Write a plain-text dump: one header line, then 0/1 rows."""
    head = (f"kind={matrix.kind} q={matrix.modulus.q} lam={matrix.lam} "
            f"rows={matrix.shape[0]} cols={matrix.shape[1]}\n")
    stream.write(head)
    for row in matrix.entries:
        stream.write("".join("1" if v else "0" for v in row))
        stream.write("\n")
