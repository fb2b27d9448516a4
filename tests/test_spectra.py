"""Incidence matrices, the Jacobi eigensolver, exact fourth moments,
and invariance under the natural transform groups."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from incidencelab import (
    InvalidArgumentError,
    InvalidLambdaError,
    TooLargeError,
    build_matrix,
    check_invariance,
    cluster_multiplicities,
    coprime_tuples,
    eig_symmetric,
    jordan_totient,
    rectangular_norm,
    second_eigenvalue_bound,
    singular_values,
    spectrum_report,
)
from incidencelab.errors import MappingError
from incidencelab.modring import mat2_det, mat2_mul
from incidencelab import incidence, spectra
from incidencelab.spectra import _generators


def _reference_jacobi(matrix, tol=1e-10, max_sweeps=100):
    """The full-storage two-sided cyclic Jacobi that eig_symmetric replaced,
    with eigenvectors: rotate columns p and r, then rows p and r, and
    accumulate the rotations.  eig_symmetric must give the same bits."""
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


def test_eig_symmetric_known_2x2():
    a = [[2.0, 1.0], [1.0, 2.0]]
    assert np.allclose(eig_symmetric(a), [3.0, 1.0])
    _, vectors = _reference_jacobi(a)
    assert np.allclose(vectors.T @ vectors, np.eye(2))


def test_eig_symmetric_matches_lapack():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 5, 16):
        a = rng.normal(size=(dim, dim))
        a = a + a.T
        values = eig_symmetric(a)
        expected = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(values, expected, atol=1e-8)
        ref_values, vectors = _reference_jacobi(a)
        assert np.allclose(a @ vectors, vectors @ np.diag(ref_values), atol=1e-8)
        assert np.allclose(vectors.T @ vectors, np.eye(dim), atol=1e-10)


def test_eig_symmetric_bits_equal_the_reference_jacobi():
    # the matrices the spectrum runner diagonalizes at small q, those of the
    # benchmark (det q = 11, lam = 7 is the spectrum-mixed one; dot q = 6 at
    # both units), random symmetric ones, and one case per branch of the
    # in-place rotation loop
    cases = [(f"{kind} q={q} lam={lam}", build_matrix(kind, q, lam).entries.astype(float))
             for kind, q, lam in (("dot", 5, 1), ("dot", 7, 1), ("dot", 6, 1),
                                  ("dot", 6, 5), ("crossratio", 5, 3),
                                  ("crossratio", 7, 3))]
    for q, lam in ((5, 1), (7, 1), (11, 7)):
        m = build_matrix("det", q, lam).entries.astype(float)
        cases.append((f"det gram q={q} lam={lam}", m @ m.T))
    rng = np.random.default_rng(11)
    for dim in (1, 2, 5, 16, 40):
        a = rng.normal(size=(dim, dim))
        cases.append((f"random dim={dim}", a + a.T))
    for dim in (2, 3):  # rows 0 and 1 as a stride-1 view; p = 1 as the last p
        a = rng.normal(size=(dim, dim))
        cases.append((f"small dim={dim}", a + a.T))
    far = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    far[0, 4] = far[4, 0] = 0.75
    cases.append(("only pair has r - p = dim - 1", far))
    tiny = rng.normal(size=(4, 4))
    tiny = tiny + tiny.T
    # nonzero, below `negligible` (6.25e-15 at dim 4): zeroed, not rotated;
    # left in place it would reach row 0 through the rotation (0, 2)
    tiny[0, 1] = tiny[1, 0] = 1e-15
    cases.append(("skipped pair", tiny))
    equal = rng.normal(size=(6, 6))
    equal = equal + equal.T
    np.fill_diagonal(equal, 1.5)
    cases.append(("equal diagonal", equal))
    cases.append(("equal diagonal 2x2", np.array([[2.0, -1.0], [-1.0, 2.0]])))
    for name, a in cases:
        assert eig_symmetric(a).tobytes() == _reference_jacobi(a)[0].tobytes(), name


def test_eig_symmetric_symmetrizes_a_perturbed_input():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 8))
    a = a + a.T
    a[2, 5] += 1e-13
    expected = np.sort(np.linalg.eigvalsh((a + a.T) / 2))[::-1]
    assert np.allclose(eig_symmetric(a), expected, atol=1e-8)


def test_eig_symmetric_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        eig_symmetric(np.ones((2, 3)))
    with pytest.raises(InvalidArgumentError):
        eig_symmetric([[1.0, 2.0], [0.0, 1.0]])
    # a non-finite entry is named, not reported as asymmetry nor rotated
    # into an infinite eigenvalue
    for bad in (math.inf, -math.inf, math.nan):
        one_sided = np.eye(4)
        one_sided[0, 1] = bad
        with pytest.raises(InvalidArgumentError, match=r"non-finite entries at \(0, 1\)$"):
            eig_symmetric(one_sided)
        both = one_sided.copy()
        both[1, 0] = bad
        with pytest.raises(InvalidArgumentError,
                           match=r"non-finite entries at \(0, 1\), \(1, 0\)$"):
            eig_symmetric(both)
        rect = np.ones((2, 3))
        rect[1, 2] = bad
        with pytest.raises(InvalidArgumentError, match=r"non-finite entries at \(1, 2\)$"):
            singular_values(rect)
        gram = np.eye(3)
        gram[2, 2] = bad
        with pytest.raises(InvalidArgumentError, match=r"non-finite entries at \(2, 2\)$"):
            singular_values(np.eye(3), gram)
    with pytest.raises(InvalidArgumentError, match=r"\(1, 0\) and 5 more$"):
        eig_symmetric(np.full((3, 3), math.nan))


def test_singular_values_match_lapack():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 9))
    got = singular_values(m)
    expected = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(got, expected, atol=1e-8)


def test_cluster_multiplicities():
    clusters = cluster_multiplicities([5.0, 2.0 + 1e-9, 2.0, -1.0], 1e-6)
    assert clusters == ((5.0, 1), ((4.0 + 1e-9) / 2, 2), (-1.0, 1))
    with pytest.raises(InvalidArgumentError):
        cluster_multiplicities([1.0, 2.0], 1e-6)
    with pytest.raises(InvalidArgumentError):
        cluster_multiplicities([2.0, 1.0], -1.0)
    assert cluster_multiplicities([], 1e-6) == ()


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_cluster_multiplicities_refuses_non_finite_tolerance(tol):
    # nan and inf would merge every value into one cluster
    with pytest.raises(InvalidArgumentError, match="finite"):
        cluster_multiplicities([2.0, 1.0], tol)


def test_cluster_chain_merge():
    # Values 0.5 apart under tol 0.6 chain into a single cluster.
    clusters = cluster_multiplicities([2.0, 1.5, 1.0], 0.6)
    assert clusters == ((1.5, 3),)


def test_build_matrix_dot_row_sums():
    # A unit target forces solutions jointly coprime, so every row of the
    # full coprime-family matrix sums to exactly q^(n-1).
    for q in (5, 7):
        mat = build_matrix("dot", q, 1)
        assert mat.shape == (q * q - 1, q * q - 1)
        assert np.all(mat.entries.sum(axis=1) == q)
        assert np.all(mat.entries.sum(axis=0) == q)


def test_dot_spectrum_q5_frozen():
    mat = build_matrix("dot", 5, 1)
    rep = spectrum_report(mat)
    assert rep.symmetric
    assert math.isclose(rep.top_value, 5.0, abs_tol=1e-8)
    assert math.isclose(rep.second_value, math.sqrt(5.0), abs_tol=1e-6)
    sizes = [(round(v, 3), n) for v, n in rep.clusters]
    assert sizes == [(5.0, 1), (2.236, 9), (1.0, 2), (-1.0, 3), (-2.236, 9)]
    assert rep.fourth_moment_exact == 1080
    rel = abs(rep.fourth_moment_float - 1080) / 1080
    assert rel < 1e-6
    assert rep.second_value <= second_eigenvalue_bound(5, 2)


def test_det_matrix_q3_frozen():
    mat = build_matrix("det", 3, 1)
    assert mat.shape == (9, 9)
    assert int(mat.entries.sum()) == 24
    assert rectangular_norm(mat.entries) == 120


def test_rectangular_norm_equals_fourth_moment():
    rng = np.random.default_rng(9)
    m = (rng.random((7, 5)) < 0.4).astype(np.uint8)
    exact = rectangular_norm(m)
    sv = singular_values(m)
    assert math.isclose(float((sv ** 4).sum()), exact, rel_tol=1e-9, abs_tol=1e-9)


def test_spectrum_report_rectangular_uses_singular_values():
    mat = build_matrix("det", 3, 1, n=3, cap=1000)
    assert mat.shape == (27, 729)
    rep = spectrum_report(mat)
    assert not rep.symmetric
    assert all(v >= 0 for v in rep.spectral_values)
    assert rep.fourth_moment_exact == rectangular_norm(mat.entries)


def test_build_matrix_caps():
    with pytest.raises(TooLargeError):
        build_matrix("dot", 5, 1, cap=10)
    with pytest.raises(TooLargeError):
        build_matrix("det", 11, 1, cap=100)  # 11^2 d = 2 labels


@pytest.mark.parametrize("kind, q, n", [
    ("dot", 10007, 2), ("dot", 4001, 2), ("dot", 101, 3), ("dot", 100, 2),
    ("det", 101, 2), ("det", 11, 3), ("crossratio", 4001, None)])
def test_build_matrix_refuses_from_the_family_size(kind, q, n, monkeypatch):
    # The size J_n(q), q^d, q^(d(d-1)) or q^2 is known before any label is
    # decoded, so an over-cap family is never built.
    def never(*args):
        raise AssertionError("a label family was built")

    monkeypatch.setattr(incidence, "_coprime_table", never)
    monkeypatch.setattr(incidence, "decode_labels", never)
    with pytest.raises(TooLargeError, match="exceeds cap 5000"):
        build_matrix(kind, q, 3, n=n)


def test_build_matrix_families_are_sorted_read_only_label_arrays():
    for kind, q, n, widths in [("dot", 6, 1, (1, 1)), ("dot", 5, 3, (3, 3)),
                               ("det", 3, 3, (3, 6)), ("crossratio", 5, None, (2, 2))]:
        mat = build_matrix(kind, q, 1 if kind == "dot" else 2, n=n, cap=1000)
        for labels, width in zip((mat.row_index, mat.col_index), widths):
            assert labels.dtype == np.int64 and labels.shape[1] == width
            assert not labels.flags.writeable
            keys = labels @ q ** np.arange(width)[::-1]
            assert (np.diff(keys) > 0).all() and ((labels >= 0) & (labels < q)).all()
        assert mat.shape == (len(mat.row_index), len(mat.col_index))


@pytest.mark.parametrize("kind, q, n, widths", [
    ("dot", 5, 2, (2, 2)), ("dot", 6, 2, (2, 2)), ("dot", 7, 2, (2, 2)), ("dot", 9, 2, (2, 2)),
    ("det", 5, 2, (2, 2)), ("det", 6, 2, (2, 2)), ("det", 7, 2, (2, 2)), ("det", 9, 2, (2, 2)),
    ("det", 5, 3, (3, 6)), ("crossratio", 5, None, (2, 2)), ("crossratio", 7, None, (2, 2))])
def test_build_matrix_families_are_the_materialised_domains(kind, q, n, widths):
    # dot ranges over the coprime tuples, det and cross-ratio over every
    # tuple, all in the lexicographic order of product()
    mat = build_matrix(kind, q, 1 if kind == "dot" else 2, n=n, cap=q ** 6)
    for labels, width in zip((mat.row_index, mat.col_index), widths):
        every = [list(t) for t in itertools.product(range(q), repeat=width)]
        assert labels.tolist() == [t for t in every if kind != "dot" or math.gcd(q, *t) == 1]
    if kind == "dot":
        assert mat.row_index.tolist() == coprime_tuples(q, 2).tolist()
    assert (mat.row_index is mat.col_index) == (widths[0] == widths[1])


def test_build_matrix_refuses_det_below_d2():
    with pytest.raises(InvalidArgumentError, match="must be >= 2, got 1"):
        build_matrix("det", 5, 1, n=1)


def test_build_matrix_refuses_non_unit_dot_target():
    with pytest.raises(InvalidLambdaError, match="not a unit mod 5"):
        build_matrix("dot", 5, 0)
    with pytest.raises(InvalidLambdaError, match="not a unit mod 6"):
        build_matrix("dot", 6, 3)


def test_build_matrix_crossratio_validation():
    with pytest.raises(InvalidLambdaError):
        build_matrix("crossratio", 7, 1)
    from incidencelab import InvalidModulusError
    with pytest.raises(InvalidModulusError):
        build_matrix("crossratio", 9, 2)
    with pytest.raises(InvalidArgumentError):
        build_matrix("wedge", 7, 2)


def test_crossratio_matrix_symmetric_under_pair_swap():
    mat = build_matrix("crossratio", 7, 3)
    assert mat.shape == (49, 49)
    assert np.array_equal(mat.entries, mat.entries.T)


def _on_one(apply, label):
    """The image of one label tuple under a label-array map, None at a pole."""
    image = apply(np.array([label]))[0]
    return None if (image < 0).any() else tuple(image.tolist())


def _orbit(start, maps):
    """Closure of `start` under label-array maps (images at a pole are
    skipped)."""
    seen = {start}
    frontier = [start]
    while frontier:
        label = frontier.pop()
        for apply in maps:
            image = _on_one(apply, label)
            if image is not None and image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


@pytest.mark.parametrize("n", [2, 3])
def test_dot_generators_generate_signed_permutations(n):
    # A label with distinct nonzero coordinates is moved freely by the
    # signed permutations, so its orbit has 2^n n! elements.
    mat = build_matrix("dot", 7, 1, n=n)
    maps = [apply for _, apply in _generators(mat)]
    assert len(_orbit(tuple(range(1, n + 1)), maps)) == 2 ** n * math.factorial(n)


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_det_generators_generate_sl2(q):
    # T and S read off from their action on the basis vectors; their closure
    # under multiplication is all of SL_2(Z_q), which has q J_2(q) elements.
    mat = build_matrix("det", q, 1)
    flats = []
    for name, apply in _generators(mat):
        (a, c), (b, d) = apply(np.array([(1, 0), (0, 1)])).tolist()
        flats.append((name, (a, b, c, d)))
    assert flats == [("T", (1, 1, 0, 1)), ("S", (0, q - 1, 1, 0))]
    group = _orbit((1, 0, 0, 1), [lambda g, h=h: np.array(mat2_mul(g[0], h, q))[None]
                                  for _, h in flats])
    assert len(group) == q * jordan_totient(2, q)
    assert all(mat2_det(g, q) == 1 for g in group)


def test_crossratio_generators_act_triply_transitively():
    # PGL_2(F_q) is sharply 3-transitive, so the ordered triples of distinct
    # points of F_q form one orbit.
    q = 7
    maps = [apply for _, apply in _generators(build_matrix("crossratio", q, 3))]
    assert len(_orbit((0, 1, 2), maps)) == q * (q - 1) * (q - 2)


def test_dot_invariance_under_signed_permutations():
    for q, n in [(5, 1), (5, 2), (6, 2), (3, 3), (4, 3)]:
        mat = build_matrix("dot", q, 1, n=n)
        rep = check_invariance(mat)
        assert rep.ok
        assert rep.counterexample is None
        assert rep.transforms_checked == (1 if n == 1 else 3)
        assert rep.entries_checked == rep.transforms_checked * mat.entries.size


def test_det_invariance_under_sl2():
    for q in (3, 5, 9):
        for lam in range(q):
            assert check_invariance(build_matrix("det", q, lam)).ok


def test_crossratio_invariance_under_mobius():
    for q in (5, 7, 11):
        for lam in range(2, q):
            rep = check_invariance(build_matrix("crossratio", q, lam))
            assert rep.ok
            # x -> 1/x has a pole at 0, so its pairs touching 0 are skipped
            assert rep.entries_checked < 3 * q ** 4


@pytest.mark.parametrize("kind, q, n, lam", [
    ("dot", 7, 1, 3), ("dot", 7, 2, 1), ("dot", 5, 3, 2),
    ("det", 5, None, 2), ("det", 9, None, 1), ("crossratio", 7, None, 3)])
def test_invariance_detects_one_flipped_entry(kind, q, n, lam):
    mat = build_matrix(kind, q, lam, n=n)
    rng = np.random.default_rng(q)
    for _ in range(10):
        i, j = rng.integers(mat.shape[0]), rng.integers(mat.shape[1])
        entries = mat.entries.copy()
        entries[i, j] ^= 1
        rep = check_invariance(dataclasses.replace(mat, entries=entries))
        assert not rep.ok
        name, a, b = rep.counterexample
        assert name in [name for name, _ in _generators(mat)]
        assert list(a) in mat.row_index.tolist() and list(b) in mat.col_index.tolist()


def test_dot_invariance_detects_violation():
    # Negating coordinate 0 of the rows alone gives the matrix of the form
    # -a_0 b_0 + a_1 b_1, which the coordinate swap does not preserve.
    mat = build_matrix("dot", 5, 1)
    rows = mat.row_index.tolist()
    flipped = [[-a % 5, b] for a, b in rows]
    moved = dataclasses.replace(mat, entries=mat.entries[[rows.index(r) for r in flipped]])
    rep = check_invariance(moved)
    assert not rep.ok
    assert rep.counterexample is not None


def _restricted(mat, rows, cols=None):
    """The submatrix of `mat` on the given sorted row (and column) labels."""
    rows = np.array(rows)
    cols = mat.col_index if cols is None else np.array(cols)
    ri = [mat.row_index.tolist().index(label) for label in rows.tolist()]
    ci = [mat.col_index.tolist().index(label) for label in cols.tolist()]
    return dataclasses.replace(mat, row_index=rows, col_index=cols,
                               entries=mat.entries[np.ix_(ri, ci)])


def test_check_invariance_mapping_error():
    # Restricting the family makes some images fall outside the index.
    basis = [(0, 1), (1, 0)]
    with pytest.raises(MappingError):
        check_invariance(_restricted(build_matrix("dot", 5, 1), basis, basis))
    with pytest.raises(MappingError):
        check_invariance(_restricted(build_matrix("det", 5, 1), basis))
