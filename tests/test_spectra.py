"""Incidence matrices, the Jacobi eigensolver, exact fourth moments,
and invariance under the natural transform groups."""

import io
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
    eig_symmetric,
    enumerate_sl2,
    rectangular_norm,
    second_eigenvalue_bound,
    singular_values,
    spectrum_report,
)
from incidencelab.errors import MappingError
from incidencelab.modring import mat2_det
from incidencelab.spectra import (
    dump_matrix,
    mat2_orbit,
    rectangular_norm_split,
    signed_permutation_matrices,
)


def test_eig_symmetric_known_2x2():
    values, vectors = eig_symmetric([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(values, [3.0, 1.0])
    assert np.allclose(vectors.T @ vectors, np.eye(2))


def test_eig_symmetric_matches_lapack():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 5, 16):
        a = rng.normal(size=(dim, dim))
        a = a + a.T
        values, vectors = eig_symmetric(a)
        expected = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(values, expected, atol=1e-8)
        assert np.allclose(a @ vectors, vectors @ np.diag(values), atol=1e-8)
        assert np.allclose(vectors.T @ vectors, np.eye(dim), atol=1e-10)


def test_eig_symmetric_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        eig_symmetric(np.ones((2, 3)))
    with pytest.raises(InvalidArgumentError):
        eig_symmetric([[1.0, 2.0], [0.0, 1.0]])


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
    total, off_diag = rectangular_norm_split(mat.entries)
    assert total == 120
    assert off_diag == 48
    assert rectangular_norm(mat.entries) == 120


def test_rectangular_norm_equals_fourth_moment():
    rng = np.random.default_rng(9)
    m = (rng.random((7, 5)) < 0.4).astype(np.uint8)
    exact = rectangular_norm(m)
    sv = singular_values(m)
    assert math.isclose(float((sv ** 4).sum()), exact, rel_tol=1e-9, abs_tol=1e-9)


def test_spectrum_report_rectangular_uses_singular_values():
    mat = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    rep = spectrum_report(mat)
    assert not rep.symmetric
    assert all(v >= 0 for v in rep.spectral_values)
    assert rep.fourth_moment_exact == rectangular_norm(mat)


def test_build_matrix_caps():
    with pytest.raises(TooLargeError):
        build_matrix("dot", 5, 1, cap=10)
    with pytest.raises(TooLargeError):
        build_matrix("det", 7, 1, n=2, m=1, cap=100)


def test_build_matrix_refuses_non_unit_dot_target():
    with pytest.raises(InvalidLambdaError, match="not a unit mod 5"):
        build_matrix("dot", 5, 0)
    with pytest.raises(InvalidLambdaError, match="not a unit mod 6"):
        build_matrix("dot", 6, 3)


def test_build_matrix_exact_at_wide_modulus():
    q = 3 ** 20
    lam = 2 * (q - 1) ** 2 % q
    mat = build_matrix("dot", q, lam, row_family=[(q - 1, q - 1), (1, 1)],
                       col_family=[(q - 1, q - 1)])
    assert mat.entries.tolist() == [[1], [0]]


def test_build_matrix_crossratio_validation():
    with pytest.raises(InvalidArgumentError):
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


def test_enumerate_sl2_sizes_and_determinants():
    g5 = enumerate_sl2(5)
    assert len(g5) == 120
    assert len(enumerate_sl2(6)) == 144
    assert all(mat2_det(g, 5) == 1 for g in g5)
    assert g5 == sorted(g5)
    with pytest.raises(TooLargeError):
        enumerate_sl2(101, cap=1000)


def test_signed_permutation_matrices():
    mats = signed_permutation_matrices(2)
    assert len(mats) == 8
    for g in mats:
        arr = np.array(g)
        assert np.array_equal(arr @ arr.T, np.eye(2, dtype=int))


def test_dot_invariance_under_signed_permutations():
    mat = build_matrix("dot", 5, 1)
    rep = check_invariance(mat, signed_permutation_matrices(2), "linear")
    assert rep.ok
    assert rep.transforms_checked == 8
    assert rep.entries_checked > 0


def test_dot_invariance_detects_violation():
    # The shear (a, b) -> (a + b, b) preserves joint coprimality but not the
    # dot form, so it must be flagged.
    mat = build_matrix("dot", 5, 1)
    rep = check_invariance(mat, [((1, 1), (0, 1))], "linear")
    assert not rep.ok
    assert rep.counterexample is not None


def test_det_invariance_under_sl2():
    mat = build_matrix("det", 3, 1)
    transforms = [((a, b), (c, d)) for a, b, c, d in enumerate_sl2(3)]
    rep = check_invariance(mat, transforms, "linear")
    assert rep.ok


def test_crossratio_invariance_under_mobius():
    mat = build_matrix("crossratio", 7, 3)
    transforms = [(1, 1, 0, 1), (0, 1, 6, 0), (2, 0, 0, 4), (3, 1, 1, 2)]
    assert all(mat2_det(g, 7) != 0 for g in transforms)
    rep = check_invariance(mat, transforms, "mobius")
    assert rep.ok


def test_check_invariance_mapping_error():
    # Restricting the family makes some images fall outside the index.
    mat = build_matrix("dot", 5, 1, row_family=[(1, 0), (0, 1)],
                       col_family=[(1, 0), (0, 1)])
    with pytest.raises(MappingError):
        check_invariance(mat, [((1, 1), (0, 1))], "linear")
    with pytest.raises(InvalidArgumentError):
        check_invariance(mat, [((1, 0), (0, 1))], "rotate")


def test_mat2_orbit_closes():
    # The rotation-like element of order 4 mod 5.
    orbit = mat2_orbit([(0, 1, 4, 0)], 5)
    assert len(orbit) == 4
    assert (1, 0, 0, 1) in orbit


def test_dump_matrix():
    mat = build_matrix("det", 3, 1)
    buf = io.StringIO()
    dump_matrix(mat, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "kind=det q=3 lam=1 rows=9 cols=9"
    assert len(lines) == 10
    assert set("".join(lines[1:])) <= {"0", "1"}
