import json

import numpy as np
import pytest

import entloc as el
from entloc.errors import (
    DecompositionError,
    InvalidArgumentError,
    NumericalDomainError,
)
from oracle_helpers import (
    cm_allclose,
    oracle_symplectic_spectrum,
    random_bona_fide_cm,
    random_symplectic,
)


def test_symplectic_form_single_mode():
    omega = el.symplectic_form(1)
    assert np.array_equal(omega, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_symplectic_form_two_modes_block_diagonal():
    omega = el.symplectic_form(2)
    single = el.symplectic_form(1)
    assert np.array_equal(omega[:2, :2], single)
    assert np.array_equal(omega[2:, 2:], single)
    assert np.all(omega[:2, 2:] == 0.0)


@pytest.mark.parametrize("modes", [1, 2, 5, 11])
def test_symplectic_form_squares_to_minus_identity(modes):
    omega = el.symplectic_form(modes)
    assert np.allclose(omega @ omega, -np.eye(2 * modes))
    assert np.allclose(omega, -omega.T)


def test_symplectic_form_rejects_zero_modes():
    with pytest.raises(InvalidArgumentError):
        el.symplectic_form(0)


def test_covariance_matrix_rejects_asymmetric():
    bad = np.eye(2)
    bad[0, 1] = 1e-3
    with pytest.raises(InvalidArgumentError):
        el.CovarianceMatrix(bad)


def test_covariance_matrix_rejects_odd_shape():
    with pytest.raises(InvalidArgumentError):
        el.CovarianceMatrix(np.eye(3))


def test_is_bona_fide_vacuum():
    for modes in (1, 3, 6):
        assert el.is_bona_fide(el.vacuum_cm(modes))


def test_is_bona_fide_rejects_sub_vacuum():
    cm = el.CovarianceMatrix(np.diag([0.5, 0.5]))
    assert not el.is_bona_fide(cm)


def test_is_bona_fide_ghz_family():
    # dense-eigensolver oracle agrees with the physicality decision
    for b in (1.0, 1.3, 2.5, 4.0):
        cm = el.ghz_type_pure(6, b)
        assert el.is_bona_fide(cm)
        assert oracle_symplectic_spectrum(cm).min() >= 1.0 - 1e-8


def test_symplectic_eigenvalues_thermal():
    cm = el.CovarianceMatrix(np.diag([2.5, 2.5]))
    spectrum = el.symplectic_eigenvalues(cm)
    assert spectrum.values == pytest.approx([2.5])


def test_symplectic_eigenvalues_vacuum_all_ones():
    spectrum = el.symplectic_eigenvalues(el.vacuum_cm(4))
    assert spectrum.values == pytest.approx([1.0] * 4)


def test_symplectic_eigenvalues_fully_symmetric_closed_form():
    # (n=4, b=1.2, z1=0.1, z2=-0.05): nu_plus = sqrt(1.575), nu_minus = sqrt(1.375) x3
    spec = el.FullySymmetricSpec(4, 1.2, 0.1, -0.05)
    values = el.symplectic_eigenvalues(el.fully_symmetric_cm(spec)).values
    expected = [1.254990039801113, 1.172603939955857, 1.172603939955857, 1.172603939955857]
    assert values == pytest.approx(expected, abs=1e-12)


def test_symplectic_eigenvalues_requires_positive_definite():
    cm = el.CovarianceMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(NumericalDomainError):
        el.symplectic_eigenvalues(cm)


def test_spectrum_clustering():
    spectrum = el.SymplecticSpectrum(np.array([2.0, 1.0 + 5e-9, 1.0, 1.0 - 5e-9]))
    clusters = spectrum.clustered()
    assert [m for _, m in clusters] == [1, 3]
    assert clusters[1][0] == pytest.approx(1.0, abs=1e-8)


def test_williamson_diagonal_thermal_input():
    cm = el.CovarianceMatrix(np.diag([3.0, 3.0, 2.0, 2.0]))
    s, spectrum = el.williamson(cm)
    assert spectrum.values == pytest.approx([3.0, 2.0])
    assert el.is_symplectic(s)


@pytest.mark.parametrize("modes,seed", [(1, 0), (2, 1), (4, 2), (8, 3), (16, 4), (24, 5)])
def test_williamson_round_trip_random(modes, seed):
    rng = np.random.default_rng(seed)
    cm = random_bona_fide_cm(modes, rng)
    s, spectrum = el.williamson(cm)
    d = np.diag(np.repeat(spectrum.values, 2))
    residual = np.max(np.abs(s.T @ d @ s - cm.matrix)) / max(1.0, np.max(np.abs(cm.matrix)))
    assert residual <= 1e-8
    assert el.is_symplectic(s)
    assert spectrum.values == pytest.approx(oracle_symplectic_spectrum(cm), rel=1e-9)


def _thermal_in_random_basis():
    s = random_symplectic(4, np.random.default_rng(11))
    return el.CovarianceMatrix(s.T @ el.thermal_cm([2.0] * 4).matrix @ s)


@pytest.mark.parametrize(
    "make_cm",
    [
        lambda: el.vacuum_cm(5),
        lambda: el.thermal_cm([2.0] * 4),
        lambda: el.ghz_type_pure(6, 1.7),
        lambda: el.ghz_type_pure(6, 30.0),
        _thermal_in_random_basis,
    ],
    ids=["vacuum", "equal_thermal", "pure_b1.7", "pure_b30", "equal_thermal_rotated"],
)
def test_williamson_degenerate_and_squeezed(make_cm):
    cm = make_cm()
    s, spectrum = el.williamson(cm)
    d = np.diag(np.repeat(spectrum.values, 2))
    residual = np.max(np.abs(s.T @ d @ s - cm.matrix)) / np.max(np.abs(cm.matrix))
    assert residual <= 1e-12
    assert el.is_symplectic(s)
    assert np.max(np.abs(spectrum.values - oracle_symplectic_spectrum(cm))) <= 1e-9


def test_williamson_two_mode_round_trip_tight():
    rng = np.random.default_rng(42)
    cm = random_bona_fide_cm(2, rng)
    s, spectrum = el.williamson(cm)
    d = np.diag(np.repeat(spectrum.values, 2))
    assert np.max(np.abs(s.T @ d @ s - cm.matrix)) <= 1e-9 * np.max(np.abs(cm.matrix))


def test_purity_vacuum_and_thermal():
    assert el.purity(el.vacuum_cm(3)) == pytest.approx(1.0)
    assert el.purity(el.thermal_cm([2.0, 4.0])) == pytest.approx(1.0 / 8.0)


def test_purity_matches_spectrum_product():
    rng = np.random.default_rng(9)
    for _ in range(5):
        cm = random_bona_fide_cm(4, rng)
        spectrum = el.symplectic_eigenvalues(cm)
        assert el.purity(cm) == pytest.approx(1.0 / np.prod(spectrum.values), rel=1e-8)


def test_purity_domain_error():
    cm = el.CovarianceMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(NumericalDomainError):
        el.purity(cm)


def test_delta_invariant_vacuum():
    assert el.delta_invariant(el.vacuum_cm(5)) == pytest.approx(5.0)


def test_delta_invariant_two_mode_standard_form():
    a, b, cp, cmn = 2.0, 1.5, 0.7, -0.4
    m = np.array(
        [
            [a, 0, cp, 0],
            [0, a, 0, cmn],
            [cp, 0, b, 0],
            [0, cmn, 0, b],
        ]
    )
    value = el.delta_invariant(el.CovarianceMatrix(m))
    assert value == pytest.approx(a**2 + b**2 + 2 * cp * cmn)


@pytest.mark.parametrize("seed", range(4))
def test_delta_and_det_invariant_under_symplectic(seed):
    rng = np.random.default_rng(100 + seed)
    cm = random_bona_fide_cm(3, rng)
    s = random_symplectic(3, rng)
    moved = el.apply_symplectic(s, cm)
    assert el.delta_invariant(moved) == pytest.approx(el.delta_invariant(cm), rel=1e-8)
    assert np.linalg.det(moved.matrix) == pytest.approx(np.linalg.det(cm.matrix), rel=1e-8)


def test_apply_symplectic_identity_and_rotation():
    cm = el.vacuum_cm(1)
    assert cm_allclose(el.apply_symplectic(np.eye(2), cm), cm)
    theta = 0.7
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    assert cm_allclose(el.apply_symplectic(rot, cm), cm)


def test_apply_symplectic_preserves_spectrum():
    rng = np.random.default_rng(77)
    cm = random_bona_fide_cm(4, rng)
    s = random_symplectic(4, rng)
    before = el.symplectic_eigenvalues(cm).values
    after = el.symplectic_eigenvalues(el.apply_symplectic(s, cm)).values
    assert after == pytest.approx(before, rel=1e-9, abs=1e-9)


def test_apply_symplectic_rejects_non_symplectic():
    with pytest.raises(InvalidArgumentError):
        el.apply_symplectic(2.0 * np.eye(2), el.vacuum_cm(1))


def test_apply_symplectic_rejects_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        el.apply_symplectic(np.eye(4), el.vacuum_cm(1))


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(5)
    cm = random_bona_fide_cm(3, rng)
    assert cm_allclose(el.partial_trace(cm, [0, 1, 2]), cm)


def test_partial_trace_two_mode_squeezed():
    r = 0.8
    reduced = el.partial_trace(el.two_mode_squeezed(r), [0])
    assert np.allclose(reduced.matrix, np.cosh(2 * r) * np.eye(2))


def test_partial_trace_preserves_symmetric_pattern():
    spec = el.ghz_type_spec(8, 1.4)
    cm = el.fully_symmetric_cm(spec)
    reduced = el.partial_trace(cm, range(4))
    expected = el.fully_symmetric_cm(
        el.FullySymmetricSpec(4, spec.b, spec.z1, spec.z2)
    )
    assert np.array_equal(reduced.matrix, expected.matrix)
    assert el.is_bona_fide(reduced)


def test_partial_trace_validates_indices():
    cm = el.vacuum_cm(2)
    with pytest.raises(InvalidArgumentError):
        el.partial_trace(cm, [])
    with pytest.raises(InvalidArgumentError):
        el.partial_trace(cm, [0, 2])
    with pytest.raises(InvalidArgumentError):
        el.partial_trace(cm, [0, 0])


def test_two_mode_closed_form_matches_dense():
    rng = np.random.default_rng(123)
    for _ in range(50):
        cm = random_bona_fide_cm(2, rng)
        closed = el.two_mode_symplectic_eigenvalues(cm)
        dense = np.sort(oracle_symplectic_spectrum(cm))
        assert closed == pytest.approx(tuple(dense), rel=1e-10)


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    cm = random_bona_fide_cm(3, rng)
    path = tmp_path / "state.json"
    el.save_cm(cm, path)
    assert cm_allclose(el.load_cm(path), cm)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    cm = random_bona_fide_cm(2, rng)
    path = tmp_path / "state.csv"
    el.save_cm(cm, path)
    assert cm_allclose(el.load_cm(path), cm)


def test_json_reader_rejects_asymmetric(tmp_path):
    entries = np.eye(2)
    entries[0, 1] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"modes": 1, "entries": entries.ravel().tolist()}))
    with pytest.raises(InvalidArgumentError):
        el.load_cm(path)


def test_json_reader_rejects_bad_size(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"modes": 2, "entries": [1.0, 2.0]}))
    with pytest.raises(InvalidArgumentError):
        el.load_cm(path)


def test_csv_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,abc\n0.0,1.0\n")
    with pytest.raises(InvalidArgumentError) as info:
        el.load_cm(path)
    assert str(info.value) == "CSV line 1: could not convert string to float: 'abc'"
