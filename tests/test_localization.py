import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

import entloc as el
from entloc.errors import InvalidArgumentError, LocalizationError
from entloc.oracle import SpecSampler, oracle_pt_log_negativity
from oracle_helpers import (
    ScalarSampler,
    alpha_block_spec,
    beta_block_spec,
    cm_allclose,
    exhaustive_bipartition_scan,
    localization_to_json_dict,
    nu_tilde_pair,
    oracle_symplectic_spectrum,
    oracle_spectrum_multiplicities,
    random_bona_fide_cm,
    random_symplectic,
)


def _split(m, n):
    return el.ModeBipartition(tuple(range(m)), tuple(range(m, m + n)))


def _fs_bisym(spec, k):
    rest = spec.modes - k
    return el.BisymmetricSpec(
        k,
        rest,
        spec.b,
        spec.z1 if k > 1 else 0.0,
        spec.z2 if k > 1 else 0.0,
        spec.b,
        spec.z1 if rest > 1 else 0.0,
        spec.z2 if rest > 1 else 0.0,
        spec.z1,
        spec.z2,
    )


# ---------------------------------------------------------------------------
# Closed-form block spectra.
# ---------------------------------------------------------------------------


def test_block_spectrum_thermal_limit():
    block = el.fs_block_spectrum(el.FullySymmetricSpec(4, 1.8))
    assert block.nu_minus == pytest.approx(1.8)
    assert block.nu_plus == pytest.approx(1.8)
    assert block.multiplicity_minus == 3


def test_block_spectrum_matches_two_mode_closed_form():
    spec = el.FullySymmetricSpec(2, 1.6, 0.3, -0.25)
    block = el.fs_block_spectrum(spec)
    nu_minus, nu_plus = el.two_mode_symplectic_eigenvalues(el.fully_symmetric_cm(spec))
    assert sorted((block.nu_minus, block.nu_plus)) == pytest.approx(
        [nu_minus, nu_plus], rel=1e-12
    )


def test_block_spectrum_matches_dense_oracle_with_multiplicities():
    spec = el.FullySymmetricSpec(5, 1.4, 0.2, -0.1)
    clusters = oracle_spectrum_multiplicities(el.fully_symmetric_cm(spec))
    block = el.fs_block_spectrum(spec)
    assert len(clusters) == 2
    by_mult = {m: v for v, m in clusters}
    assert by_mult[4] == pytest.approx(block.nu_minus, rel=1e-9)
    assert by_mult[1] == pytest.approx(block.nu_plus, rel=1e-9)


def test_nu_plus_from_two_mode_collapses_at_two():
    assert el.nu_plus_from_two_mode(2, 0.7, 1.1, 1.9) == pytest.approx(1.9, rel=1e-12)


def test_nu_plus_from_two_mode_thermal():
    for n in (2, 3, 7):
        assert el.nu_plus_from_two_mode(n, 1.0 / 1.7, 1.7, 1.7) == pytest.approx(1.7, rel=1e-12)


def test_nu_plus_identity_random_specs():
    sampler = ScalarSampler(808, max_block=10)
    for _ in range(200):
        spec = sampler.fully_symmetric()
        block = el.fs_block_spectrum(spec)
        two_mode = el.fs_block_spectrum(dataclasses.replace(spec, modes=2))
        via_two = el.nu_plus_from_two_mode(
            spec.modes, 1.0 / spec.b, two_mode.nu_minus, two_mode.nu_plus
        )
        assert via_two == pytest.approx(block.nu_plus, rel=1e-10)


def test_nu_plus_identity_elevated_precision():
    # the same identity evaluated at 34 significant digits on a grid
    mp.mp.dps = 34
    rng = np.random.default_rng(515)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 12))
        b = float(rng.uniform(1.0, 3.0))
        z1 = float(rng.uniform(-0.8, 0.8))
        z2 = float(rng.uniform(-0.8, 0.8))
        try:
            el.FullySymmetricSpec(n, b, z1, z2)
        except InvalidArgumentError:
            continue
        checked += 1
        bb, zz1, zz2 = mp.mpf(b), mp.mpf(z1), mp.mpf(z2)
        nu_minus = mp.sqrt((bb - zz1) * (bb - zz2))
        nu_plus_2 = mp.sqrt((bb + zz1) * (bb + zz2))
        direct = mp.sqrt((bb + (n - 1) * zz1) * (bb + (n - 1) * zz2))
        via = mp.sqrt(
            -n * (n - 2) * bb**2 + mp.mpf(n - 1) / 2 * (n * nu_plus_2**2 + (n - 2) * nu_minus**2)
        )
        assert abs(via - direct) <= mp.mpf("1e-30") * max(1, direct)
        floats = el.nu_plus_from_two_mode(n, 1.0 / b, float(nu_minus), float(nu_plus_2))
        assert floats == pytest.approx(float(direct), rel=1e-10)


def test_fs_global_purity_pure_family():
    for modes in (2, 5, 9):
        spec = el.ghz_type_spec(modes, 1.7)
        assert el.fs_global_purity(spec) == pytest.approx(1.0, abs=1e-9)


def test_fs_global_purity_thermal():
    spec = el.FullySymmetricSpec(4, 1.9)
    assert el.fs_global_purity(spec) == pytest.approx(1.9**-4, rel=1e-12)


def test_fs_global_purity_matches_determinant():
    sampler = ScalarSampler(99, max_block=8)
    for _ in range(25):
        spec = sampler.fully_symmetric()
        direct = el.purity(el.fully_symmetric_cm(spec))
        assert el.fs_global_purity(spec) == pytest.approx(direct, rel=1e-8)


def test_global_delta_trivial_case():
    spec = el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0)
    assert el.global_delta_bisym(spec) == pytest.approx(1.5**2 + 2.0**2)


def test_global_delta_matches_block_sum_oracle():
    for spec in SpecSampler(7, max_block=5).bisymmetric(count=25):
        assembled = el.delta_invariant(el.bisymmetric_cm(spec))
        assert el.global_delta_bisym(spec) == pytest.approx(assembled, rel=1e-9)


def test_global_delta_fully_symmetric_split():
    spec = el.FullySymmetricSpec(6, 1.5, 0.25, -0.2)
    bspec = _fs_bisym(spec, 3)
    assert el.global_delta_bisym(bspec) == pytest.approx(
        el.delta_invariant(el.fully_symmetric_cm(spec)), rel=1e-9
    )


# ---------------------------------------------------------------------------
# Invariant route to the equivalent state.
# ---------------------------------------------------------------------------


def test_equivalent_uncorrelated_is_product():
    spec = el.BisymmetricSpec(2, 3, 1.4, 0.1, -0.1, 1.6, 0.2, -0.15, 0.0, 0.0)
    eq = el.equivalent_two_mode_invariants(spec)
    m = eq.cm_eq.matrix
    assert np.all(m[:2, 2:] == 0.0)
    nu_a = alpha_block_spec(spec).nu_plus()
    nu_b = beta_block_spec(spec).nu_plus()
    assert eq.mu_eq == pytest.approx(1.0 / (nu_a * nu_b), rel=1e-10)
    assert el.equivalent_report(spec).log_negativity == 0.0
    assert el.equivalent_report(spec).separable is True


def test_equivalent_cm_consistent_with_its_invariants():
    for spec in SpecSampler(13, max_block=6).bisymmetric(count=50):
        eq = el.equivalent_two_mode_invariants(spec)
        assert el.purity(eq.cm_eq) == pytest.approx(eq.mu_eq, rel=1e-8)
        assert el.delta_invariant(eq.cm_eq) == pytest.approx(eq.delta_eq, rel=1e-8)


def test_equivalent_pure_parent_is_two_mode_squeezed():
    spec = el.ghz_type_spec(6, 1.5)
    eq = el.equivalent_two_mode_invariants(_fs_bisym(spec, 2))
    assert eq.mu_eq == pytest.approx(1.0, abs=1e-7)
    assert el.purity(eq.cm_eq) == pytest.approx(1.0, abs=1e-7)
    report = el.equivalent_report(_fs_bisym(spec, 2))
    assert report.log_negativity > 0.0


def test_equivalent_nu_tilde_matches_pt_of_explicit_matrix():
    for spec in SpecSampler(17, max_block=6).bisymmetric(count=50):
        eq = el.equivalent_two_mode_invariants(spec)
        from_invariants = nu_tilde_pair(eq)
        dense = np.sort(el.pt_spectrum(eq.cm_eq, _split(1, 1)).values)
        assert from_invariants == pytest.approx(tuple(dense), rel=1e-9)


def test_equivalent_purification_direction():
    for spec in SpecSampler(19, max_block=5).bisymmetric(count=50):
        eq = el.equivalent_two_mode_invariants(spec)
        mu_parent = el.purity(el.bisymmetric_cm(spec))
        assert eq.mu_eq >= mu_parent - 1e-10
        nu_a = alpha_block_spec(spec).nu_minus() if spec.m > 1 else 1.0
        nu_b = beta_block_spec(spec).nu_minus() if spec.n > 1 else 1.0
        predicted = nu_a ** (spec.m - 1) * nu_b ** (spec.n - 1) * mu_parent
        assert eq.mu_eq == pytest.approx(predicted, rel=1e-8)
        if abs(nu_a - 1.0) <= 1e-8 and abs(nu_b - 1.0) <= 1e-8:
            assert eq.mu_eq == pytest.approx(mu_parent, rel=1e-8)


def test_equivalent_traced_parent_keeps_purity():
    # traced pure parents have nu_minus = 1: localization changes nothing
    parent = el.ghz_type_spec(10, 1.5)
    spec = dataclasses.replace(parent, modes=6)
    bspec = _fs_bisym(spec, 3)
    eq = el.equivalent_two_mode_invariants(bspec)
    mu_parent = el.purity(el.fully_symmetric_cm(spec))
    assert spec.nu_minus() == pytest.approx(1.0, abs=1e-9)
    assert eq.mu_eq == pytest.approx(mu_parent, rel=1e-8)


def test_equivalent_from_cm_matches_spec_route():
    for spec in SpecSampler(23, max_block=5).bisymmetric(count=20):
        eq_spec = el.equivalent_two_mode_invariants(spec)
        eq_cm = el.equivalent_from_cm(el.bisymmetric_cm(spec), spec.m, spec.n)
        assert np.allclose(eq_spec.cm_eq.matrix, eq_cm.cm_eq.matrix, atol=1e-10)


@pytest.mark.parametrize("size", [2_200_000_000, 3_100_000_000])
def test_invariant_route_block_sizes_past_int64_products(size):
    """2 m n (at m = n = 2.2e9) or m n (at 3.1e9) is past 2**63, where an
    int64 product wraps. The report is finite, and per mode within 1e-8 of
    the report at m = n = 2e9, whose 2 m n is below 2**63 (the wrapped
    product was 9% off at 2.2e9)."""
    fields = (2.4, 0.24, 0.3, 1.8, 0.35, 0.2, 0.03, -0.03)
    report = el.equivalent_report(el.BisymmetricSpec(size, size, *fields))
    below = el.equivalent_report(el.BisymmetricSpec(2_000_000_000, 2_000_000_000, *fields))
    assert report.separable is True and report.log_negativity == 0.0
    assert math.isfinite(report.nu_tilde_min)
    assert report.nu_tilde_min / size == pytest.approx(below.nu_tilde_min / 2e9, rel=1e-8)
    assert el.equivalent_report([el.BisymmetricSpec(size, size, *fields)]) == [report]


# ---------------------------------------------------------------------------
# Constructive route.
# ---------------------------------------------------------------------------


def test_localize_uncorrelated_blocks_fully_diagonal():
    spec = el.BisymmetricSpec(2, 2, 1.4, 0.1, -0.1, 1.6, 0.2, -0.15, 0.0, 0.0)
    result = el.localize(el.bisymmetric_cm(spec), 2, 2)
    off_diag = result.cm_final.matrix - np.diag(np.diag(result.cm_final.matrix))
    assert np.max(np.abs(off_diag)) <= 1e-10
    report = el.log_negativity(result.equivalent.cm_eq, _split(1, 1), ppt_decidable=True)
    assert report.separable is True


def test_localize_ghz_eight_modes():
    cm = el.ghz_type_pure(8, 1.5)
    result = el.localize(cm, 4, 4)
    assert result.residual <= 1e-8 * np.max(np.abs(cm.matrix))
    en_eq = oracle_pt_log_negativity(result.equivalent.cm_eq, _split(1, 1))
    en_full = oracle_pt_log_negativity(cm, _split(4, 4))
    assert en_eq == pytest.approx(en_full, rel=1e-7)


def test_localize_spectrum_content():
    spec = el.BisymmetricSpec(3, 2, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25)
    cm = el.bisymmetric_cm(spec)
    result = el.localize(cm, 3, 2)
    final_spectrum = oracle_symplectic_spectrum(result.cm_final)
    expected = sorted(
        [alpha_block_spec(spec).nu_minus()] * 2
        + [beta_block_spec(spec).nu_minus()] * 1
        + list(oracle_symplectic_spectrum(result.equivalent.cm_eq)),
        reverse=True,
    )
    assert final_spectrum == pytest.approx(expected, rel=1e-7)
    # and the congruence preserves the parent spectrum
    assert final_spectrum == pytest.approx(oracle_symplectic_spectrum(cm), rel=1e-9)


def test_localize_transform_is_local_and_symplectic():
    spec = el.BisymmetricSpec(3, 4, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25)
    cm = el.bisymmetric_cm(spec)
    result = el.localize(cm, 3, 4)
    s = result.local_symplectic
    assert el.is_symplectic(s)
    assert np.all(s[: 2 * 3, 2 * 3 :] == 0.0)
    assert np.all(s[2 * 3 :, : 2 * 3] == 0.0)
    moved = el.apply_symplectic(s, cm)
    assert cm_allclose(moved, result.cm_final, tol=1e-10)


def _non_standard_3_2():
    """A 3|2 state, and the same state seen through the same single-mode
    symplectic on every mode of a side: the pattern stays, the standard
    form goes."""
    spec = el.BisymmetricSpec(3, 2, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25)
    cm = el.bisymmetric_cm(spec)
    rng = np.random.default_rng(61)
    sa = random_symplectic(1, rng, strength=0.4)
    sb = random_symplectic(1, rng, strength=0.4)
    import scipy.linalg

    local = scipy.linalg.block_diag(*([sa] * 3 + [sb] * 2))
    return cm, el.apply_symplectic(local, cm)


def test_localize_handles_non_standard_local_basis():
    cm, moved = _non_standard_3_2()
    result = el.localize(moved, 3, 2)
    assert result.residual <= 1e-8 * np.max(np.abs(moved.matrix))
    en_eq = oracle_pt_log_negativity(result.equivalent.cm_eq, _split(1, 1))
    en_full = oracle_pt_log_negativity(cm, _split(3, 2))
    assert en_eq == pytest.approx(en_full, rel=1e-7)


def test_localize_degenerate_thermal_blocks():
    # fully degenerate local spectra: correlations still concentrate
    spec = el.BisymmetricSpec(3, 3, 2.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.5, -0.5)
    cm = el.bisymmetric_cm(spec)
    result = el.localize(cm, 3, 3)
    assert result.residual <= 1e-10
    en_eq = oracle_pt_log_negativity(result.equivalent.cm_eq, _split(1, 1))
    en_full = oracle_pt_log_negativity(cm, _split(3, 3))
    assert en_eq == pytest.approx(en_full, rel=1e-9, abs=1e-12)


def test_localize_rejects_non_bisymmetric():
    rng = np.random.default_rng(67)
    cm = random_bona_fide_cm(4, rng)
    with pytest.raises(LocalizationError):
        el.localize(cm, 2, 2)


def _loop_pattern_deviation(matrix, m, n):
    """Reference pattern check, one 2x2 block at a time (cross blocks
    upper-right only, as the matrix is symmetric)."""

    def block(i, j):
        return matrix[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]

    worst = 0.0
    for i in range(m + n):
        for j in range(m + n):
            if i >= m > j:
                continue
            if (i < m) != (j < m):
                target = block(0, m)
            elif i < m:
                target = block(0, 0) if i == j else block(0, 1)
            else:
                target = block(m, m) if i == j else block(m, m + 1)
            worst = max(worst, float(np.max(np.abs(block(i, j) - target))))
    return worst


@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (3, 1), (3, 4)])
def test_localize_pattern_check_matches_loop_reference(m, n):
    rng = np.random.default_rng(71)
    base = np.array(el.ghz_type_pure(m + n, 1.6).matrix)
    for _ in range(40):
        matrix = base.copy()
        i, j = rng.integers(0, 2 * (m + n), size=2)
        bump = float(10.0 ** rng.uniform(-11, -6))
        matrix[i, j] += bump
        matrix[j, i] += bump if i != j else 0.0
        worst = _loop_pattern_deviation(matrix, m, n)
        if worst <= 1e-8:
            el.localize(el.CovarianceMatrix(matrix), m, n, tol_pattern=1e-8)
            continue
        with pytest.raises(LocalizationError) as excinfo:
            el.localize(el.CovarianceMatrix(matrix), m, n, tol_pattern=1e-8)
        assert f"pattern deviation {worst:.3e} " in str(excinfo.value)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
def test_localize_rejects_bad_tolerance(tol):
    cm = el.ghz_type_pure(4, 1.4)
    with pytest.raises(InvalidArgumentError, match="finite number >= 0"):
        el.localize(cm, 2, 2, tol_pattern=tol)
    with pytest.raises(InvalidArgumentError, match="finite number >= 0"):
        el.localize([cm, cm], 2, 2, tol_pattern=tol)
    with pytest.raises(InvalidArgumentError, match="finite number >= 0"):
        el.equivalent_from_cm(cm, 2, 2, tol_pattern=tol)


def _bits(value):
    return np.asarray(value, dtype=float).view(np.uint64)


def test_grouped_localize_and_oracle_equal_batches_of_one():
    """A stack per (m, n) shape gives every matrix the bits of its batch of
    one, for all 36 shapes of the sampler: the stacked LAPACK and BLAS
    calls must round as the per-matrix ones do."""
    specs = SpecSampler(2026, max_block=6).bisymmetric(count=2000)
    shapes = {}
    for spec in specs:
        shapes.setdefault((spec.m, spec.n), []).append(el.bisymmetric_cm(spec))
    assert len(shapes) == 36
    two_mode = _split(1, 1)
    for (m, n), cms in shapes.items():
        grouped = el.localize(cms, m, n)
        brute = oracle_pt_log_negativity(cms, _split(m, n))
        reduced = oracle_pt_log_negativity([r.equivalent.cm_eq for r in grouped], two_mode)
        assert len(grouped) == len(brute) == len(reduced) == len(cms)
        assert not any(isinstance(r, Exception) for r in [*grouped, *brute, *reduced])
        for cm, result, en_brute, en_reduced in zip(cms, grouped, brute, reduced):
            (alone,) = el.localize([cm], m, n)
            assert np.array_equal(_bits(result.local_symplectic), _bits(alone.local_symplectic))
            assert np.array_equal(_bits(result.cm_final.matrix), _bits(alone.cm_final.matrix))
            eq, eq_alone = result.equivalent, alone.equivalent
            assert np.array_equal(_bits(eq.cm_eq.matrix), _bits(eq_alone.cm_eq.matrix))
            assert _bits(eq.mu_eq) == _bits(eq_alone.mu_eq)
            assert _bits(eq.delta_eq) == _bits(eq_alone.delta_eq)
            assert _bits(result.residual) == _bits(alone.residual)
            assert _bits(en_brute) == _bits(oracle_pt_log_negativity(cm, _split(m, n)))
            assert _bits(en_reduced) == _bits(oracle_pt_log_negativity(eq_alone.cm_eq, two_mode))


def test_localize_batch_gives_the_failing_matrix_its_error():
    spec = el.BisymmetricSpec(3, 2, 1.6, 0.2, -0.15, 1.4, 0.1, -0.05, 0.3, -0.25)
    good = el.bisymmetric_cm(spec)
    broken = []
    for bump in (2e-3, 5e-3):
        matrix = np.array(good.matrix)
        matrix[2, 2] += bump
        broken.append(el.CovarianceMatrix(matrix))
    results = el.localize([good, broken[0], good, broken[1]], 3, 2)
    assert [type(r) for r in results] == [
        el.LocalizationResult, LocalizationError, el.LocalizationResult, LocalizationError
    ]
    # each error is the one its matrix raises alone
    for error, cm, bump in ((results[1], broken[0], "2.000e-03"), (results[3], broken[1], "5.000e-03")):
        assert f"pattern deviation {bump}" in str(error)
        with pytest.raises(LocalizationError) as excinfo:
            el.localize(cm, 3, 2)
        assert str(excinfo.value) == str(error)
    alone = el.localize(good, 3, 2)
    assert np.array_equal(results[2].cm_final.matrix, alone.cm_final.matrix)
    # a matrix the split does not cover keeps its place too
    results = el.localize([el.vacuum_cm(4), good], 3, 2)
    assert isinstance(results[0], InvalidArgumentError)
    assert np.array_equal(results[1].local_symplectic, alone.local_symplectic)
    assert el.localize([], 3, 2) == []


def test_oracle_batch_needs_one_matrix_size():
    with pytest.raises(InvalidArgumentError, match="one size"):
        oracle_pt_log_negativity([el.vacuum_cm(2), el.vacuum_cm(3)], _split(1, 1))
    assert oracle_pt_log_negativity([], _split(1, 1)) == []


def test_mode_mixing_is_the_kron_product_bit_for_bit():
    """O (x) I2 by broadcasting holds the entries of ``np.kron``, signed
    zeros included, for every count and position of the Householder mixing."""
    from entloc.localization import _householder_mixing, _mode_mixing_symplectic

    signed_zeros = 0
    for count in range(1, 13):
        for position in range(count):
            o = _householder_mixing(count, position)
            want = np.kron(o.T, np.eye(2))
            got = _mode_mixing_symplectic(o)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (count, position)
            signed_zeros += int(np.signbit(want[want == 0.0]).sum())
    assert signed_zeros > 0


def test_localize_rejects_bad_split():
    cm = el.ghz_type_pure(6, 1.4)
    with pytest.raises(InvalidArgumentError):
        el.localize(cm, 2, 3)


def test_localize_matches_invariant_route():
    for spec in SpecSampler(29, max_block=6).bisymmetric(count=40):
        eq_inv = el.equivalent_two_mode_invariants(spec)
        result = el.localize(el.bisymmetric_cm(spec), spec.m, spec.n)
        assert np.allclose(
            eq_inv.cm_eq.matrix, result.equivalent.cm_eq.matrix, atol=1e-7
        )
        assert result.equivalent.mu_eq == pytest.approx(eq_inv.mu_eq, rel=1e-8)


def test_localization_result_json_shape():
    result = el.localize(el.ghz_type_pure(4, 1.3), 2, 2)
    obj = localization_to_json_dict(result)
    assert set(obj) == {"local_symplectic", "cm_final", "equivalent", "residual"}
    assert set(obj["equivalent"]) == {"cm_eq", "mu_eq", "delta_eq"}
    assert len(obj["cm_final"]["entries"]) == 64


# ---------------------------------------------------------------------------
# The reported skeleton: cm_final and cm_eq hold +0.0 off it.
# ---------------------------------------------------------------------------


def _skeleton(modes, m):
    """The diagonal and the diagonal cross block of modes m-1 and m."""
    pattern = np.eye(2 * modes, dtype=bool)
    row, col = 2 * (m - 1), 2 * m
    for offset in (0, 1):
        pattern[row + offset, col + offset] = pattern[col + offset, row + offset] = True
    return pattern


def _golden_cm():
    """The 24-mode input of the matrix-file goldens."""
    from test_matrix_goldens import ALPHA, EPS, MODES

    return el.CovarianceMatrix(np.array(
        [[(ALPHA if i // 2 == j // 2 else EPS)[i % 2][j % 2] for j in range(2 * MODES)]
         for i in range(2 * MODES)]
    ))


def _sampler_stacks(seed):
    """(matrices, m, n) per shape of 300 ``verify`` sampler draws."""
    shapes = {}
    for spec in SpecSampler(seed, max_block=6).bisymmetric(count=300):
        shapes.setdefault((spec.m, spec.n), []).append(spec)
    return [(el.bisymmetric_cm(specs), m, n) for (m, n), specs in shapes.items()]


def _skeleton_cases():
    yield "golden 12|12", [_golden_cm()], 12, 12
    yield "ghz 4|4", [el.ghz_type_pure(8, 1.5)], 4, 4
    yield "non-standard 3|2", [_non_standard_3_2()[1]], 3, 2
    for seed in (1, 7):
        for cms, m, n in _sampler_stacks(seed):
            yield f"sampler seed {seed} {m}|{n}", cms, m, n


def test_localize_reports_cm_final_and_cm_eq_on_their_skeleton():
    """Every entry off the skeleton is +0.0 (bits zero), on the paper's
    states, in a non-standard local basis and on the sampler's draws; the
    boundary block of cm_final is cm_eq, and the noise that was dropped
    is within the tolerance the residual was checked against."""
    checked = 0
    for name, cms, m, n in _skeleton_cases():
        for cm, result in zip(cms, el.localize(cms, m, n)):
            final, eq = result.cm_final.matrix, result.equivalent.cm_eq.matrix
            assert not np.any(_bits(final)[~_skeleton(m + n, m)]), name
            assert not np.any(_bits(eq)[~_skeleton(2, 1)]), name
            boundary = slice(2 * (m - 1), 2 * m + 2)
            assert np.array_equal(_bits(final[boundary, boundary]), _bits(eq)), name
            assert result.residual <= 1e-8 * max(1.0, np.max(np.abs(cm.matrix))), name
            checked += 1
    assert checked > 300


# The golden input at 12|12, recorded from the tree before the projection:
# the values the projection must not move, the sha256 of the old cm_final
# and cm_eq with their off-skeleton entries set to +0.0, and the largest
# magnitude among those old off-skeleton entries.
GOLDEN_KEPT = {
    "residual": "5.313737248484793e-15",
    "mu_eq": "0.348626968122117",
    "delta_eq": "9.227692307692216",
    "report E_N 6|18": "0.9260528622243103",
    "report E_N 12|12": "1.048043175606261",
}
GOLDEN_LOCAL_SYMPLECTIC = "6b672126a1d0af29b9900cba2581eb0bf4aa353f71050fe11355de990064e17f"
GOLDEN_ON_SKELETON = {
    "cm_final": "3d03a8a1b35d179c179d74f97d24fc5b44ec91c4ae3894eedd972526a7e8dc6d",
    "cm_eq": "6d0bf9ff573a256be4571cdaef3065d9e244078cfb7d843c89e000ce4ec8ae3a",
}
GOLDEN_LARGEST_DROPPED = 4.210816372907315e-15


def _sha256(matrix):
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()


def test_localize_golden_keeps_its_values_and_drops_only_noise():
    """The digests depend on numpy's LAPACK and BLAS, as the matrix-file
    goldens do (recorded with numpy 2.4 on x86-64)."""
    cm = _golden_cm()
    result = el.localize(cm, 12, 12)
    eq = result.equivalent
    kept = {
        "residual": repr(result.residual),
        "mu_eq": repr(eq.mu_eq),
        "delta_eq": repr(eq.delta_eq),
        "report E_N 6|18": repr(el.equivalent_report_from_cm(cm, 6, 18).log_negativity),
        "report E_N 12|12": repr(el.equivalent_report_from_cm(cm, 12, 12).log_negativity),
    }
    assert kept == GOLDEN_KEPT
    assert _sha256(result.local_symplectic) == GOLDEN_LOCAL_SYMPLECTIC
    # on the skeleton every bit is the old one, and each entry that moved
    # (to +0.0) was at most the residual in magnitude
    on_skeleton = {"cm_final": _sha256(result.cm_final.matrix), "cm_eq": _sha256(eq.cm_eq.matrix)}
    assert on_skeleton == GOLDEN_ON_SKELETON
    assert GOLDEN_LARGEST_DROPPED <= result.residual


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_skeleton_projection_keeps_non_finite_entries(value):
    """A non-finite entry off the skeleton and outside the boundary block
    passes the residual check (nan compares false; inf does against the
    infinite default tolerance of a stack holding inf), and must still fail
    the covariance check of cm_final: the projection may not zero it. In
    place in a stack, and alone."""
    from entloc.localization import _skeleton_results
    from entloc.symplectic import _PointErrors

    result = el.localize(_non_standard_3_2()[1], 3, 2)
    good = np.array(result.cm_final.matrix)
    bad = good.copy()
    bad[0, 1] = bad[1, 0] = bad[0, 8] = bad[8, 0] = value
    final = np.array([good, bad, good])
    local = np.array([result.local_symplectic] * 3)
    tol = 1e-8 * np.fmax(np.abs(final).max(axis=(1, 2)), 1.0)
    with np.errstate(all="ignore"):  # as in localize
        stacked = _skeleton_results(final, local, 3, tol, _PointErrors(3))
        alone = _skeleton_results(bad[None], local[:1], 3, tol[1:2], _PointErrors(1))
    for error in (stacked[1], alone[0]):
        assert isinstance(error, InvalidArgumentError)
        assert str(error) == "covariance matrix has non-finite entries"
    for kept in (stacked[0], stacked[2]):
        assert np.array_equal(_bits(kept.cm_final.matrix), _bits(result.cm_final.matrix))


# ---------------------------------------------------------------------------
# Separability decisions.
# ---------------------------------------------------------------------------


def test_separability_agreement_including_separable_cases():
    sampler = ScalarSampler(31, max_block=4)
    seen_separable = 0
    for i in range(60):
        spec = sampler.separable_bisymmetric() if i % 2 else sampler.bisymmetric()
        report = el.equivalent_report(spec)
        cm = el.bisymmetric_cm(spec)
        part = _split(spec.m, spec.n)
        full_pt_min = el.pt_spectrum(cm, part).min
        assert report.separable == (full_pt_min >= 1.0 - 1e-9)
        seen_separable += int(report.separable)
    assert seen_separable > 5


def test_classically_correlated_states_stay_separable():
    for g in (0.1, 0.3, 0.5):
        spec = el.BisymmetricSpec(2, 2, 2.0, 0.1, 0.1, 2.0, 0.1, 0.1, g, g)
        report = el.equivalent_report(spec)
        assert report.separable is True
        assert report.log_negativity == 0.0


# ---------------------------------------------------------------------------
# Block entanglement and the optimal split.
# ---------------------------------------------------------------------------


def test_block_log_negativity_side_symmetric():
    spec = el.ghz_type_spec(7, 1.4)
    for k in (1, 2, 3):
        left = el.block_log_negativity(spec, k).log_negativity
        right = el.block_log_negativity(spec, 7 - k).log_negativity
        assert left == pytest.approx(right, rel=1e-10)


def test_block_log_negativity_vacuum_b_one():
    spec = el.ghz_type_spec(8, 1.0)
    for k in range(1, 8):
        assert el.block_log_negativity(spec, k).log_negativity == 0.0


def test_block_log_negativity_hierarchy_matches_oracle():
    spec = el.ghz_type_spec(12, 1.5)
    cm = el.fully_symmetric_cm(spec)
    for k in range(1, 7):
        closed = el.block_log_negativity(spec, k).log_negativity
        brute = oracle_pt_log_negativity(cm, _split(k, 12 - k))
        assert closed == pytest.approx(brute, rel=1e-7)


def test_block_log_negativity_eof_on_balanced_split():
    spec = el.ghz_type_spec(10, 1.5)
    report = el.block_log_negativity(spec, 5)
    assert report.eof is not None and report.eof > 0.0


def test_ole_even_modes_balanced():
    for modes, b in ((6, 1.3), (10, 1.5), (14, 2.0)):
        spec = el.ghz_type_spec(modes, b)
        k_star, report = el.optimal_localizable_entanglement(spec)
        assert k_star == modes // 2
        assert report.log_negativity > 0.0


def test_ole_odd_modes_near_balanced():
    spec = el.ghz_type_spec(9, 1.5)
    k_star, _ = el.optimal_localizable_entanglement(spec)
    assert k_star == 4


def test_ole_vacuum_tie_breaks_to_smallest():
    spec = el.ghz_type_spec(8, 1.0)
    k_star, report = el.optimal_localizable_entanglement(spec)
    assert k_star == 1
    assert report.log_negativity == 0.0


def test_ole_accepts_covariance_matrix_input():
    spec = el.ghz_type_spec(8, 1.5)
    from_spec = el.optimal_localizable_entanglement(spec)
    from_cm = el.optimal_localizable_entanglement(el.fully_symmetric_cm(spec))
    assert from_cm[0] == from_spec[0] == 4
    assert from_cm[1].log_negativity == pytest.approx(from_spec[1].log_negativity, rel=1e-10)


def test_ole_matches_exhaustive_oracle_scan():
    spec = el.ghz_type_spec(10, 1.6)
    cm = el.fully_symmetric_cm(spec)
    scan = exhaustive_bipartition_scan(cm)
    k_star, report = el.optimal_localizable_entanglement(spec)
    best_oracle = max(scan, key=lambda kv: kv[1])
    assert k_star == best_oracle[0]
    assert report.log_negativity == pytest.approx(best_oracle[1], rel=1e-7)
