import dataclasses
import math

import numpy as np
import pytest

import entloc as el
from entloc.errors import InvalidArgumentError
from entloc.oracle import oracle_pt_log_negativity
from entloc.symplectic import TOL
from oracle_helpers import oracle_symplectic_spectrum
import paper_formulas as pf


def test_thermal_cm_vacuum():
    assert np.array_equal(pf.thermal_cm([1.0]).matrix, np.eye(2))


def test_thermal_cm_layout():
    cm = pf.thermal_cm([2.0, 3.0])
    assert np.array_equal(cm.matrix, np.diag([2.0, 2.0, 3.0, 3.0]))


def test_thermal_cm_purity():
    assert el.purity(pf.thermal_cm([2.5])) == pytest.approx(1.0 / 2.5)


def test_thermal_cm_rejects_sub_vacuum():
    with pytest.raises(InvalidArgumentError):
        pf.thermal_cm([0.9])


def test_two_mode_squeezed_zero_is_vacuum():
    assert np.array_equal(pf.two_mode_squeezed(0.0).matrix, np.eye(4))


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
def test_two_mode_squeezed_is_pure(r):
    assert el.purity(pf.two_mode_squeezed(r)) == pytest.approx(1.0, abs=1e-10)


def test_two_mode_squeezed_pt_eigenvalue():
    # brute-force PT spectrum of the r=1 state has smallest value e^{-2}
    cm = pf.two_mode_squeezed(1.0)
    pt = el.partial_transpose(cm, el.ModeBipartition((0,), (1,)))
    smallest = el.symplectic_eigenvalues(pt).min
    assert smallest == pytest.approx(0.13533528323661269, abs=1e-12)


def test_two_mode_squeezed_rejects_negative():
    with pytest.raises(InvalidArgumentError):
        pf.two_mode_squeezed(-0.1)


def test_fully_symmetric_thermal_limit():
    cm = el.fully_symmetric_cm(el.FullySymmetricSpec(3, 1.7))
    assert np.array_equal(cm.matrix, np.diag([1.7] * 6))


def test_fully_symmetric_permutation_invariance():
    spec = el.FullySymmetricSpec(4, 1.5, 0.3, -0.2)
    matrix = el.fully_symmetric_cm(spec).matrix
    for i in range(4):
        for j in range(4):
            perm = list(range(4))
            perm[i], perm[j] = perm[j], perm[i]
            idx = np.array([[2 * k, 2 * k + 1] for k in perm]).ravel()
            assert np.array_equal(matrix[np.ix_(idx, idx)], matrix)


def test_fully_symmetric_spectrum_closed_form():
    # (n=3, b=1.5, z1=0.4, z2=-0.3): {sqrt(2.07), sqrt(1.98) x2}
    spec = el.FullySymmetricSpec(3, 1.5, 0.4, -0.3)
    values = oracle_symplectic_spectrum(el.fully_symmetric_cm(spec))
    assert values == pytest.approx(
        [1.4387494569938159, 1.4071247279470289, 1.4071247279470289], abs=1e-12
    )


def test_fully_symmetric_rejects_unphysical():
    with pytest.raises(InvalidArgumentError) as excinfo:
        el.FullySymmetricSpec(3, 1.0, 0.9, 0.9)
    assert excinfo.value.offending_value is not None


def test_fs_params_round_trip():
    # build a state, measure the invariants on a two-mode reduction, map back
    spec = el.FullySymmetricSpec(5, 1.6, -0.2, 0.35)  # z2 >= z1 branch
    cm = el.fully_symmetric_cm(spec)
    pair = pf.partial_trace(cm, [0, 1])
    mu_beta = 1.0 / spec.b
    mu_beta2 = el.purity(pair)
    delta2 = el.delta_invariant(pair)
    b, z1, z2 = pf.fs_params_from_invariants(mu_beta, mu_beta2, delta2)
    assert (b, z1, z2) == pytest.approx((spec.b, spec.z1, spec.z2), abs=1e-8)


def test_fs_params_pure_uncorrelated_limit():
    assert pf.fs_params_from_invariants(1.0, 1.0, 2.0) == pytest.approx((1.0, 0.0, 0.0), abs=1e-8)


def test_fs_params_physical_forward_evaluation():
    # delta2 inside the physical window for these purities
    b, z1, z2 = pf.fs_params_from_invariants(0.8, 0.72, 2.85)
    spec = el.FullySymmetricSpec(2, b, z1, z2)
    assert el.is_bona_fide(el.fully_symmetric_cm(spec))


def test_fs_params_rejects_inconsistent():
    with pytest.raises(InvalidArgumentError):
        pf.fs_params_from_invariants(0.9, 0.9, 0.1)


def test_ghz_vacuum_limit():
    spec = el.ghz_type_spec(6, 1.0)
    assert spec.z1 == pytest.approx(0.0, abs=1e-15)
    assert spec.z2 == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(el.fully_symmetric_cm(el.ghz_type_spec(6, 1.0)).matrix, np.eye(12))


def test_ghz_m4_frozen_covariances():
    spec = el.ghz_type_spec(4, 1.5)
    assert spec.z1 == pytest.approx(0.980506146704084, abs=1e-12)
    assert spec.z2 == pytest.approx(-0.424950591148529, abs=1e-12)


def test_ghz_purity():
    assert el.purity(el.fully_symmetric_cm(el.ghz_type_spec(4, 1.5))) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("modes", [2, 3, 7, 12, 21, 40])
@pytest.mark.parametrize("b", [1.2, 2.0, 5.0])
def test_ghz_all_eigenvalues_one(modes, b):
    spectrum = el.symplectic_eigenvalues(el.fully_symmetric_cm(el.ghz_type_spec(modes, b)))
    assert np.max(np.abs(spectrum.values - 1.0)) <= 1e-8


def test_ghz_two_modes_is_entangled_pure_symmetric():
    cm = el.fully_symmetric_cm(el.ghz_type_spec(2, 1.8))
    report = el.log_negativity(cm, el.ModeBipartition((0,), (1,)))
    assert report.log_negativity > 0.0
    assert el.purity(cm) == pytest.approx(1.0, abs=1e-10)
    # identical to the two-mode squeezed vacuum at cosh(2r) = b
    r = 0.5 * math.acosh(1.8)
    assert np.allclose(cm.matrix, pf.two_mode_squeezed(r).matrix, atol=1e-12)


def test_ghz_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        el.ghz_type_spec(1, 1.5)
    with pytest.raises(InvalidArgumentError):
        el.ghz_type_spec(4, 0.99)
    # past float range the product overflows silently (b >= 1e77), and from
    # b = 1e154 on a square raises: both name b, never the z they overflow to
    for b in (1e77, 1e100, 1e153, 1e154, 1e300):
        with pytest.raises(InvalidArgumentError) as info:
            el.ghz_type_spec(4, b)
        assert str(info.value) == f"single-mode eigenvalue b = {b} overflows the 4-mode pure-state formula"
        assert info.value.offending_value == b


def test_bisymmetric_uncorrelated_is_block_diagonal():
    spec = el.BisymmetricSpec(2, 3, 1.4, 0.1, -0.1, 1.6, 0.2, -0.15, 0.0, 0.0)
    cm = el.bisymmetric_cm(spec)
    top = el.fully_symmetric_cm(el.FullySymmetricSpec(2, 1.4, 0.1, -0.1))
    bottom = el.fully_symmetric_cm(el.FullySymmetricSpec(3, 1.6, 0.2, -0.15))
    assert np.array_equal(cm.matrix[:4, :4], top.matrix)
    assert np.array_equal(cm.matrix[4:, 4:], bottom.matrix)
    assert np.all(cm.matrix[:4, 4:] == 0.0)


def test_bisymmetric_from_fully_symmetric_split():
    # a fully symmetric state is bisymmetric under every bipartition
    spec = el.ghz_type_spec(6, 1.3)
    bspec = el.BisymmetricSpec(
        2, 4, spec.b, spec.z1, spec.z2, spec.b, spec.z1, spec.z2, spec.z1, spec.z2
    )
    assert np.array_equal(el.bisymmetric_cm(bspec).matrix, el.fully_symmetric_cm(spec).matrix)


def test_bisymmetric_recovers_fully_symmetric_on_equal_blocks():
    spec = el.FullySymmetricSpec(3, 1.5, 0.25, -0.2)
    bspec = el.BisymmetricSpec(
        3, 3, spec.b, spec.z1, spec.z2, spec.b, spec.z1, spec.z2, spec.z1, spec.z2
    )
    full = el.fully_symmetric_cm(el.FullySymmetricSpec(6, spec.b, spec.z1, spec.z2))
    assert np.array_equal(el.bisymmetric_cm(bspec).matrix, full.matrix)


def test_bisymmetric_degenerate_spectrum_multiplicities():
    spec = el.BisymmetricSpec(3, 4, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25)
    clusters = el.symplectic_eigenvalues(el.bisymmetric_cm(spec)).clustered()
    multiplicities = sorted(m for _, m in clusters)
    nu_a = el.FullySymmetricSpec(3, 1.5, 0.2, -0.1).nu_minus()
    nu_b = el.FullySymmetricSpec(4, 1.7, 0.25, -0.12).nu_minus()
    by_value = {round(v, 6): m for v, m in clusters}
    assert by_value.get(round(nu_a, 6), 0) >= 2
    assert by_value.get(round(nu_b, 6), 0) >= 3
    assert sum(m for _, m in clusters) == 7
    assert multiplicities[-1] >= 3


def test_bisymmetric_rejects_unphysical_with_eigenvalue():
    with pytest.raises(InvalidArgumentError) as excinfo:
        el.BisymmetricSpec(2, 2, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.9, -0.9)
    assert excinfo.value.offending_value is not None
    assert excinfo.value.offending_value < 1.0


def _loop_assembled(spec):
    """Reference assembly, one 2x2 block at a time."""
    total = spec.m + spec.n
    out = np.zeros((2 * total, 2 * total))
    for i in range(total):
        for j in range(total):
            if (i < spec.m) != (j < spec.m):
                block = np.diag([spec.g1, spec.g2])
            elif i < spec.m:
                block = np.diag([spec.a, spec.a] if i == j else [spec.e1, spec.e2])
            else:
                block = np.diag([spec.b, spec.b] if i == j else [spec.z1, spec.z2])
            out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
    return out


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (3, 1), (2, 5), (7, 6)])
def test_bisymmetric_cm_matches_loop_assembly(m, n):
    spec = el.BisymmetricSpec(
        m, n, 1.7, 0.11 if m > 1 else 0.0, -0.07 if m > 1 else 0.0,
        1.9, 0.13 if n > 1 else 0.0, -0.05 if n > 1 else 0.0, 0.21, -0.17,
    )
    assert np.array_equal(el.bisymmetric_cm(spec).matrix, _loop_assembled(spec))


def test_bisymmetric_single_mode_blocks():
    spec = el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 1.5, 0.0, 0.0, 0.5, -0.5)
    assert el.bisymmetric_cm(spec).modes == 2


def test_traced_ghz_stays_physical_and_mixed():
    parent = el.ghz_type_spec(10, 1.5)
    traced = dataclasses.replace(parent, modes=6)
    cm = el.fully_symmetric_cm(traced)
    assert el.is_bona_fide(cm)
    assert el.purity(cm) < 1.0
    # entanglement survives tracing
    part = el.ModeBipartition(tuple(range(3)), tuple(range(3, 6)))
    assert oracle_pt_log_negativity(cm, part) > 0.0


# ---------------------------------------------------------------------------
# Closed-form validation of two-block specs against the dense oracle.
# ---------------------------------------------------------------------------

SPEC_FIELDS = ("a", "e1", "e2", "b", "z1", "z2", "g1", "g2")


def _dense_min_nu(params):
    """Smallest dense symplectic eigenvalue of the assembled pattern, or
    None when the matrix is not positive definite."""
    m, n = params["m"], params["n"]
    top = np.kron(np.eye(m), np.diag([params["a"] - params["e1"], params["a"] - params["e2"]]))
    top += np.kron(np.ones((m, m)), np.diag([params["e1"], params["e2"]]))
    bottom = np.kron(np.eye(n), np.diag([params["b"] - params["z1"], params["b"] - params["z2"]]))
    bottom += np.kron(np.ones((n, n)), np.diag([params["z1"], params["z2"]]))
    cross = np.kron(np.ones((m, n)), np.diag([params["g1"], params["g2"]]))
    matrix = np.block([[top, cross], [cross.T, bottom]])
    if np.linalg.eigvalsh(matrix)[0] <= 0.0:
        return None
    return float(oracle_symplectic_spectrum(el.CovarianceMatrix(matrix)).min())


def _closed_form_min_nu(params):
    from entloc.states import _bisymmetric_min_nu

    return _bisymmetric_min_nu(*(params[f] for f in ("m", "n") + SPEC_FIELDS))


def test_bisymmetric_validation_matches_dense_oracle_on_sampler_draws():
    from entloc.oracle import SpecSampler

    sampler = SpecSampler(2024)

    def uniform(box):
        return float(sampler.rng.uniform(*box))

    accepted = rejected = 0
    for _ in range(2000):
        m = int(sampler.rng.integers(1, sampler.max_block + 1))
        n = int(sampler.rng.integers(1, sampler.max_block + 1))
        params = {
            "m": m, "n": n,
            "a": uniform(sampler.b_box),
            "e1": uniform(sampler.corr_box) if m > 1 else 0.0,
            "e2": uniform(sampler.corr_box) if m > 1 else 0.0,
            "b": uniform(sampler.b_box),
            "z1": uniform(sampler.corr_box) if n > 1 else 0.0,
            "z2": uniform(sampler.corr_box) if n > 1 else 0.0,
            "g1": uniform(sampler.cross_box),
            "g2": uniform(sampler.cross_box),
        }
        dense = _dense_min_nu(params)
        dense_accepts = dense is not None and dense >= 1.0 - TOL.UNCERTAINTY
        try:
            el.BisymmetricSpec(**params)
            accepts = True
        except InvalidArgumentError:
            accepts = False
        assert accepts == dense_accepts, params
        if dense is not None:
            assert _closed_form_min_nu(params) == pytest.approx(dense, rel=1e-12, abs=0.0)
        else:
            with pytest.raises(InvalidArgumentError, match="not positive definite"):
                _closed_form_min_nu(params)
        accepted += accepts
        rejected += not accepts
    assert accepted > 200 and rejected > 200


@pytest.mark.parametrize("q", [0, 1, 4])
def test_bisymmetric_validation_matches_dense_oracle_on_pure_and_traced_splits(q):
    from entloc.experiments import traced_symmetric_spec

    for modes in (2, 3, 5, 8, 13, 21, 34, 50):
        for b in (1.0, 1.3, 2.0, 3.0):
            spec = traced_symmetric_spec(modes, q, b)
            dense = float(oracle_symplectic_spectrum(el.fully_symmetric_cm(spec)).min())
            for k in range(1, modes):
                split = pf.fs_split_spec(spec, k)  # validates: must be accepted
                params = dataclasses.asdict(split)
                assert _closed_form_min_nu(params) == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_bisymmetric_validation_is_size_independent(monkeypatch):
    from entloc import states, symplectic

    def forbidden(*args, **kwargs):
        raise AssertionError("validation must not touch the assembled matrix")

    monkeypatch.setattr(states, "_assemble", forbidden)
    monkeypatch.setattr(symplectic, "symplectic_eigenvalues", forbidden)
    monkeypatch.setattr(symplectic, "_symplectic_spectra", forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    parent = el.ghz_type_spec(2002, 1.5)
    spec = el.BisymmetricSpec(
        1000, 1000, parent.b, parent.z1, parent.z2, parent.b, parent.z1, parent.z2,
        parent.z1, parent.z2,
    )
    assert spec.total_modes == 2000
    with pytest.raises(InvalidArgumentError):
        el.BisymmetricSpec(1000, 1000, 1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 0.5, 0.5)


def test_bisymmetric_non_positive_definite_reports_smallest_factor():
    # a - e1 = -0.1 is the only non-positive factor
    with pytest.raises(InvalidArgumentError, match="not positive definite") as excinfo:
        el.BisymmetricSpec(2, 1, 1.0, 1.1, 0.0, 1.5, 0.0, 0.0, 0.0, 0.0)
    assert excinfo.value.offending_value == pytest.approx(-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", SPEC_FIELDS)
def test_bisymmetric_rejects_non_finite(name, bad):
    params = dict(m=2, n=2, a=1.5, e1=0.1, e2=-0.1, b=1.6, z1=0.1, z2=-0.1, g1=0.2, g2=-0.2)
    el.BisymmetricSpec(**params)
    params[name] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        el.BisymmetricSpec(**params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["b", "z1", "z2"])
def test_fully_symmetric_rejects_non_finite(name, bad):
    params = dict(modes=3, b=1.5, z1=0.1, z2=-0.1)
    params[name] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        el.FullySymmetricSpec(**params)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ghz_rejects_non_finite(bad):
    with pytest.raises(InvalidArgumentError, match="finite"):
        el.ghz_type_spec(4, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_covariance_matrix_rejects_non_finite(bad):
    matrix = np.eye(4)
    matrix[1, 2] = matrix[2, 1] = bad
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        el.CovarianceMatrix(matrix)
