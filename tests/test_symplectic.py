import gc
import json
import re

import mpmath as mp
import numpy as np
import pytest

import entloc as el
from entloc.errors import (
    DecompositionError,
    InvalidArgumentError,
    NumericalDomainError,
)
from entloc.experiments import traced_symmetric_spec
from entloc.oracle import SpecSampler, oracle_pt_log_negativity
from entloc.states import BisymmetricBatch
from entloc.symplectic import _mirror_momenta, _omega_times, _PointErrors, _symplectic_spectra
from oracle_helpers import (
    bits,
    cm_allclose,
    eigvals_symplectic_spectra,
    oracle_symplectic_spectrum,
    random_bona_fide_cm,
    random_symplectic,
)
import paper_formulas as pf

EPS = np.finfo(float).eps


def test_symplectic_form_single_mode():
    omega = el.symplectic_form(1)
    assert np.array_equal(omega, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_symplectic_form_two_modes_block_diagonal():
    omega = el.symplectic_form(2)
    single = el.symplectic_form(1)
    assert np.array_equal(omega[:2, :2], single)
    assert np.array_equal(omega[2:, 2:], single)
    assert np.all(omega[:2, 2:] == 0.0)


@pytest.mark.portable(reason="the symplectic form holds 0, 1 and -1 only, and its square is exact")
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
    # rows of unequal length, which numpy makes no array of, and entries
    # that are no numbers: before, a bare ValueError or TypeError
    for matrix in ([[1.0, 0.0], [0.0]], [[1.0, "x"], [0.0, 1.0]], [[1.0, {}], [0.0, 1.0]]):
        with pytest.raises(InvalidArgumentError, match="must be an array of real numbers"):
            el.CovarianceMatrix(matrix)


def test_is_bona_fide_vacuum():
    for modes in (1, 3, 6):
        assert el.is_bona_fide(pf.vacuum_cm(modes))


def test_is_bona_fide_rejects_sub_vacuum():
    cm = el.CovarianceMatrix(np.diag([0.5, 0.5]))
    assert not el.is_bona_fide(cm)


def test_is_bona_fide_decides_a_matrix_with_no_factor_from_a_value():
    """A matrix with no Cholesky factor is no state, decided from the
    kernel's error as a value: when it was decided by catching the raised
    error, that error's traceback kept its frames in a cycle, 10 objects a
    call that only a garbage collection freed."""
    cm = el.CovarianceMatrix(np.diag([1.0, 1.0, -1.0, 1.0]))
    assert not el.is_bona_fide(cm)  # warm caches
    gc.collect()
    gc.disable()
    try:
        decision = el.is_bona_fide(cm)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert (decision, unreachable) == (False, 0)


def _past_float_range_state():
    """An 8 x 8 state near the top of float range whose L^T Omega L overflows."""
    big = np.array([[1.0, 0.3], [0.3, 1.0]]) * 0.85e308
    grid = np.empty((4, 4, 2, 2))
    grid[:, :] = 0.9 * big
    grid[:2, 2:], grid[2:, :2] = 0.8 * big, 0.8 * big
    grid[range(4), range(4)] = big
    return grid.transpose(0, 2, 1, 3).reshape(8, 8)


def test_a_spectrum_past_float_range_fails_as_a_value():
    """A state whose L^T Omega L overflows fails before either solver runs,
    and the finite form of its 1 | 3 partial transpose, whose largest nu
    overflows in the eigenvalue difference, fails after it; neither
    warns, and the other row of the stack keeps its spectrum."""
    matrix = _past_float_range_state()
    transpose = el.partial_transpose(el.CovarianceMatrix(matrix), el.ModeBipartition.contiguous(1, 3))
    vacuum = np.eye(8)
    nus, errors = _kernel(np.array([matrix, transpose.matrix, vacuum]))
    assert [str(error) for error in errors.errors[:2]] == [
        "overflow: L^T Omega L of the Cholesky factor L is out of float range",
        "overflow: a symplectic eigenvalue is out of float range"]
    assert errors.errors[2] is None and nus[2].tolist() == [1.0] * 4


def test_williamson_of_a_form_past_float_range_fails_as_a_value():
    """``williamson`` forms L^T Omega L as the spectrum kernel does and
    raises the kernel's error before the eigensolver when the form is not
    finite; it used to warn of the overflow and fail inside ``eigh``.
    The finite form of the partial transpose still decomposes."""
    matrix = _past_float_range_state()
    message = "overflow: L^T Omega L of the Cholesky factor L is out of float range"
    with pytest.raises(NumericalDomainError, match=re.escape(message)):
        el.williamson(el.CovarianceMatrix(matrix))
    transpose = el.partial_transpose(el.CovarianceMatrix(matrix), el.ModeBipartition.contiguous(1, 3))
    s, spectrum = el.williamson(transpose)
    assert np.isfinite(s).all() and np.isfinite(spectrum.values).all()


def test_is_bona_fide_ghz_family():
    # dense-eigensolver oracle agrees with the physicality decision
    for b in (1.0, 1.3, 2.5, 4.0):
        cm = el.fully_symmetric_cm(el.ghz_type_spec(6, b))
        assert el.is_bona_fide(cm)
        assert oracle_symplectic_spectrum(cm).min() >= 1.0 - 1e-8


def test_symplectic_eigenvalues_thermal():
    cm = el.CovarianceMatrix(np.diag([2.5, 2.5]))
    spectrum = el.symplectic_eigenvalues(cm)
    assert spectrum.values == pytest.approx([2.5])


def test_symplectic_eigenvalues_vacuum_all_ones():
    spectrum = el.symplectic_eigenvalues(pf.vacuum_cm(4))
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
    with pytest.raises(NumericalDomainError, match="covariance matrix is not positive definite"):
        el.williamson(cm)


def test_spectrum_clustering():
    spectrum = el.SymplecticSpectrum(np.array([2.0, 1.0 + 5e-9, 1.0, 1.0 - 5e-9]))
    clusters = spectrum.clustered()
    assert [m for _, m in clusters] == [1, 3]
    assert clusters[1][0] == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# The dense spectrum kernel: a Cholesky factor, then the singular values of
# the x-p block of its form or a Hermitian eigensolver, checked against the
# general eigensolver of Omega @ sigma it replaced.
# ---------------------------------------------------------------------------


def _kernel(stack):
    """The kernel's (K, N) spectra and the per-matrix errors of a stack."""
    errors = _PointErrors(len(stack))
    return _symplectic_spectra(stack, errors), errors


def _random_positive_definite_stacks(seed, count=20):
    """One stack of ``count`` random positive definite matrices per mode
    count 1..12: G G^T / 2N + 0.05 I for a normal G, which gives spectra
    that are neither physical nor well separated."""
    rng = np.random.default_rng(seed)
    for modes in range(1, 13):
        g = rng.normal(size=(count, 2 * modes, 2 * modes))
        stack = g @ g.swapaxes(1, 2) / (2 * modes) + 0.05 * np.eye(2 * modes)
        yield 0.5 * (stack + stack.swapaxes(1, 2))


def _verify_oracle_stacks(seed):
    """The mirrored stacks the oracle of `verify --cases 1000 --seed S`
    takes: one per (m, n) shape group, and its reduced two-mode matrices."""
    groups = {}
    for spec in SpecSampler(seed).bisymmetric(count=1000):
        groups.setdefault((spec.m, spec.n), []).append(spec)
    reduced = []
    for (m, n), specs in groups.items():
        stack = el.bisymmetric_cm(BisymmetricBatch.of(specs))
        reduced.append(el.localize([stack], [m], [n])[0].cm_eq)
        yield _mirror_momenta(stack, range(m, m + n))
    yield _mirror_momenta(np.concatenate(reduced), (1,))


@pytest.mark.portable(reason="the dense spectrum kernel relies on a stacked cholesky that raises "
                             "for the whole stack when one matrix is not positive definite, and "
                             "then factors each matrix alone")
def test_spectrum_kernel_stack_is_each_matrix_alone():
    """Each matrix of a stack gets the bits of a stack of one, which is
    what ``symplectic_eigenvalues`` returns, each row descending."""
    for stack in _random_positive_definite_stacks(3):
        nus, errors = _kernel(stack)
        assert errors.alive.all()
        for matrix, row in zip(stack, nus):
            alone, _ = _kernel(matrix[None])
            assert np.array_equal(bits(row), bits(alone[0]))
            values = el.symplectic_eigenvalues(el.CovarianceMatrix(matrix)).values
            assert np.array_equal(bits(values), bits(row))
        assert (np.diff(nus, axis=1) <= 0.0).all()


@pytest.mark.portable(reason="the dense spectrum kernel relies on a stacked cholesky that raises "
                             "for the whole stack when one matrix is not positive definite, and "
                             "then factors each matrix alone")
def test_spectrum_kernel_keeps_each_error_in_place(monkeypatch):
    """A matrix that is not positive definite fails the stacked Cholesky
    call; each matrix is then factored alone, the failing ones get their
    error in place and the others keep the bits of a stack of one. In the
    oracle a non-finite matrix keeps its ``CovarianceMatrix`` error and
    stands in the stack as the identity, which leaves the stack on one
    factorization call."""
    rng = np.random.default_rng(6)
    good = [random_bona_fide_cm(3, rng).matrix for _ in range(4)]
    indefinite = np.diag([2.0, 1.0, -0.5, 3.0, 1.0, 1.0])
    nan = good[0].copy()
    nan[1, 1] = np.nan
    inf = good[1].copy()
    inf[0, 4] = inf[4, 0] = np.inf
    stack = np.array([indefinite, good[0], np.zeros((6, 6)), good[1], good[2], indefinite])
    nus, errors = _kernel(stack)
    assert errors.alive.tolist() == [False, True, False, True, True, False]
    for k in (0, 2, 5):
        assert type(errors.errors[k]) is NumericalDomainError
        assert str(errors.errors[k]) == "covariance matrix is not positive definite"
    for k in (1, 3, 4):
        assert np.array_equal(bits(nus[k]), bits(_kernel(stack[k][None])[0][0]))

    calls = []
    real_cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.ndim) or real_cholesky(a))
    part = el.ModeBipartition((0,), (1, 2))
    mixed = np.array([good[0], nan, good[1], indefinite, inf, good[2], good[3]])
    got = oracle_pt_log_negativity(mixed, part)
    assert calls == [3] + [2] * len(mixed)
    for k in (0, 2, 5, 6):
        assert bits(got[k]) == bits(oracle_pt_log_negativity(el.CovarianceMatrix(mixed[k]), part))
    assert type(got[3]) is NumericalDomainError and "not positive definite" in str(got[3])
    for k in (1, 4):
        assert type(got[k]) is InvalidArgumentError and "non-finite" in str(got[k])
    calls.clear()
    got = oracle_pt_log_negativity(mixed[[0, 1, 2, 4, 5]], part)
    assert calls == [3]
    assert [type(value) for value in got] == [float, InvalidArgumentError, float,
                                              InvalidArgumentError, float]


def test_spectrum_kernel_agrees_with_the_general_eigensolver_on_random_stacks():
    """|nu - nu_ref| <= 64 eps nu_max on positive definite stacks of 1 to
    12 modes; nu_max is the spectral norm of L^T Omega L. The largest seen
    over five seeds was 17 eps nu_max."""
    for stack in _random_positive_definite_stacks(11):
        nus, errors = _kernel(stack)
        assert errors.alive.all()
        difference = np.abs(nus - eigvals_symplectic_spectra(stack))
        assert (difference <= 64 * EPS * nus[:, :1]).all(), stack.shape


@pytest.mark.parametrize("seed", [1, 7, 4242])
def test_spectrum_kernel_agrees_with_the_general_eigensolver_on_verify_draws(seed):
    """|nu - nu_ref| <= 64 eps nu on every matrix the oracle of a 1000-case
    `verify` takes, all of them x-p-free; the largest seen at these seeds
    was 16.5 eps nu."""
    for stack in _verify_oracle_stacks(seed):
        nus, errors = _kernel(stack)
        assert errors.alive.all()
        difference = np.abs(nus - eigvals_symplectic_spectra(stack))
        assert (difference <= 64 * EPS * nus).all(), stack.shape


def test_spectrum_kernel_is_no_less_accurate_than_the_general_eigensolver():
    """On S^T D S states of 1 to 12 modes with known nu (eight per mode
    count, S random symplectic) the kernel's mean relative error is at
    most the general eigensolver's, and its largest is within 64 eps.
    Over 30 seeds the mean ratio was at most 0.57; the largest errors
    were 9-41 eps against 16-38 eps, the kernel's larger on 2 seeds."""
    rng = np.random.default_rng(2)
    kernel_errors, reference_errors = [], []
    for modes in range(1, 13):
        stack, exact = [], []
        for _ in range(8):
            nus = np.sort(1.0 + 2.0 * rng.random(modes))[::-1]
            s = random_symplectic(modes, rng, 0.3)
            matrix = s.T @ np.diag(np.repeat(nus, 2)) @ s
            stack.append(0.5 * (matrix + matrix.T))
            exact.append(nus)
        stack, exact = np.array(stack), np.array(exact)
        nus, errors = _kernel(stack)
        assert errors.alive.all()
        kernel_errors.extend((np.abs(nus - exact) / exact).ravel())
        reference_errors.extend((np.abs(eigvals_symplectic_spectra(stack) - exact) / exact).ravel())
    assert np.mean(kernel_errors) <= np.mean(reference_errors)
    assert max(kernel_errors) <= 64 * EPS


# ---------------------------------------------------------------------------
# The kernel's two branches: a matrix with no x-p entry takes the singular
# values of the x-p block of its form, any other the Hermitian eigensolver.
# ---------------------------------------------------------------------------

KERNEL_BRANCHES = pytest.mark.portable(
    reason="compares the kernel with the same cholesky, matmul, svd and eigvalsh calls made on a "
           "stack of one in the same process")


def _forms_of_one(matrix):
    """L^T Omega L of a matrix, as the kernel forms it, on a stack of one."""
    factor = np.linalg.cholesky(matrix[None])
    return factor.swapaxes(1, 2) @ _omega_times(factor)


def _hermitian_branch(matrix):
    """The Hermitian branch on a stack of one: what the kernel gave every
    matrix before it had the SVD branch."""
    pm_nus = np.linalg.eigvalsh(1j * _forms_of_one(matrix))[0]
    n = len(matrix) // 2
    return 0.5 * (pm_nus[n:][::-1] - pm_nus[:n])


def _svd_branch(matrix):
    """The SVD branch on a stack of one: the singular values of the x-p block."""
    return np.linalg.svd(_forms_of_one(matrix)[0, 0::2, 1::2], compute_uv=False)


def _no_x_p_matrix(modes, rng):
    """A random positive definite matrix whose x-p entries are all 0.0."""
    matrix = np.zeros((2 * modes, 2 * modes))
    for quadrature in (0, 1):
        g = rng.normal(size=(modes, modes))
        matrix[quadrature::2, quadrature::2] = g @ g.T / modes + 0.5 * np.eye(modes)
    return matrix


def _solver_calls(monkeypatch):
    """The matrix count of each call of ``svd`` and ``eigvalsh`` from now on."""
    calls = {"svd": [], "eigvalsh": []}
    for name in calls:
        def spy(a, *args, _real=getattr(np.linalg, name), _calls=calls[name], **kwargs):
            _calls.append(len(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


@KERNEL_BRANCHES
def test_spectrum_kernel_gives_each_branch_of_a_mixed_stack_the_bits_of_a_stack_of_one(
        monkeypatch):
    """Matrices with and without x-p entries in one stack: each gets the
    bits of a stack of one, and each branch is one solver call over its
    matrices."""
    rng = np.random.default_rng(21)
    for modes in (1, 2, 5):
        correlated = [random_bona_fide_cm(modes, rng).matrix for _ in range(3)]
        free = [_no_x_p_matrix(modes, rng) for _ in range(3)]
        stack = np.array([free[0], correlated[0], correlated[1], free[1], free[2], correlated[2]])
        want = [_svd_branch(m) if k in (0, 3, 4) else _hermitian_branch(m)
                for k, m in enumerate(stack)]
        alone = [_kernel(m[None])[0][0] for m in stack]
        calls = _solver_calls(monkeypatch)
        nus, errors = _kernel(stack)
        monkeypatch.undo()
        assert errors.alive.all()
        assert calls == {"svd": [3], "eigvalsh": [3]}
        for row, one, reference in zip(nus, alone, want):
            assert np.array_equal(bits(row), bits(one))
            assert np.array_equal(bits(row), bits(reference))


@KERNEL_BRANCHES
def test_a_negative_zero_x_p_entry_takes_the_svd_branch(monkeypatch):
    """-0.0 is no x-p correlation: a partial transpose, whose mirrored
    momenta turn its x-p zeros into -0.0, and a matrix whose every x-p
    entry is -0.0 take the SVD branch."""
    cm = el.fully_symmetric_cm(el.ghz_type_spec(4, 2.0)).matrix
    mirrored = _mirror_momenta(cm, (2, 3))
    assert np.signbit(mirrored[0::2, 1::2]).any()
    signed = _no_x_p_matrix(3, np.random.default_rng(4))
    signed[0::2, 1::2] = signed[1::2, 0::2] = -0.0
    for matrix in (mirrored, signed):
        want = _svd_branch(matrix)
        calls = _solver_calls(monkeypatch)
        nus, errors = _kernel(matrix[None])
        monkeypatch.undo()
        assert errors.alive.all()
        assert calls == {"svd": [1], "eigvalsh": []}
        assert np.array_equal(bits(nus[0]), bits(want))


@KERNEL_BRANCHES
def test_one_tiny_x_p_entry_takes_the_hermitian_branch_unchanged(monkeypatch):
    """A single x-p entry of 1e-300 (and its mirror entry) is an x-p
    correlation: that matrix takes the Hermitian branch and keeps the
    bits the kernel gave it before the SVD branch, beside an x-p-free
    matrix that takes the SVD branch."""
    free = _no_x_p_matrix(4, np.random.default_rng(5))
    tiny = free.copy()
    tiny[2, 5] = tiny[5, 2] = 1e-300
    want = [_hermitian_branch(tiny), _svd_branch(free)]
    calls = _solver_calls(monkeypatch)
    nus, errors = _kernel(np.array([tiny, free]))
    monkeypatch.undo()
    assert errors.alive.all()
    assert calls == {"svd": [1], "eigvalsh": [1]}
    assert np.array_equal(bits(nus), bits(want))


@KERNEL_BRANCHES
def test_a_failed_factorization_gives_a_finite_row_on_either_branch():
    """A matrix with no Cholesky factor has the identity as its factor and
    Omega as its form; either branch gives it a finite row, the SVD
    branch the singular values of the identity, and its error in place."""
    free = _no_x_p_matrix(3, np.random.default_rng(6))
    indefinite = np.diag([2.0, 1.0, -0.5, 3.0, 1.0, 1.0])
    correlated_indefinite = indefinite.copy()
    correlated_indefinite[0, 1] = correlated_indefinite[1, 0] = 0.25
    stack = np.array([indefinite, free, correlated_indefinite, np.zeros((6, 6))])
    nus, errors = _kernel(stack)
    assert errors.alive.tolist() == [False, True, False, False]
    assert np.isfinite(nus).all()
    assert (nus[[0, 3]] == 1.0).all()
    assert nus[2] == pytest.approx(np.ones(3), abs=4 * EPS)
    assert np.array_equal(bits(nus[1]), bits(_svd_branch(free)))


def _exact_spectrum(matrix):
    """The symplectic spectrum of a float matrix with no x-p entry, to 60
    digits, descending: the nu^2 are the eigenvalues of Lx^T Sp Lx, with
    Sx = Lx Lx^T, for the x block Sx and the p block Sp of the matrix as
    it is stored."""
    with mp.workdps(60):
        lx = mp.cholesky(mp.matrix(matrix[0::2, 0::2].tolist()))
        squares = mp.eigsy(lx.T * mp.matrix(matrix[1::2, 1::2].tolist()) * lx, eigvals_only=True)
        return sorted((mp.sqrt(square) for square in squares), reverse=True)


def _relative_error(nus, exact) -> float:
    """The largest |nu - nu*| / nu* of a spectrum against its exact values."""
    return max(float(abs((mp.mpf(float(nu)) - ref) / ref)) for nu, ref in zip(nus, exact))


def _x_p_free_matrices():
    """The partial transposes of the pure family (q = 0) and of its q = 4
    reductions at the k = 1 and k = M/2 splits, M in {4, 8, 20} and b in
    {1.5, 10, 100, 1e3}; and the two-mode equivalent of case 886 of
    `verify --cases 1000 --seed 7`, the worst case of its worst_rel_diff,
    and its partial transpose."""
    for modes in (4, 8, 20):
        for b in (1.5, 10.0, 100.0, 1e3):
            for q in (0, 4):
                cm = el.fully_symmetric_cm(traced_symmetric_spec(modes, q, b)).matrix
                for k in (1, modes // 2):
                    yield f"M={modes} b={b} q={q} k={k}", _mirror_momenta(cm, range(k, modes))
    spec = SpecSampler(7).bisymmetric(count=1000)[886]
    stack = el.bisymmetric_cm(BisymmetricBatch.of([spec]))
    cm_eq = el.localize([stack], [spec.m], [spec.n])[0].cm_eq[0]
    yield "seed 7 case 886 cm_eq", cm_eq
    yield "seed 7 case 886 cm_eq mirrored", _mirror_momenta(cm_eq, (1,))


@pytest.mark.portable(reason="bounds errors against a 60-digit reference, and compares the kernel's "
                             "bits only with the same calls made in the test")
def test_svd_branch_is_as_accurate_as_the_hermitian_branch_against_mpmath():
    """Against the 60-digit spectrum of the same float matrix the SVD
    branch's largest relative error is at most the Hermitian branch's
    plus 4 eps nu_max / nu_min, and at most 4 eps cond(sigma).

    The two branches share the Cholesky factor and its rounding, whose
    error grows with cond(sigma) (up to about 4e6 eps at b = 1e3); they
    differ only in the solver, whose backward error is a few eps nu_max,
    so an error relative to nu_min can differ by a few eps nu_max /
    nu_min. Measured worst: 0.04 of the first allowance (M = 4, b = 10,
    q = 4, k = 2) and 0.14 of the second (case 886, mirrored)."""
    for name, matrix in _x_p_free_matrices():
        assert not matrix[0::2, 1::2].any(), name
        nus, errors = _kernel(matrix[None])
        assert errors.alive.all()
        assert np.array_equal(bits(nus[0]), bits(_svd_branch(matrix))), name
        exact = _exact_spectrum(matrix)
        svd_error = _relative_error(nus[0], exact)
        hermitian_error = _relative_error(_hermitian_branch(matrix), exact)
        spread = float(exact[0] / exact[-1])
        assert svd_error <= hermitian_error + 4 * EPS * spread, (name, svd_error, hermitian_error)
        assert svd_error <= 4 * EPS * np.linalg.cond(matrix), (name, svd_error)


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
    return el.CovarianceMatrix(s.T @ pf.thermal_cm([2.0] * 4).matrix @ s)


@pytest.mark.parametrize(
    "make_cm",
    [
        lambda: pf.vacuum_cm(5),
        lambda: pf.thermal_cm([2.0] * 4),
        lambda: el.fully_symmetric_cm(el.ghz_type_spec(6, 1.7)),
        lambda: el.fully_symmetric_cm(el.ghz_type_spec(6, 30.0)),
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
    assert el.purity(pf.vacuum_cm(3)) == pytest.approx(1.0)
    assert el.purity(pf.thermal_cm([2.0, 4.0])) == pytest.approx(1.0 / 8.0)


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
    assert el.delta_invariant(pf.vacuum_cm(5)) == pytest.approx(5.0)


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
    moved = pf.apply_symplectic(s, cm)
    assert el.delta_invariant(moved) == pytest.approx(el.delta_invariant(cm), rel=1e-8)
    assert np.linalg.det(moved.matrix) == pytest.approx(np.linalg.det(cm.matrix), rel=1e-8)


def test_apply_symplectic_identity_and_rotation():
    cm = pf.vacuum_cm(1)
    assert cm_allclose(pf.apply_symplectic(np.eye(2), cm), cm)
    theta = 0.7
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    assert cm_allclose(pf.apply_symplectic(rot, cm), cm)


def test_apply_symplectic_preserves_spectrum():
    rng = np.random.default_rng(77)
    cm = random_bona_fide_cm(4, rng)
    s = random_symplectic(4, rng)
    before = el.symplectic_eigenvalues(cm).values
    after = el.symplectic_eigenvalues(pf.apply_symplectic(s, cm)).values
    assert after == pytest.approx(before, rel=1e-9, abs=1e-9)


def test_apply_symplectic_rejects_non_symplectic():
    with pytest.raises(InvalidArgumentError):
        pf.apply_symplectic(2.0 * np.eye(2), pf.vacuum_cm(1))


def test_apply_symplectic_rejects_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        pf.apply_symplectic(np.eye(4), pf.vacuum_cm(1))


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(5)
    cm = random_bona_fide_cm(3, rng)
    assert cm_allclose(pf.partial_trace(cm, [0, 1, 2]), cm)


def test_partial_trace_two_mode_squeezed():
    r = 0.8
    reduced = pf.partial_trace(pf.two_mode_squeezed(r), [0])
    assert np.allclose(reduced.matrix, np.cosh(2 * r) * np.eye(2))


def test_partial_trace_preserves_symmetric_pattern():
    spec = el.ghz_type_spec(8, 1.4)
    cm = el.fully_symmetric_cm(spec)
    reduced = pf.partial_trace(cm, range(4))
    expected = el.fully_symmetric_cm(
        el.FullySymmetricSpec(4, spec.b, spec.z1, spec.z2)
    )
    assert np.array_equal(reduced.matrix, expected.matrix)
    assert el.is_bona_fide(reduced)


def test_partial_trace_validates_indices():
    cm = pf.vacuum_cm(2)
    with pytest.raises(InvalidArgumentError):
        pf.partial_trace(cm, [])
    with pytest.raises(InvalidArgumentError):
        pf.partial_trace(cm, [0, 2])
    with pytest.raises(InvalidArgumentError):
        pf.partial_trace(cm, [0, 0])


def test_two_mode_closed_form_matches_dense():
    rng = np.random.default_rng(123)
    for _ in range(50):
        cm = random_bona_fide_cm(2, rng)
        closed = pf.two_mode_symplectic_eigenvalues(cm)
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
