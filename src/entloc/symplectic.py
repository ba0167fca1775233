"""Symplectic linear algebra on Gaussian covariance matrices.

Conventions used throughout the package:

* quadratures are interleaved as (x1, p1, ..., xN, pN);
* the covariance matrix is dimensionless and the vacuum state is the
  identity, so physical states have every symplectic eigenvalue >= 1;
* a symplectic matrix S acts on a covariance matrix by congruence,
  sigma -> S^T sigma S, and the Williamson factorization is written in
  the same direction, sigma = S^T diag(nu1, nu1, ..., nuN, nuN) S;
* mode indices are zero-based in the library API (the command line
  front end is one-based).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionError,
    InvalidArgumentError,
    NumericalDomainError,
)


class TOL:
    """Every tolerance of the package, in one table: the error model.

    Each entry bounds the quantity its comment names, relative to the scale
    s given there: a check passes while the quantity is within entry * s.
    """

    ASYMMETRY = 1e-9  # |sigma_ij - sigma_ji| of an input matrix; s = max(1, |sigma|max)
    SYMPLECTIC = 1e-9  # |S^T Omega S - Omega|max of ``is_symplectic``; s = max(1, |S|max)^2
    # how far the smallest symplectic eigenvalue lies below 1 (``_below_vacuum``); s = 1
    # for a spec's closed form, max(1, |sigma|max) for a dense spectrum or a matrix's part
    UNCERTAINTY = 1e-9
    # ``williamson``'s residual |S^T D S - sigma|max, s = max(1, |sigma|max),
    # and the symplecticity defect of its S, s = max(1, |S|max)^2
    RECONSTRUCTION = 1e-8
    RADICAND = 1e-10  # a negative radicand read as 0 (``_clipped_sqrts``); s = max(1, its scale)
    # the PPT band: a PT eigenvalue this close to 1 reads 1, so that a state
    # is separable exactly when E_N = N = EoF = 0; s = 1
    PPT = 1e-10
    # |det A - det B| of a two-mode state that counts as symmetric and gets
    # the closed-form EoF; s = max(1, |det A|, |det B|)
    SYMMETRIC = 1e-8
    PATTERN = 1e-8  # ``localize``'s default pattern deviation and residual; s = max(1, |sigma|max)
    CLUSTER = 1e-7  # ``SymplecticSpectrum.clustered``'s default gap; s = max(1, nu_max)
    # the suite's route agreement, passed within either: s = the larger magnitude, and 1
    ROUTE_REL = 1e-7
    ROUTE_ABS = 1e-9


def _scale(matrix) -> float:
    return max(1.0, float(np.max(np.abs(matrix))))


def _require_tolerance(tol, what: str) -> None:
    """Reject a tolerance override that is not a finite number >= 0."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidArgumentError(f"{what} must be a finite number >= 0, got {tol}")


# ---------------------------------------------------------------------------
# Batch evaluation: one numpy pass per stage over many points, giving every
# point the bits and the error its scalar evaluation would give.
# ---------------------------------------------------------------------------


class _PointErrors:
    """The first error of each point of a batch.

    A batch stage computes every point, then ``record`` keeps, for each
    point not yet failed, the error the scalar code raises at that stage.
    Values of failed points are meaningless from then on. A stage may
    stack K quantities as a (K, N) array; the rows are taken in the order
    the scalar code computes them.
    """

    def __init__(self, size: int):
        self.size = size
        self.errors = [None] * size
        self.alive = np.empty(size, dtype=bool)
        self.alive.fill(True)  # half the cost of np.ones on a batch of one

    def record(self, failed: np.ndarray, make_error) -> None:
        """``make_error(j)`` builds the error of flat index j of ``failed``."""
        if np.count_nonzero(failed):
            for j in np.flatnonzero(failed):
                self.fail(j % self.size, make_error(j))

    def merge(self, part: "_PointErrors") -> None:
        """Take the errors of a batch over K stacked copies of these points
        (point i of copy r at index r N + i), copy r before copy r + 1."""
        if self.size:
            self.record(~part.alive.reshape(-1, self.size), lambda j: part.errors[j])

    def fail(self, i: int, error: Exception) -> None:
        if self.alive[i]:
            self.errors[i] = error
            self.alive[i] = False


def _raise_first(results: list) -> list:
    """Raise the first error among ``results``, else return them."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


class _Rejections(_PointErrors):
    """Which points of a batch fail, without their errors, for a caller
    that needs only the decision: ``alive`` is what ``_PointErrors``
    would hold, ``errors`` stays all None and no error is built."""

    def record(self, failed: np.ndarray, make_error) -> None:
        if self.size:
            self.alive &= ~failed.reshape(-1, self.size).any(axis=0)

    def fail(self, i: int, error: Exception) -> None:
        self.alive[i] = False


class _Mapped(_PointErrors):
    """``size`` points of another batch, for a stage that runs on a part
    of it or on several values per point: point i here is point
    ``index(i)`` of ``errors``, and what fails here fails there. It only
    records; read the outcome from ``errors``."""

    def __init__(self, errors: _PointErrors, size: int, index):
        self.size, self.base, self.index = size, errors, index

    def fail(self, i: int, error: Exception) -> None:
        self.base.fail(self.index(i), error)


def _require_real(values) -> None:
    """Reject complex input, whose cast to float would drop the imaginary part."""
    if np.iscomplexobj(values):
        raise InvalidArgumentError("covariance matrix must be real, got complex entries")


def _elementwise(fn, what: str, errors: _PointErrors, values: np.ndarray) -> np.ndarray:
    """``fn`` on each value as a Python float, for the C library's exp and
    log: ``np.exp`` and ``np.log`` round some results differently. An
    overflow is recorded as a NumericalDomainError and reads inf."""
    xs = values.ravel().tolist()
    try:
        return np.array(list(map(fn, xs)), dtype=float).reshape(values.shape)
    except OverflowError:
        pass
    out = []
    for j, x in enumerate(xs):
        try:
            out.append(fn(x))
        except OverflowError:
            out.append(math.inf)
            errors.fail(
                j % errors.size,
                NumericalDomainError(f"overflow: the {what} of {x:.6e} is out of float range"),
            )
    return np.array(out, dtype=float).reshape(values.shape)


def _squares(values: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """``x * x``, which IEEE arithmetic rounds correctly on every platform.
    A finite value whose square is out of float range is recorded as a
    NumericalDomainError and reads inf; inf and nan square unrecorded."""
    squares = values * values
    errors.record(
        np.isinf(squares) & np.isfinite(values),
        lambda j: NumericalDomainError(
            f"overflow: the square of {values.flat[j]:.6e} is out of float range"
        ),
    )
    return squares


def _dets(blocks: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """a d - b c of each 2x2 block of a (..., 2, 2) stack, which IEEE
    arithmetic rounds the same on every platform; a finite block whose
    determinant is out of float range is recorded as a NumericalDomainError."""
    dets = blocks[..., 0, 0] * blocks[..., 1, 1] - blocks[..., 0, 1] * blocks[..., 1, 0]
    if not np.isfinite(dets).all():
        errors.record(
            ~np.isfinite(dets) & np.isfinite(blocks).all(axis=(-2, -1)),
            lambda j: NumericalDomainError("overflow: a 2x2 determinant is out of float range"),
        )
    return dets


def _adjugate_traces(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(adj(a) c adj(b) c^T) of stacks of 2x2 blocks, elementwise: for a
    two-mode state's blocks, nu_a nu_b (c_+^2 + c_-^2) with c_+, c_- its
    standard-form cross block, as adj(s^T a s) = s^-1 adj(a) s^-T if det s = 1."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    c00, c01, c10, c11 = c[..., 0, 0], c[..., 0, 1], c[..., 1, 0], c[..., 1, 1]
    # tr(m k) with m = adj(a) c and k = adj(b) c^T
    return ((a11 * c00 - a01 * c10) * (b11 * c00 - b01 * c01)
            + (a11 * c01 - a01 * c11) * (b00 * c01 - b10 * c00)
            + (a00 * c10 - a10 * c00) * (b11 * c10 - b01 * c11)
            + (a00 * c11 - a10 * c01) * (b00 * c11 - b10 * c10))


def _clipped_sqrts(value: np.ndarray, scale: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """Elementwise sqrt with a small negative-radicand clip, for scales >= 0.

    Boundary states (pure, symmetric) sit exactly on branch points, so
    radicands down to ``-TOL.RADICAND * max(1, scale)`` are treated as
    zero; a more negative one is recorded in ``errors``. ``scale``
    broadcasts against ``value``."""
    # fmax(s, 1) is max(1.0, s): a nan scale counts as 1
    beyond = value < -TOL.RADICAND * np.fmax(scale, 1.0)
    errors.record(
        beyond,
        lambda j: NumericalDomainError(
            f"negative radicand {value.flat[j]:.6e} beyond clip tolerance"
        ),
    )
    # where(0 > v, 0, v) is max(v, 0.0): it keeps -0.0 and nan as they are
    return np.sqrt(np.where(0.0 > value, 0.0, value))


def _scalar_batch(fn, *args):
    """Run a batch function on one point: each argument becomes a batch of
    one, the results come back as floats, and the point's error is raised."""
    errors = _PointErrors(1)
    with np.errstate(all="ignore"):
        out = fn(*(np.asarray(a, dtype=float)[None] for a in args), errors)
    _raise_first(errors.errors)
    return tuple(float(v[0]) for v in out)


def _symmetrized(stack: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """The ``CovarianceMatrix`` check of each matrix of a (K, 2N, 2N) stack.

    Returns the symmetrized stack, read-only. A matrix whose symmetrization
    has a non-finite entry, or else whose asymmetry exceeds
    ``TOL.ASYMMETRY`` scaled by its largest entry, fails in ``errors``
    with the error the constructor raises on it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        transpose = stack.swapaxes(1, 2)
        symmetric = stack + transpose
        symmetric *= 0.5
        # s - s^T is antisymmetric, so its largest entry is its largest magnitude
        skew = (stack - transpose).max(axis=(1, 2))
    errors.record(
        ~np.isfinite(symmetric).all(axis=(1, 2)),
        lambda k: InvalidArgumentError("covariance matrix has non-finite entries"),
    )
    # the scale max(1, max |s_ij|) is >= 1, so only a skew above the
    # tolerance can fail; it is read without a second abs pass, and fmax(x,
    # 1) is max(1.0, x) for the finite matrices that the test can fail
    asymmetric = skew > TOL.ASYMMETRY
    if np.count_nonzero(asymmetric):
        largest = np.fmax(stack.max(axis=(1, 2)), -stack.min(axis=(1, 2)))
        asymmetric &= skew > TOL.ASYMMETRY * np.fmax(largest, 1.0)
    errors.record(
        asymmetric,
        lambda k: InvalidArgumentError(
            f"matrix is asymmetric beyond tolerance: max |s_ij - s_ji| = {skew[k]:.3e}"
        ),
    )
    symmetric.flags.writeable = False
    return symmetric


def _real_stack(stack) -> np.ndarray:
    """A caller's (K, 2N, 2N) array, N >= 1, as floats: the one check of a
    raw stack before ``_symmetrized``. Complex or non-numeric input is invalid."""
    if not (isinstance(stack, np.ndarray) and stack.ndim == 3
            and stack.shape[1] == stack.shape[2] and stack.shape[1] and not stack.shape[1] % 2):
        got = f"shape {stack.shape}" if isinstance(stack, np.ndarray) else type(stack).__name__
        raise InvalidArgumentError(f"expected a (K, 2N, 2N) stack, got {got}")
    _require_real(stack)
    try:
        return stack.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"a stack must hold real numbers: {exc}") from None


def _mirror_momenta(matrix: np.ndarray, flip_modes) -> np.ndarray:
    """The partial transpose of a matrix or of each matrix of a stack, read-only:
    the momenta of ``flip_modes`` mirrored, a symmetric matrix kept symmetric."""
    signs = np.ones(matrix.shape[-1])
    for k in flip_modes:
        signs[2 * k + 1] = -1.0
    mirrored = matrix * np.outer(signs, signs)
    mirrored.flags.writeable = False
    return mirrored


def symplectic_form(modes: int) -> np.ndarray:
    """The 2N x 2N symplectic form: N diagonal copies of [[0, 1], [-1, 0]]."""
    if modes < 1:
        raise InvalidArgumentError(f"mode count must be a positive integer, got {modes}")
    omega = np.zeros((2 * modes, 2 * modes))
    for k in range(modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """A 2N x 2N real symmetric covariance matrix of an N-mode state.

    The constructor symmetrizes the matrix and rejects it if the result
    has non-finite entries (an overflow in the symmetrization counts) or
    the input's asymmetry exceeds ``TOL.ASYMMETRY`` (scaled by the largest
    entry); the stored array is read-only. Input that is no array of real
    numbers, ragged rows included, is invalid. Positivity and the
    uncertainty relation are *not* enforced here: partial transposes of
    entangled states are legitimately non-physical covariance matrices.
    """

    matrix: np.ndarray

    def __post_init__(self):
        try:
            _require_real(self.matrix)
            m = np.array(self.matrix, dtype=float)
        except InvalidArgumentError:
            raise
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(
                f"covariance matrix must be an array of real numbers: {exc}") from None
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0 or m.shape[0] % 2:
            raise InvalidArgumentError(f"covariance matrix must be 2Nx2N, got shape {m.shape}")
        errors = _PointErrors(1)
        symmetric = _symmetrized(m[None], errors)[0]
        _raise_first(errors.errors)
        object.__setattr__(self, "matrix", symmetric)

    @classmethod
    def _checked(cls, matrix: np.ndarray) -> "CovarianceMatrix":
        """A covariance matrix holding ``matrix``, a read-only matrix that
        passed ``_symmetrized`` (or that it returns as it is), unchecked."""
        cm = object.__new__(cls)
        object.__setattr__(cm, "matrix", matrix)
        return cm

    @property
    def modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True, eq=False)
class SymplecticSpectrum:
    """The N symplectic eigenvalues of a covariance matrix, sorted descending."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.array(self.values, dtype=float))[::-1].copy()
        if v.ndim != 1 or v.size == 0:
            raise InvalidArgumentError("spectrum must hold at least one value")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def min(self) -> float:
        return float(self.values[-1])

    @property
    def max(self) -> float:
        return float(self.values[0])

    def clustered(self, tol: float | None = None) -> list[tuple[float, int]]:
        """Group numerically degenerate eigenvalues.

        Returns (value, multiplicity) pairs in descending order; the value
        is the mean of its cluster. Default tolerance ``TOL.CLUSTER * max(1,
        nu_max)`` since exact theoretical degeneracies are perturbed by
        roundoff; an override must be a finite number >= 0.
        """
        _require_tolerance(tol, "cluster tolerance")
        if tol is None:
            tol = TOL.CLUSTER * max(1.0, self.max)
        clusters: list[list[float]] = []
        for v in self.values:
            if clusters and abs(clusters[-1][0] - v) <= tol:
                clusters[-1].append(float(v))
            else:
                clusters.append([float(v)])
        return [(sum(c) / len(c), len(c)) for c in clusters]


def _omega_times(matrix: np.ndarray) -> np.ndarray:
    """Omega @ matrix for the symplectic form Omega of diagonal blocks
    [[0, 1], [-1, 0]], for one matrix or a stack: row 2k is row 2k + 1 of
    ``matrix`` and row 2k + 1 is minus row 2k.

    The matmul sums each entry's one product with 1 or -1 and its
    products with 0 from +0.0: the value of that one product, but +0.0
    where it is -0.0. Adding 0.0 does the same here, so the bits are the
    matmul's.
    """
    product = np.empty_like(matrix)
    product[..., 0::2, :] = matrix[..., 1::2, :]
    np.negative(matrix[..., 0::2, :], out=product[..., 1::2, :])
    product += 0.0
    return product


def _cholesky_factors(stack: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """The factor L of sigma = L L^T, by Cholesky, of each matrix of a
    finite symmetric (K, 2N, 2N) stack.

    A stacked ``cholesky`` fails as a whole if one matrix is not positive
    definite; the stack is then factored a matrix at a time, and each
    matrix that fails gets a NumericalDomainError in ``errors`` and the
    identity as its factor.
    """
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        factors = np.empty_like(stack)
        for k, matrix in enumerate(stack):
            try:
                factors[k] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                factors[k] = np.eye(len(matrix))
                errors.fail(k, NumericalDomainError("covariance matrix is not positive definite"))
        return factors


def _antisymmetric_forms(stack: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """L^T Omega L of each matrix of a finite symmetric (K, 2N, 2N) stack,
    with L its ``_cholesky_factors``: a matrix that fails the factorization
    has Omega as its form."""
    factors = _cholesky_factors(stack, errors)
    return factors.swapaxes(1, 2) @ _omega_times(factors)


def _hermitian_spectra(forms: np.ndarray) -> np.ndarray:
    """The nu of each real antisymmetric form K of a (K, 2N, 2N) stack:
    one stacked ``eigvalsh`` call gives the eigenvalues +/- nu of the
    Hermitian i K in ascending order, and the k-th largest nu is the mean
    of the k-th largest eigenvalue and minus the k-th smallest."""
    pm_nus = np.linalg.eigvalsh(1j * forms)
    n = forms.shape[-1] // 2
    return 0.5 * (pm_nus[:, n:][:, ::-1] - pm_nus[:, :n])


def _symplectic_spectra(stack: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """The symplectic eigenvalues of each matrix of a finite symmetric
    (K, 2N, 2N) stack, as a (K, N) array, each row descending; a matrix
    that is not positive definite fails in ``errors`` and its row is
    meaningless but finite. Each matrix gets the bits of a stack of one.

    With sigma = L L^T, Omega sigma is similar to K = L^T Omega L, which
    is real antisymmetric, so i K is Hermitian with eigenvalues +/- nu.
    Each matrix takes one of two branches, chosen from its entries:

    * no x-p correlation (every sigma[2i, 2j + 1] is 0 or -0.0, as in the
      standard form of a bisymmetric state and of its partial transposes):
      L keeps those zeros exactly, so every term of a like-quadrature
      entry of K holds an exact zero and, in xxpp order, K = [[0, B],
      [-B^T, 0]] with B = K[0::2, 1::2]. The nu are the singular values of
      the real N x N matrix B, which ``svd`` returns descending;
    * any other matrix: the eigenvalues of i K (``_hermitian_spectra``).

    A matrix that fails the factorization has the identity as its factor
    and Omega as its form, which either branch takes. So does a matrix
    whose form is not finite, which only an overflow makes (see
    ``_past_form_range``): it fails with a NumericalDomainError before
    either solver runs. A finite form can still have a nu past float
    range, which fails the same way and warns no more than the form does.
    The forms come from a helper so that the factors are freed before the
    solvers run.
    """
    n = stack.shape[-1] // 2
    with np.errstate(over="ignore", invalid="ignore"):  # each overflow is recorded instead
        forms = _antisymmetric_forms(stack, errors)
        finite = np.isfinite(forms).all(axis=(1, 2))
        if not finite.all():
            errors.record(~finite, lambda k: NumericalDomainError(
                "overflow: L^T Omega L of the Cholesky factor L is out of float range"))
            forms[~finite] = _omega_times(np.eye(2 * n))
        correlated = stack[:, 0::2, 1::2].reshape(len(stack), n * n).any(axis=1)
        count = np.count_nonzero(correlated)
        if count == len(stack):
            nus = _hermitian_spectra(forms)
        elif not count:  # every standard-form stack: no copy of the forms
            nus = np.linalg.svd(forms[:, 0::2, 1::2], compute_uv=False)
        else:
            nus = np.empty((len(stack), n))
            nus[~correlated] = np.linalg.svd(forms[~correlated][:, 0::2, 1::2], compute_uv=False)
            nus[correlated] = _hermitian_spectra(forms[correlated])
    errors.record(~np.isfinite(nus).all(axis=1), lambda k: NumericalDomainError(
        "overflow: a symplectic eigenvalue is out of float range"))
    return nus


def symplectic_eigenvalues(cm: CovarianceMatrix) -> SymplecticSpectrum:
    """Symplectic spectrum of a positive definite covariance matrix.

    The dense kernel ``_symplectic_spectra`` on a stack of one, which the
    brute-force oracle runs on whole stacks: with sigma = L L^T, each nu
    is a singular value of the x-p block of L^T Omega L when sigma has no
    x-p entry, and is read from the eigenvalues +/- nu of the Hermitian
    matrix i L^T Omega L otherwise.

    Raises NumericalDomainError if sigma has no Cholesky factor, that is,
    if it is not positive definite to working precision.
    """
    errors = _PointErrors(1)
    nus = _symplectic_spectra(cm.matrix[None], errors)
    _raise_first(errors.errors)
    return SymplecticSpectrum(nus[0])


def _below_vacuum(smallest, scale):
    """Whether a smallest symplectic eigenvalue breaks the uncertainty
    relation: it lies below 1 by more than ``TOL.UNCERTAINTY * scale``.
    Every physicality decision of the package asks this, elementwise on
    arrays; nan is not below."""
    return smallest < 1.0 - TOL.UNCERTAINTY * scale


def _uncertainty_holds(nus: np.ndarray, matrix: np.ndarray) -> bool:
    """Whether the symplectic eigenvalues ``nus`` of the positive definite
    ``matrix`` satisfy the uncertainty relation, at the scale of its
    largest entry, since the spectrum of a large-squeezing matrix is only
    determined to absolute precision eps * |sigma|_max."""
    return not _below_vacuum(nus.min(), _scale(matrix))


def _past_form_range(matrix: np.ndarray) -> bool:
    """Whether L^T Omega L of a 2N x 2N matrix, sigma = L L^T, may be past
    float range: its entries are at most tr sigma <= 2N |sigma|max, so
    only from N |sigma|max = 2**1020 on. There ``_below_vacuum`` holds for
    no nu >= 0, as its tolerance 1e-9 |sigma|max exceeds 1 for any N below
    1e298, so the factorization alone decides whether sigma is a state: the
    rule the invariant route applies to its cores past 2**1020."""
    return len(matrix) // 2 * _scale(matrix) >= 2.0**1020


def is_bona_fide(cm: CovarianceMatrix) -> bool:
    """Whether the matrix satisfies the uncertainty relation: sigma is
    positive definite and ``_uncertainty_holds`` for its spectrum, which
    ``_past_form_range`` leaves to the factorization alone."""
    errors = _PointErrors(1)
    if _past_form_range(cm.matrix):
        _cholesky_factors(cm.matrix[None], errors)
        return bool(errors.alive[0])
    nus = _symplectic_spectra(cm.matrix[None], errors)[0]
    return bool(errors.alive[0]) and _uncertainty_holds(nus, cm.matrix)


def _symplectic_within(s: np.ndarray, tol: float) -> bool:
    """Whether S^T Omega S = Omega within ``tol`` scaled by max(1, |S|_max)^2."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 or s.shape[0] == 0:
        return False
    omega = symplectic_form(s.shape[0] // 2)
    defect = float(np.max(np.abs(s.T @ omega @ s - omega)))
    return defect <= tol * max(1.0, float(np.max(np.abs(s))) ** 2)


def is_symplectic(s: np.ndarray) -> bool:
    """Whether S^T Omega S = Omega within ``TOL.SYMPLECTIC`` (scaled by
    max(1, |S|_max)^2)."""
    return _symplectic_within(s, TOL.SYMPLECTIC)


def williamson(cm: CovarianceMatrix):
    """Williamson normal form of a positive definite covariance matrix.

    Returns ``(S, spectrum)`` with ``sigma = S^T D S`` where
    ``D = diag(nu1, nu1, ..., nuN, nuN)`` holds the symplectic eigenvalues
    in the descending order of the returned spectrum.

    The construction factors ``sigma = L L^T`` (Cholesky) and forms
    ``K = L^T Omega L``, which is real antisymmetric with eigenvalues
    +/- i nu_i, and takes the Hermitian eigendecomposition of ``iK``. Each
    eigenvector ``u = a + ib`` with eigenvalue +nu is orthogonal to its
    conjugate (a -nu eigenvector), so the columns ``(sqrt2 b, sqrt2 a)``
    are orthonormal and bring K to its canonical block form; then
    ``S = D^{-1/2} Q^T L^T``. The degenerate-subspace gauge (any
    orthogonal-symplectic mixing of equal eigenvalues) is the orthonormal
    basis, phases included, that ``np.linalg.eigh`` returns for the +nu
    eigenspace; it stays valid there because that whole eigenspace is
    orthogonal to its conjugate.

    Raises
    ------
    NumericalDomainError
        If sigma is not positive definite, or K is past float range.
    DecompositionError
        If the reconstruction residual exceeds ``TOL.RECONSTRUCTION``
        relative to the largest input entry, or S is not symplectic within
        it.
    """
    m = cm.matrix
    n = cm.modes
    errors = _PointErrors(1)
    factor = _cholesky_factors(m[None], errors)[0]
    _raise_first(errors.errors)
    with np.errstate(over="ignore", invalid="ignore"):  # a form past float range raises below
        form = factor.T @ _omega_times(factor)
    if not np.isfinite(form).all():
        raise NumericalDomainError(
            "overflow: L^T Omega L of the Cholesky factor L is out of float range")

    w, u = np.linalg.eigh(1j * form)
    nus = w[n:][::-1]
    u = u[:, n:][:, ::-1]
    q = np.empty((2 * n, 2 * n))
    q[:, 0::2] = math.sqrt(2.0) * u.imag
    q[:, 1::2] = math.sqrt(2.0) * u.real

    d_inv_sqrt = 1.0 / np.sqrt(np.repeat(nus, 2))
    s = d_inv_sqrt[:, None] * (q.T @ factor.T)

    reconstructed = s.T @ (np.repeat(nus, 2)[:, None] * s)
    residual = float(np.max(np.abs(reconstructed - m))) / _scale(m)
    if residual > TOL.RECONSTRUCTION or not _symplectic_within(s, TOL.RECONSTRUCTION):
        raise DecompositionError(
            f"normal-form reconstruction residual {residual:.3e} exceeds {TOL.RECONSTRUCTION:.1e}"
        )
    return s, SymplecticSpectrum(nus)


def purity(cm: CovarianceMatrix) -> float:
    """Purity 1 / sqrt(det sigma); in (0, 1] for physical states."""
    errors = _PointErrors(1)
    value = _purities(cm.matrix[None], errors)
    _raise_first(errors.errors)
    return float(value[0])


def _purities(stack: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """:func:`purity` of each matrix of a (K, 2N, 2N) stack, one stacked
    ``slogdet`` call; a matrix whose determinant is not positive fails in
    ``errors``."""
    sign, logdet = np.linalg.slogdet(stack)
    errors.record(
        sign <= 0.0, lambda k: NumericalDomainError("covariance determinant must be positive")
    )
    return np.exp(-0.5 * logdet)


def delta_invariant(cm: CovarianceMatrix) -> float:
    """Sum of the determinants of all N^2 two-by-two mode blocks.

    A global symplectic invariant, like det sigma.
    """
    return float(_delta_invariants(cm.matrix[None])[0])


def _delta_invariants(stack: np.ndarray) -> np.ndarray:
    """:func:`delta_invariant` of each matrix of a (K, 2N, 2N) stack."""
    count, n = len(stack), stack.shape[-1] // 2
    b = stack.reshape(count, n, 2, n, 2)
    dets = b[:, :, 0, :, 0] * b[:, :, 1, :, 1] - b[:, :, 0, :, 1] * b[:, :, 1, :, 0]
    return dets.reshape(count, n * n).sum(axis=1)


@dataclass(frozen=True)
class TwoModeInvariants:
    """det sigma, the block-determinant sum, and the local determinants
    of a two-mode covariance matrix."""

    det_total: float
    delta: float
    det_block_a: float
    det_block_b: float


def _minus_plus_pair(delta: np.ndarray, det: np.ndarray, errors: _PointErrors, disc: np.ndarray):
    """Both branches of 2 nu^2 = delta -/+ sqrt(disc) per point; disc is delta^2 - 4 det.

    The minus branch is evaluated in conjugate form, 2 det / (delta +
    root), which stays accurate when the branches are many orders of
    magnitude apart (large squeezing).
    """
    delta_sq = _squares(delta, errors)
    root = _clipped_sqrts(disc, delta_sq, errors)
    conjugate = (det > 0.0) & (delta + root > 0.0)
    # conjugate points take the minus branch from the quotient, so their
    # direct radicand is set to 1, which cannot fail
    nu_plus, direct = _clipped_sqrts(
        np.array([0.5 * (delta + root), np.where(conjugate, 1.0, 0.5 * (delta - root))]),
        np.abs(delta),
        errors,
    )
    nu_minus = np.where(conjugate, np.sqrt(2.0 * det / (delta + root)), direct)
    return nu_minus, nu_plus


def _local_dets(matrix: np.ndarray) -> tuple[float, float]:
    """The determinants of the two diagonal 2x2 blocks of a two-mode
    matrix, a d - b c; one out of float range raises NumericalDomainError."""
    return _scalar_batch(lambda ab, errors: _dets(ab, errors).T, [matrix[:2, :2], matrix[2:, 2:]])


def two_mode_invariants(cm: CovarianceMatrix) -> TwoModeInvariants:
    if cm.modes != 2:
        raise InvalidArgumentError(f"expected a two-mode matrix, got {cm.modes} modes")
    m = cm.matrix
    det_a, det_b = _local_dets(m)
    return TwoModeInvariants(float(np.linalg.det(m)), delta_invariant(cm), det_a, det_b)


# ---------------------------------------------------------------------------
# Serialization. JSON: {"modes": N, "entries": [...]} with 4N^2 row-major
# numbers. CSV: 2N lines of 2N comma-separated decimals. Every number is
# Python's shortest round-trip repr, so a written matrix reads back bit for
# bit. A sequence of floats is formatted by one ``%`` over all of it
# (``_float_texts``), which is faster than a call per value. Matrix
# entries alone go through ``float_reprs``, which formats each distinct
# float once: at M = 48, split 24|24, a local symplectic holds 83
# distinct values in 9216 entries and the reduced matrix ``cm_final``,
# exactly zero off its skeleton, 16. It finds them by one sort of the
# entries' bits and a ``searchsorted`` of each entry, not by ``np.unique``
# with its inverse, which sorts indices and costs two to four times as
# much. Elsewhere (a sweep column, a spectrum) nearly every value is
# distinct, and de-duplicating costs more than it saves. The texts equal
# ``json.dumps`` and the per-entry ``repr`` CSV byte for byte, also for
# non-finite entries (JSON NaN, Infinity; CSV nan, inf, as repr spells
# them); a matrix's JSON entries are joined once, and re-spelled only if
# the joined text holds an n, which no finite repr does. The text writers
# take the strings, so one formatting can feed several.
# Readers parse each distinct cell text once, through a ``_CellParser``
# made for the one read: the paper's matrices repeat five 2x2 pattern
# blocks, so a 48-mode file holds a handful of distinct texts in 9216
# cells. Each cell is still ``float`` of its exact text, so a read matrix
# is the one a per-cell parse gives, bit for bit. Readers reject matrices
# that are asymmetric beyond TOL.ASYMMETRY.
# ---------------------------------------------------------------------------


class _CellParser(dict):
    """``parser[text]`` is ``float(text)``, computed once per distinct
    text. Make one per file read, so nothing outlives the read."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def _float_texts(values, fmt: str = "%r") -> list:
    """``fmt % x`` of each float of the sequence ``values``, by default
    its repr, from one ``%`` over all of them."""
    return ((fmt + "\n") * len(values) % tuple(values)).split("\n")[:-1]


def float_reprs(values, fmt: str = "%r") -> np.ndarray:
    """``fmt % float(x)`` of every entry of the array ``values``, by
    default its repr, as an object array of the same shape.

    Each distinct bit pattern is formatted once, which pays where values
    repeat, as in a matrix. The key is the bits, not the value: 0.0 and
    -0.0 compare equal but print differently, and NaNs with different
    payloads stay apart. One sort of the bits gives the distinct keys,
    where adjacent keys differ, and ``searchsorted`` finds each entry's
    text among them. ``np.unique(..., return_inverse=True)`` gives the
    same texts in two to four times the time on a matrix: it sorts
    indices rather than keys, then scatters the inverse back.
    """
    bits = np.asarray(values, dtype=float).ravel().view(np.uint64)
    ordered = np.sort(bits)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    keys = ordered[first]
    texts = _float_texts(keys.view(np.float64).tolist(), fmt)
    return np.array(texts, dtype=object)[np.searchsorted(keys, bits)].reshape(np.shape(values))


def matrix_to_json_dict(matrix: np.ndarray) -> dict:
    """The JSON object of any 2N x 2N matrix (covariance or symplectic)."""
    matrix = np.asarray(matrix, dtype=float)
    return {"modes": matrix.shape[0] // 2, "entries": matrix.ravel().tolist()}


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_entry_texts(texts: list) -> list:
    """The JSON numbers of floats from their reprs ``texts``, spelled as
    ``json.dumps`` spells nan and +-inf."""
    if "n" in "".join(texts):  # no finite repr holds an n
        texts = [_JSON_NON_FINITE.get(text, text) for text in texts]
    return texts


def _json_entries_joined(reprs: np.ndarray, separator: str) -> str:
    """The JSON numbers of a matrix's ``float_reprs``, joined by
    ``separator``, which holds no n. The reprs are joined once and the
    join is scanned for an n, which no finite repr holds; only then are
    nan and +-inf spelled as ``json.dumps`` spells them."""
    texts = reprs.ravel().tolist()
    joined = separator.join(texts)
    if "n" in joined:
        joined = separator.join([_JSON_NON_FINITE.get(text, text) for text in texts])
    return joined


def _json_matrix_text(reprs: np.ndarray) -> str:
    """``json.dumps(matrix_to_json_dict(matrix))``, one line, from the
    matrix's ``float_reprs``."""
    entries = _json_entries_joined(reprs, ", ")
    return f'{{"modes": {len(reprs) // 2}, "entries": [{entries}]}}'


def _csv_text(reprs: np.ndarray) -> str:
    """The CSV text of a matrix from its ``float_reprs``."""
    return "\n".join(map(",".join, reprs.tolist())) + "\n"


def _json_block(members, newline: str, brackets: str) -> str:
    """A JSON array or object (``brackets`` "[]" or "{}") of member texts,
    indented as ``json.dumps(..., indent=2)`` indents it at the depth
    where each line starts with ``newline``."""
    if not members:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(members) + newline + brackets[1]


# the JSON text of each scalar leaf, spelled as ``json.dumps`` spells it
_JSON_LEAVES = {
    float: lambda x: float.__repr__(x) if math.isfinite(x) else _JSON_NON_FINITE[repr(x)],
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
    str: json.encoder.encode_basestring_ascii,
}


def _indented_json(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` at the depth where
    each line starts with ``newline``, byte for byte.

    The stdlib's indented encoder is pure Python; the matrices of a
    localization payload are lists of thousands of floats, so each list
    of floats is joined from one ``%`` pass instead, and an ndarray is
    taken to hold the ``float_reprs`` of a matrix's entries. A float,
    int, bool, None or str leaf gets the stdlib's spelling directly.
    Values other than those, non-empty lists and str-keyed dicts go to
    the stdlib.
    """
    leaf = _JSON_LEAVES.get(type(obj))
    if leaf:
        return leaf(obj)
    inner = newline + "  "
    if isinstance(obj, dict) and obj and set(map(type, obj)) == {str}:
        members = [f"{json.encoder.encode_basestring_ascii(key)}: {_indented_json(value, inner)}"
                   for key, value in sorted(obj.items())]
    elif isinstance(obj, np.ndarray):  # all entries as one member; none for an empty array
        members = [_json_entries_joined(obj, "," + inner)] if obj.size else []
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {float}:
            members = _json_entry_texts(_float_texts(obj))
        else:
            members = [_indented_json(value, inner) for value in obj]
    else:
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)
    return _json_block(members, newline, "{}" if isinstance(obj, dict) else "[]")


def _json_records(keys, columns, count: int) -> str:
    """``json.dumps(records, indent=2)`` of ``count`` records given as
    columns: ``keys`` the member names in order, ``columns`` one list per
    key of the JSON texts of its values. Each record is one ``%`` of a
    template that holds the encoded keys."""
    inner = "\n    "
    members = (json.dumps(key).replace("%", "%%") + ": %s" for key in keys)
    template = "{" + inner + ("," + inner).join(members) + "\n  }" if keys else "{}"
    rows = zip(*columns) if keys else [()] * count
    return _json_block([template % row for row in rows], "\n", "[]")


_JSON_NUMBER_TYPES = frozenset((float, int))


def cm_from_json_dict(obj) -> CovarianceMatrix:
    if not isinstance(obj, dict) or "modes" not in obj or "entries" not in obj:
        raise InvalidArgumentError('expected a JSON object {"modes": N, "entries": [...]}')
    modes = obj["modes"]
    # JSON true/false are ints to Python, but no mode count
    if type(modes) is not int or modes < 1:
        raise InvalidArgumentError(f"modes must be a positive integer, got {modes!r}")
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise InvalidArgumentError(f"entries must be an array of numbers, got {entries!r:.40}")
    # one C-level pass over the types; a bool is no JSON number
    if not _JSON_NUMBER_TYPES.issuperset(map(type, entries)):
        bad = next(x for x in entries if type(x) not in _JSON_NUMBER_TYPES)
        raise InvalidArgumentError(f"entries must be numbers, got {bad!r:.40}")
    if len(entries) != 4 * modes * modes:
        raise InvalidArgumentError(
            f"expected {4 * modes * modes} entries for {modes} modes, got {len(entries)}"
        )
    try:
        matrix = np.array(entries, dtype=float)
    except OverflowError as exc:
        raise InvalidArgumentError(f"an entry is out of float range: {exc}") from exc
    return CovarianceMatrix(matrix.reshape(2 * modes, 2 * modes))


def cm_from_csv_text(text: str) -> CovarianceMatrix:
    parse = _CellParser().__getitem__
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(list(map(parse, line.split(","))))
        except ValueError as exc:
            raise InvalidArgumentError(f"CSV line {lineno}: {exc}") from exc
    if not rows:
        raise InvalidArgumentError("CSV input holds no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise InvalidArgumentError(
            f"CSV rows must form a square matrix, got {len(rows)} rows of width {width}"
        )
    return CovarianceMatrix(np.array(rows))


def save_cm(cm: CovarianceMatrix, path) -> np.ndarray:
    """Write ``cm`` to ``path``, as CSV for a ``.csv`` path and as the
    one-line JSON object otherwise; returns the entry texts written, its
    ``float_reprs``, for a caller that writes the matrix again."""
    reprs = float_reprs(cm.matrix)
    path = str(path)
    text = _csv_text(reprs) if path.endswith(".csv") else _json_matrix_text(reprs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return reprs


def _read_text(path) -> str:
    """The text of a UTF-8 file; a file that does not decode is invalid
    input, not a crash."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"{path}: not UTF-8 text ({exc})") from exc


def load_cm(path) -> CovarianceMatrix:
    path = str(path)
    text = _read_text(path)
    if path.endswith(".csv"):
        return cm_from_csv_text(text)
    try:
        obj = json.loads(text, parse_float=_CellParser().__getitem__)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return cm_from_json_dict(obj)
