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

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionError,
    InvalidArgumentError,
    NumericalDomainError,
)

# Absolute tolerances on unit-scaled matrices; checks rescale them by the
# largest matrix entry so that large-squeezing inputs (entries ~ e^{2r})
# are judged relatively.
TOL_SYM = 1e-9
TOL_SYMPL = 1e-9
TOL_PHYS = 1e-9
TOL_RECON = 1e-8
RADICAND_CLIP = 1e-10


def _scale(matrix) -> float:
    return max(1.0, float(np.max(np.abs(matrix))))


def _require_tolerance(tol, what: str) -> None:
    """Reject a tolerance override that is not a finite number >= 0."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidArgumentError(f"{what} must be a finite number >= 0, got {tol}")


def clipped_sqrt(value: float, scale: float) -> float:
    """sqrt with a small negative-radicand clip.

    Boundary states (pure, symmetric) sit exactly on branch points, so
    radicands down to ``-RADICAND_CLIP * max(1, scale)`` are treated as
    zero; anything more negative raises.
    """
    if value < -RADICAND_CLIP * max(1.0, abs(scale)):
        raise NumericalDomainError(f"negative radicand {value:.6e} beyond clip tolerance")
    return math.sqrt(max(value, 0.0))


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

    def raise_first(self) -> None:
        for error in self.errors:
            if error is not None:
                raise error


class _Rejections(_PointErrors):
    """Which points of a batch fail, without their errors, for a caller
    that needs only the decision: ``alive`` is what ``_PointErrors``
    would hold, ``errors`` stays all None and no error is built."""

    def record(self, failed: np.ndarray, make_error) -> None:
        if self.size:
            self.alive &= ~failed.reshape(-1, self.size).any(axis=0)

    def fail(self, i: int, error: Exception) -> None:
        self.alive[i] = False


def _elementwise(fn, what: str, errors: _PointErrors, values: np.ndarray, *extra) -> np.ndarray:
    """``fn`` on each value as a Python float, for the C library's pow, exp
    and log: numpy's ``x**2`` and ``np.exp`` round a few results differently.
    An overflow is recorded as a NumericalDomainError and reads inf."""
    xs = values.ravel().tolist()
    try:
        return np.array(list(map(fn, xs, *extra)), dtype=float).reshape(values.shape)
    except OverflowError:
        pass
    out = []
    for j, args in enumerate(zip(xs, *extra)):
        try:
            out.append(fn(*args))
        except OverflowError:
            out.append(math.inf)
            errors.fail(
                j % errors.size,
                NumericalDomainError(f"overflow: the {what} of {xs[j]:.6e} is out of float range"),
            )
    return np.array(out, dtype=float).reshape(values.shape)


def _squares(values: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """``x ** 2`` as Python computes it for floats."""
    return _elementwise(math.pow, "square", errors, values, itertools.repeat(2.0))


def _clipped_sqrts(value: np.ndarray, scale: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """Elementwise :func:`clipped_sqrt` for scales >= 0; radicands beyond
    the clip are recorded in ``errors``. ``scale`` broadcasts against
    ``value``."""
    # fmax(s, 1) is max(1.0, s): a nan scale counts as 1
    beyond = value < -RADICAND_CLIP * np.fmax(scale, 1.0)
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
    errors.raise_first()
    return tuple(float(v[0]) for v in out)


def _symmetrized(stack: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """The ``CovarianceMatrix`` check of each matrix of a (K, 2N, 2N) stack.

    Returns the symmetrized stack, read-only. A matrix whose symmetrization
    has a non-finite entry, or else whose asymmetry exceeds ``TOL_SYM``
    scaled by its largest entry, fails in ``errors`` with the error the
    constructor raises on it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        transpose = stack.swapaxes(1, 2)
        symmetric = 0.5 * (stack + transpose)
        skew = abs(stack - transpose).max(axis=(1, 2))
    errors.record(
        ~np.isfinite(symmetric).all(axis=(1, 2)),
        lambda k: InvalidArgumentError("covariance matrix has non-finite entries"),
    )
    # the scale max(1, max |s_ij|) is >= 1, so only a skew above TOL_SYM
    # can fail; it is read without a second abs pass, and fmax(x, 1) is
    # max(1.0, x) for the finite matrices that the test can fail
    asymmetric = skew > TOL_SYM
    if np.count_nonzero(asymmetric):
        largest = np.fmax(stack.max(axis=(1, 2)), -stack.min(axis=(1, 2)))
        asymmetric &= skew > TOL_SYM * np.fmax(largest, 1.0)
    errors.record(
        asymmetric,
        lambda k: InvalidArgumentError(
            f"matrix is asymmetric beyond tolerance: max |s_ij - s_ji| = {skew[k]:.3e}"
        ),
    )
    symmetric.flags.writeable = False
    return symmetric


def _covariance_matrices(stack: np.ndarray) -> list:
    """The ``CovarianceMatrix`` of each matrix of a (K, 2N, 2N) stack,
    checked as one stack; the first matrix that fails raises its error."""
    errors = _PointErrors(len(stack))
    checked = _symmetrized(stack, errors)
    errors.raise_first()
    return [CovarianceMatrix._checked(matrix) for matrix in checked]


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
    the input's asymmetry exceeds ``TOL_SYM`` (scaled by the largest
    entry); the stored array is read-only. Positivity and the uncertainty
    relation are *not* enforced here: partial transposes of entangled
    states are legitimately non-physical covariance matrices.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0 or m.shape[0] % 2:
            raise InvalidArgumentError(f"covariance matrix must be 2Nx2N, got shape {m.shape}")
        errors = _PointErrors(1)
        symmetric = _symmetrized(m[None], errors)[0]
        errors.raise_first()
        object.__setattr__(self, "matrix", symmetric)

    @classmethod
    def _checked(cls, matrix: np.ndarray) -> "CovarianceMatrix":
        """A covariance matrix holding ``matrix``, a read-only matrix that
        passed ``_symmetrized``, without checking it again."""
        cm = object.__new__(cls)
        object.__setattr__(cm, "matrix", matrix)
        return cm

    @property
    def modes(self) -> int:
        return self.matrix.shape[0] // 2


def vacuum_cm(modes: int) -> CovarianceMatrix:
    """The N-mode vacuum: identity covariance matrix."""
    if modes < 1:
        raise InvalidArgumentError(f"mode count must be a positive integer, got {modes}")
    return CovarianceMatrix(np.eye(2 * modes))


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
        is the mean of its cluster. Default tolerance 1e-7 * max(1, nu_max)
        since exact theoretical degeneracies are perturbed by roundoff; an
        override must be a finite number >= 0.
        """
        _require_tolerance(tol, "cluster tolerance")
        if tol is None:
            tol = 1e-7 * max(1.0, self.max)
        clusters: list[list[float]] = []
        for v in self.values:
            if clusters and abs(clusters[-1][0] - v) <= tol:
                clusters[-1].append(float(v))
            else:
                clusters.append([float(v)])
        return [(sum(c) / len(c), len(c)) for c in clusters]


def _require_positive_definite(matrix: np.ndarray):
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError("covariance matrix is not positive definite") from exc


def symplectic_eigenvalues(cm: CovarianceMatrix) -> SymplecticSpectrum:
    """Symplectic spectrum of a positive definite covariance matrix.

    Computed from the eigenvalues of the real matrix Omega @ sigma, which
    come in pure imaginary pairs +/- i nu; each pair is averaged into one
    reported eigenvalue.
    """
    m = cm.matrix
    _require_positive_definite(m)
    omega = symplectic_form(cm.modes)
    eigenvalues = np.linalg.eigvals(omega @ m)
    magnitudes = np.sort(np.abs(eigenvalues.imag))[::-1]
    paired = 0.5 * (magnitudes[0::2] + magnitudes[1::2])
    return SymplecticSpectrum(paired)


def is_bona_fide(cm: CovarianceMatrix, tol: float = TOL_PHYS) -> bool:
    """Whether the matrix satisfies the uncertainty relation.

    True iff sigma is positive definite and its smallest symplectic
    eigenvalue is >= 1 - tol, with tol scaled by the largest entry: the
    spectrum of a large-squeezing matrix is only determined to absolute
    precision eps * |sigma|_max.
    """
    try:
        spectrum = symplectic_eigenvalues(cm)
    except NumericalDomainError:
        return False
    return spectrum.min >= 1.0 - tol * _scale(cm.matrix)


def is_symplectic(s: np.ndarray, tol: float = TOL_SYMPL) -> bool:
    """Whether S^T Omega S = Omega within tolerance (scaled by |S|_max^2)."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 or s.shape[0] == 0:
        return False
    omega = symplectic_form(s.shape[0] // 2)
    defect = float(np.max(np.abs(s.T @ omega @ s - omega)))
    return defect <= tol * max(1.0, float(np.max(np.abs(s))) ** 2)


def williamson(cm: CovarianceMatrix, tol_recon: float = TOL_RECON):
    """Williamson normal form of a positive definite covariance matrix.

    Returns ``(S, spectrum)`` with ``sigma = S^T D S`` where
    ``D = diag(nu1, nu1, ..., nuN, nuN)`` holds the symplectic eigenvalues
    in the descending order of the returned spectrum.

    The construction forms ``K = sigma^{1/2} Omega sigma^{1/2}``, which is
    real antisymmetric with eigenvalues +/- i nu_i, and takes the Hermitian
    eigendecomposition of ``iK``. Each eigenvector ``u = a + ib`` with
    eigenvalue +nu is orthogonal to its conjugate (a -nu eigenvector), so
    the columns ``(sqrt2 b, sqrt2 a)`` are orthonormal and bring K to its
    canonical block form; then ``S = D^{-1/2} Q^T sigma^{1/2}``. The
    degenerate-subspace gauge (any orthogonal-symplectic mixing of equal
    eigenvalues) is the orthonormal basis, phases included, that
    ``np.linalg.eigh`` returns for the +nu eigenspace; it stays valid there
    because that whole eigenspace is orthogonal to its conjugate.

    Raises
    ------
    NumericalDomainError
        If sigma is not positive definite.
    DecompositionError
        If the reconstruction residual exceeds ``tol_recon`` relative to
        the largest input entry.
    """
    m = cm.matrix
    n = cm.modes
    evals, evecs = np.linalg.eigh(m)
    if evals[0] <= 0.0:
        raise NumericalDomainError("covariance matrix is not positive definite")
    root = (evecs * np.sqrt(evals)) @ evecs.T

    omega = symplectic_form(n)
    k = root @ omega @ root
    k = 0.5 * (k - k.T)

    w, u = np.linalg.eigh(1j * k)
    nus = w[n:][::-1]
    u = u[:, n:][:, ::-1]
    q = np.empty((2 * n, 2 * n))
    q[:, 0::2] = math.sqrt(2.0) * u.imag
    q[:, 1::2] = math.sqrt(2.0) * u.real

    d_inv_sqrt = 1.0 / np.sqrt(np.repeat(nus, 2))
    s = d_inv_sqrt[:, None] * (q.T @ root)

    reconstructed = s.T @ (np.repeat(nus, 2)[:, None] * s)
    residual = float(np.max(np.abs(reconstructed - m))) / _scale(m)
    if residual > tol_recon or not is_symplectic(s, tol=max(TOL_SYMPL, tol_recon)):
        raise DecompositionError(
            f"normal-form reconstruction residual {residual:.3e} exceeds {tol_recon:.1e}"
        )
    return s, SymplecticSpectrum(nus)


def purity(cm: CovarianceMatrix) -> float:
    """Purity 1 / sqrt(det sigma); in (0, 1] for physical states."""
    errors = _PointErrors(1)
    value = _purities(cm.matrix[None], errors)
    errors.raise_first()
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
    return dets.reshape(count, -1).sum(axis=1)


def apply_symplectic(s: np.ndarray, cm: CovarianceMatrix) -> CovarianceMatrix:
    """Congruence action sigma -> S^T sigma S."""
    s = np.asarray(s, dtype=float)
    if s.shape != cm.matrix.shape:
        raise InvalidArgumentError(
            f"shape mismatch: transform {s.shape} vs covariance {cm.matrix.shape}"
        )
    if not is_symplectic(s):
        raise InvalidArgumentError("transform is not symplectic within tolerance")
    return CovarianceMatrix(s.T @ cm.matrix @ s)


def partial_trace(cm: CovarianceMatrix, keep) -> CovarianceMatrix:
    """Reduced state on the given modes: the principal submatrix.

    ``keep`` is an iterable of distinct zero-based mode indices; the
    result orders them ascending.
    """
    keep = sorted(keep)
    if not keep:
        raise InvalidArgumentError("keep set must be nonempty")
    if len(set(keep)) != len(keep):
        raise InvalidArgumentError(f"duplicate mode indices in {keep}")
    if keep[0] < 0 or keep[-1] >= cm.modes:
        raise InvalidArgumentError(f"mode indices {keep} out of range for {cm.modes} modes")
    idx = np.array([[2 * k, 2 * k + 1] for k in keep]).ravel()
    return CovarianceMatrix(cm.matrix[np.ix_(idx, idx)])


@dataclass(frozen=True)
class TwoModeInvariants:
    """det sigma, the block-determinant sum, and the local determinants
    of a two-mode covariance matrix."""

    det_total: float
    delta: float
    det_block_a: float
    det_block_b: float

    def symplectic_eigenvalues(self) -> tuple[float, float]:
        """Closed-form (nu_minus, nu_plus): 2 nu^2 = Delta -/+ sqrt(Delta^2 - 4 det)."""
        return _scalar_batch(_minus_plus_pair, self.delta, self.det_total)


def _minus_plus_pair(delta: np.ndarray, det: np.ndarray, errors: _PointErrors):
    """Both branches of 2 nu^2 = delta -/+ sqrt(delta^2 - 4 det), per point.

    The minus branch is evaluated in conjugate form, 2 det / (delta +
    root), which stays accurate when the branches are many orders of
    magnitude apart (large squeezing).
    """
    delta_sq = _squares(delta, errors)
    root = _clipped_sqrts(delta_sq - 4.0 * det, delta_sq, errors)
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


def two_mode_invariants(cm: CovarianceMatrix) -> TwoModeInvariants:
    if cm.modes != 2:
        raise InvalidArgumentError(f"expected a two-mode matrix, got {cm.modes} modes")
    m = cm.matrix
    return TwoModeInvariants(
        det_total=float(np.linalg.det(m)),
        delta=delta_invariant(cm),
        det_block_a=float(np.linalg.det(m[0:2, 0:2])),
        det_block_b=float(np.linalg.det(m[2:4, 2:4])),
    )


def two_mode_symplectic_eigenvalues(cm: CovarianceMatrix) -> tuple[float, float]:
    """(nu_minus, nu_plus) of a two-mode state from its invariants."""
    return two_mode_invariants(cm).symplectic_eigenvalues()


# ---------------------------------------------------------------------------
# Serialization. JSON: {"modes": N, "entries": [...]} with 4N^2 row-major
# numbers. CSV: 2N lines of 2N comma-separated decimals. Every number is
# Python's shortest round-trip repr, so a written matrix reads back bit for
# bit. A sequence of floats is formatted by one ``%`` over all of it
# (``_float_texts``), which is faster than a call per value. Matrix
# entries alone go through ``float_reprs``, which formats each distinct
# float once: at M = 48, split 24|24, a local symplectic holds 83
# distinct values in 9216 entries and the reduced matrix ``cm_final``,
# exactly zero off its skeleton, 16. Elsewhere (a sweep column, a
# spectrum) nearly every value is distinct, and de-duplicating costs more
# than it saves. The texts equal ``json.dumps`` and the per-entry ``repr``
# CSV byte for byte, also for non-finite entries (JSON NaN, Infinity; CSV
# nan, inf, as repr spells them). The text writers take the strings, so
# one formatting can feed several.
# Readers parse each distinct cell text once, through a ``_CellParser``
# made for the one read: the paper's matrices repeat five 2x2 pattern
# blocks, so a 48-mode file holds a handful of distinct texts in 9216
# cells. Each cell is still ``float`` of its exact text, so a read matrix
# is the one a per-cell parse gives, bit for bit. Readers reject matrices
# that are asymmetric beyond TOL_SYM.
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
    -0.0 compare equal but print differently.
    """
    flat = np.asarray(values, dtype=float).ravel()
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    texts = _float_texts(bits.view(np.float64).tolist(), fmt)
    return np.array(texts, dtype=object)[inverse].reshape(np.shape(values))


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


def _json_matrix_text(reprs: np.ndarray) -> str:
    """``json.dumps(matrix_to_json_dict(matrix))``, one line, from the
    matrix's ``float_reprs``."""
    entries = ", ".join(_json_entry_texts(reprs.ravel().tolist()))
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


def _indented_json(obj, newline: str = "\n", sort_keys: bool = True) -> str:
    """``json.dumps(obj, indent=2, sort_keys=sort_keys)`` at the depth where
    each line starts with ``newline``, byte for byte.

    The stdlib's indented encoder is pure Python; the matrices of a
    localization payload are lists of thousands of floats, so each list
    of floats is joined from one ``%`` pass instead, and an ndarray is
    taken to hold the ``float_reprs`` of a matrix's entries. Values other
    than non-empty lists and str-keyed dicts go to the stdlib.
    """
    inner = newline + "  "
    if isinstance(obj, dict) and obj and set(map(type, obj)) == {str}:
        items = sorted(obj.items()) if sort_keys else obj.items()
        members = [f"{json.dumps(key)}: {_indented_json(value, inner, sort_keys)}"
                   for key, value in items]
    elif isinstance(obj, np.ndarray):
        members = _json_entry_texts(obj.ravel().tolist())
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {float}:
            members = _json_entry_texts(_float_texts(obj))
        else:
            members = [_indented_json(value, inner, sort_keys) for value in obj]
    else:
        return json.dumps(obj, indent=2, sort_keys=sort_keys).replace("\n", newline)
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


def cm_to_json_dict(cm: CovarianceMatrix) -> dict:
    return matrix_to_json_dict(cm.matrix)


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
