"""Concentration of block entanglement onto a single pair of modes.

A two-block (m+n)-mode state whose covariance matrix is invariant under
mode permutations inside each block is equivalent, under symplectic
operations local to the blocks, to one correlated two-mode state plus
m+n-2 uncorrelated single-mode states. This module provides both routes
to that two-mode state:

* the invariant route, which reads the equivalent state off a handful of
  local and global invariants in O(1) per input and is the default for
  parameter sweeps;
* the constructive route (:func:`localize`), which builds the local
  transformation explicitly and returns the transformed matrix, so the
  structure claim itself can be checked numerically.

The invariant route is one batch kernel. ``_equivalent_from_blocks``
and ``_report_from_equivalent`` take the pattern blocks of N inputs as
stacked arrays and run each stage once for all of them: one stacked
``np.linalg.det`` call per stage, then elementwise numpy. Squares and
exponentials go through the C library one value at a time, as Python
floats did, so every input gets the same digits as on its own. Each
check records the error of the inputs it fails (``_PointErrors``), and
the first failing input in batch order raises the error it would raise
alone. Specs enter as a ``BisymmetricBatch``, parameter columns that
carry the error of each point that is no valid spec; the sweeps build
and validate theirs as columns and read the results as columns
(``ReportColumns``), and a sequence of specs is stacked into one batch
and gets its reports built from the columns. A matrix whose pattern
check failed enters as that error (``_attempt``) and keeps its place
among the results (``_in_place``). A single spec or matrix is a batch of
one; the sweeps, the split scan and the cross-check suite each make one
call.

The constructive route batches the same way over matrices of one split
(m, n): ``localize`` takes a sequence and runs each stage once for the
stack, with stacked ``matmul`` for the three congruences, stacked
``np.linalg.det`` calls and 2x2 algebra for every single-mode normalizer
of every matrix, and one stacked SVD for the boundary rotations. Stacked
LAPACK and BLAS calls give each matrix the bits of a call on it alone,
and each pattern, positivity and residual check records the matrices it
fails. The reduced matrix is reported on the skeleton the theorem
proves: once the residual check has measured the largest entry off it,
every such entry is set to +0.0, so ``cm_final`` is S^T sigma S on its
skeleton and exact zeros elsewhere, and ``cm_eq`` is its boundary 4x4.
The results are built from stacked values too: one stacked
covariance check of every ``cm_eq`` and of every ``cm_final``, one
stacked ``slogdet`` for the purities and one pass for the ``delta_eq``
invariants, the functions ``CovarianceMatrix``, ``purity`` and
``delta_invariant`` run on a batch of one. The cross-check suite makes
one call per (m, n) shape, at most 36 for its block sizes 1..6, and the
mode mixing O (x) I2 is built by broadcasting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entanglement import (
    EntanglementReport,
    ReportColumns,
    _pt_nu_tilde_pair,
    _pt_pair_columns,
    _symmetric_dets,
)
from .errors import (
    EntlocError,
    InconsistentInvariantsError,
    InvalidArgumentError,
    LocalizationError,
    NumericalDomainError,
)
from .states import BisymmetricBatch, BisymmetricSpec, FullySymmetricSpec, bisymmetric_batch
from .symplectic import (
    CovarianceMatrix,
    _clipped_sqrts,
    _delta_invariants,
    _PointErrors,
    _purities,
    _require_tolerance,
    _squares,
    _symmetrized,
    clipped_sqrt,
    cm_to_json_dict,
)


@dataclass(frozen=True)
class BlockSpectrum:
    """Symplectic spectrum of a permutation-invariant block.

    ``nu_minus`` is shared by n-1 normal modes and does not depend on the
    block size; ``nu_plus`` belongs to the single symmetric mode, the one
    that carries all correlations with the rest of the system.
    """

    nu_minus: float
    nu_plus: float
    multiplicity_minus: int


@dataclass(frozen=True)
class EquivalentTwoMode:
    """The two-mode state carrying all cross-block correlations.

    ``cm_eq`` is in standard form: diagonal blocks nu_plus_a * I2 and
    nu_plus_b * I2, cross block diag(c_plus, c_minus) with
    c_plus >= |c_minus| and c_plus >= 0. Every entry off that skeleton is
    exactly +0.0 on both routes; from ``localize`` the entries on it are
    those of S^T sigma S, rounding included.
    """

    cm_eq: CovarianceMatrix
    mu_eq: float
    delta_eq: float

    def to_json_dict(self) -> dict:
        return {
            "cm_eq": cm_to_json_dict(self.cm_eq),
            "mu_eq": self.mu_eq,
            "delta_eq": self.delta_eq,
        }


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of the constructive reduction.

    ``local_symplectic`` S is block-diagonal over the declared bipartition.
    ``cm_final`` is S^T sigma S on its skeleton, the diagonal and the
    diagonal cross block between modes m-1 and m (zero-based), and +0.0
    everywhere else; ``residual`` is the largest magnitude among the
    entries of S^T sigma S that were dropped.
    """

    local_symplectic: np.ndarray
    cm_final: CovarianceMatrix
    equivalent: EquivalentTwoMode
    residual: float


# ---------------------------------------------------------------------------
# Closed-form block spectra.
# ---------------------------------------------------------------------------


def fs_block_spectrum(spec: FullySymmetricSpec) -> BlockSpectrum:
    """(nu_minus, nu_plus) of a permutation-invariant block in standard form,
    with nu_minus of multiplicity n - 1 (formulas in ``FullySymmetricSpec``)."""
    return BlockSpectrum(spec.nu_minus(), spec.nu_plus(), spec.modes - 1)


def nu_plus_from_two_mode(n: int, mu_beta: float, nu_minus: float, nu_plus_2: float) -> float:
    """Symmetric-mode eigenvalue of an n-mode block from two-mode data.

    nu_plus^2 = -n(n-2)/mu_beta^2 + (n-1)/2 * (n nu_plus_2^2 + (n-2) nu_minus^2)

    where mu_beta is the single-mode purity and (nu_minus, nu_plus_2) the
    spectrum of the two-mode reduction. Collapses to nu_plus_2 at n = 2.
    """
    if n < 2:
        raise InvalidArgumentError(f"block must have at least two modes, got {n}")
    if not mu_beta > 0.0:
        raise InvalidArgumentError(f"single-mode purity must be positive, got {mu_beta}")
    try:
        value = -n * (n - 2) / mu_beta**2 + 0.5 * (n - 1) * (
            n * nu_plus_2**2 + (n - 2) * nu_minus**2
        )
        scale = (n / mu_beta) ** 2
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise InvalidArgumentError(f"two-mode data not finite in float range: mu_beta={mu_beta}, "
                                   f"nu_minus={nu_minus}, nu_plus_2={nu_plus_2}")
    return clipped_sqrt(value, scale=scale)


def fs_global_purity(spec: FullySymmetricSpec) -> float:
    """Purity of the full n-mode state: (nu_minus^{n-1} nu_plus)^{-1}."""
    block = fs_block_spectrum(spec)
    return 1.0 / (block.nu_minus ** (spec.modes - 1) * block.nu_plus)


def global_delta_bisym(spec: BisymmetricSpec) -> float:
    """Block-determinant invariant of the assembled two-block state.

    Delta = m det alpha + m(m-1) det eps + n det beta + n(n-1) det zeta
            + 2 m n det gamma, all blocks in standard (diagonal) form.
    """
    m, n = spec.m, spec.n
    return (
        m * spec.a**2
        + m * (m - 1) * spec.e1 * spec.e2
        + n * spec.b**2
        + n * (n - 1) * spec.z1 * spec.z2
        + 2.0 * m * n * spec.g1 * spec.g2
    )


# ---------------------------------------------------------------------------
# Invariant route to the equivalent two-mode state: one batch kernel.
# ---------------------------------------------------------------------------


def _block_nu_pair(diag2, det_minus, det_plus, count, errors: _PointErrors):
    """(nu_minus, nu_plus) of permutation-invariant blocks from raw 2x2 blocks.

    The determinants are those of diag2 - off2 and diag2 + (count-1) off2:
    valid in any local basis, not just standard form, because both values
    are fixed by the pattern. This is the one block-spectrum formula kept
    apart from ``states._pattern_factors``: its ``np.linalg.det`` calls
    (LU, not the explicit 2x2 product) fix the last bits of every
    invariant-route number.
    """
    scale = _squares(np.abs(diag2).max(axis=(1, 2)), errors) * (count * count)
    return _clipped_sqrts(np.array([det_minus, det_plus]), scale, errors)


class _Equivalents(NamedTuple):
    """Equivalent two-mode states of a batch, as arrays over its points:
    the standard form of ``EquivalentTwoMode.cm_eq`` and its invariants."""

    na_plus: np.ndarray
    nb_plus: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    mu_eq: np.ndarray
    delta_eq: np.ndarray
    plus_sq: np.ndarray  # nu_plus_a^2 and nu_plus_b^2, for the symmetric test

    def two_mode(self, i: int) -> EquivalentTwoMode:
        a, b, cp, cm = (float(v[i]) for v in self[:4])
        matrix = np.array(
            [[a, 0.0, cp, 0.0], [0.0, a, 0.0, cm], [cp, 0.0, b, 0.0], [0.0, cm, 0.0, b]]
        )
        return EquivalentTwoMode(CovarianceMatrix(matrix), float(self.mu_eq[i]), float(self.delta_eq[i]))


def _equivalent_from_blocks(m, n, blocks, errors: _PointErrors) -> _Equivalents:
    """Reconstruct the equivalent two-mode states of a batch from pattern blocks.

    ``m`` and ``n`` are integer arrays of shape (N,); ``blocks`` stacks
    alpha, eps, beta, zeta, gamma as shape (5, N, 2, 2), in any local
    basis. Uses only invariants: the block spectra, the global
    block-determinant sum, and the determinant of the still-coupled
    two-mode core. The cross block of the result is fixed by det gamma'' =
    (Delta_eq - nu_plus_a^2 - nu_plus_b^2)/2 together with det sigma_eq =
    1/mu_eq^2, taking the root pair with c_plus >= |c_minus|, c_plus >= 0.
    All 2x2 determinants go through one stacked ``np.linalg.det`` call and
    the cores through another. Call it under ``np.errstate(all="ignore")``:
    failures are recorded in ``errors``.

    The block sizes enter as floats: each is exact below 2**53, so every
    product of them rounds once, as an int product converted to float
    does, where an int64 product would wrap past 2**63.
    """
    m, n = m * 1.0, n * 1.0
    size = len(m)
    counts = np.array([m, n])
    counts1 = counts - 1
    diag, off, gamma = blocks[0:4:2], blocks[1:4:2], blocks[4]
    core_ab = diag + counts1[:, :, None, None] * off
    cross = np.sqrt(m * n)[:, None, None] * gamma
    core = np.empty((size, 4, 4))
    core[:, :2, :2], core[:, :2, 2:] = core_ab[0], cross
    core[:, 2:, :2], core[:, 2:, 2:] = cross.transpose(0, 2, 1), core_ab[1]
    # rows: det(diag - off) and det(core) of blocks a, b; then the five blocks
    dets = np.linalg.det(np.concatenate([diag - off, core_ab, blocks]).reshape(-1, 2, 2))
    dets = dets.reshape(9, size)
    det_core = np.linalg.det(core)

    # both blocks' spectra as one batch of 2N blocks; block a's errors first
    block_errors = _PointErrors(2 * size)
    nus = _block_nu_pair(
        diag.reshape(-1, 2, 2), dets[0:2].ravel(), dets[2:4].ravel(), counts.ravel(), block_errors
    ).reshape(2, 2, size)
    errors.merge(block_errors)
    (na_minus, nb_minus), (na_plus, nb_plus) = nus
    errors.record(
        det_core <= 0.0,
        lambda i: InconsistentInvariantsError(
            f"coupled two-mode core has non-positive determinant {det_core[i]:.6e}"
        ),
    )
    mu_eq = 1.0 / np.sqrt(det_core)

    # Delta = m det alpha + m(m-1) det eps + n det beta + n(n-1) det zeta
    #         + 2 m n det gamma, summed left to right (an axis-0 sum does)
    pairs = counts * counts1
    delta = (np.array([m, pairs[0], n, pairs[1], 2 * m * n], dtype=float) * dets[4:]).sum(axis=0)
    minus_sq_a, minus_sq_b, *plus_sq = _squares(nus.reshape(4, size), errors)
    delta_eq = delta - counts1[0] * minus_sq_a - counts1[1] * minus_sq_b

    det_cross = 0.5 * (delta_eq - plus_sq[0] - plus_sq[1])
    k = na_plus * nb_plus
    kk, q = k * k, det_core
    # max(kk, q, 1.0); fmax differs from it only where kk is nan, and
    # there sum_sq is nan too, so neither check below can fire
    scale = np.fmax(np.fmax(kk, q), 1.0)
    det_cross_sq = _squares(det_cross, errors)
    errors.record(
        k == 0.0,
        lambda i: NumericalDomainError("c_plus^2 + c_minus^2 divides by nu_plus_a nu_plus_b = 0"),
    )
    sum_sq = (kk + det_cross_sq - q) / k
    errors.record(
        sum_sq < -1e-10 * scale,
        lambda i: InconsistentInvariantsError(
            f"invariants give negative c_plus^2 + c_minus^2 = {sum_sq[i]:.6e}"
        ),
    )
    sum_sq = np.where(0.0 > sum_sq, 0.0, sum_sq)
    sum_sq_sq, scale_sq = _squares(np.array([sum_sq, scale]), errors)
    root = _clipped_sqrts(sum_sq_sq - 4.0 * det_cross_sq, scale_sq, errors)
    c_plus = np.sqrt(0.5 * (sum_sq + root))
    c_minus = np.where(c_plus > 0.0, det_cross / c_plus, 0.0)
    errors.record(
        ~np.isfinite(np.array([na_plus, nb_plus, c_plus, c_minus])).all(axis=0),
        lambda i: InvalidArgumentError("covariance matrix has non-finite entries"),
    )
    return _Equivalents(na_plus, nb_plus, c_plus, c_minus, mu_eq, delta_eq, np.array(plus_sq))


def _nu_tilde_pairs(block_a, block_b, delta_eq, mu_eq, errors: _PointErrors):
    """PT eigenvalues of two-mode states from their local blocks and
    invariants: Delta~ = 2 det A + 2 det B - Delta_eq, det = 1/mu_eq^2."""
    det_a, det_b = np.linalg.det(np.concatenate([block_a, block_b])).reshape(2, len(mu_eq))
    mu_sq = _squares(mu_eq, errors)
    errors.record(
        mu_sq == 0.0,
        lambda i: NumericalDomainError("det sigma_eq = 1/mu_eq^2 divides by mu_eq^2 = 0"),
    )
    return _pt_nu_tilde_pair(det_a, det_b, delta_eq, 1.0 / mu_sq, errors)


def _report_from_equivalent(eq: _Equivalents, errors: _PointErrors) -> ReportColumns:
    """Entanglement reports of the points of a batch, as columns."""
    local = np.zeros((2, len(eq.mu_eq), 2, 2))
    local[:, :, 0, 0] = local[:, :, 1, 1] = np.array([eq.na_plus, eq.nb_plus])
    nu_minus, nu_plus = _nu_tilde_pairs(local[0], local[1], eq.delta_eq, eq.mu_eq, errors)
    symmetric = _symmetric_dets(eq.plus_sq[0], eq.plus_sq[1])
    return _pt_pair_columns(nu_minus, nu_plus, symmetric, errors)


def _batch_blocks(batch: BisymmetricBatch):
    """(m, n, blocks) of a spec batch, blocks of shape (5, N, 2, 2)."""
    blocks = np.zeros((5, len(batch.m), 2, 2))
    blocks[:, :, 0, 0] = batch.diagonals[:, 0]
    blocks[:, :, 1, 1] = batch.diagonals[:, 1]
    return batch.m, batch.n, blocks


def _cm_blocks(cm: CovarianceMatrix, splits: list, tol_pattern: float | None) -> list:
    """(m, n, pattern blocks) of each split (m, n) of one matrix, or the
    error of its pattern check."""
    def check(m, n):
        errors = _PointErrors(1)
        blocks, _ = _pattern_check(_covered(cm, m, n)[None], m, n, tol_pattern, errors)
        errors.raise_first()
        return m, n, blocks

    return [_attempt(check, m, n) for m, n in splits]


def _stack_cm_blocks(items):
    """(m, n, blocks) stacks of the ``_cm_blocks`` items of one batch."""
    m, n, blocks = zip(*items)
    counts = np.array([m, n], dtype=np.int64)
    return counts[0], counts[1], np.concatenate(blocks, axis=1)


def _attempt(fn, *args):
    """fn(*args), or the EntlocError it raises; an error given as an
    argument is passed on. Makes a failed construction an item's result."""
    for arg in args:
        if isinstance(arg, EntlocError):
            return arg
    try:
        return fn(*args)
    except EntlocError as exc:
        return exc


def _in_place(evaluate, items: list) -> list:
    """The result of each item: an error item stays where it is, the other
    items go through ``evaluate`` as one batch and their results take their
    places."""
    todo = [item for item in items if not isinstance(item, EntlocError)]
    results = iter(evaluate(todo) if todo else ())
    return [item if isinstance(item, EntlocError) else next(results) for item in items]


def _raise_first(results: list) -> list:
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def _report_columns(m, n, blocks, errors: _PointErrors) -> ReportColumns:
    """The reports of one batch as columns; ``errors`` holds the points
    that failed before the kernel."""
    with np.errstate(all="ignore"):
        return _report_from_equivalent(_equivalent_from_blocks(m, n, blocks, errors), errors)


def _single_equivalent(blocks) -> EquivalentTwoMode:
    errors = _PointErrors(1)
    with np.errstate(all="ignore"):
        eq = _equivalent_from_blocks(*blocks, errors)
    errors.raise_first()
    return eq.two_mode(0)


def equivalent_two_mode_invariants(spec: BisymmetricSpec) -> EquivalentTwoMode:
    """Equivalent two-mode state of a two-block spec, from invariants alone.

    O(1) in the number of modes; the workhorse of the parameter sweeps.
    """
    return _single_equivalent(_batch_blocks(BisymmetricBatch.of([spec])))


def equivalent_from_cm(
    cm: CovarianceMatrix, m: int, n: int, tol_pattern: float | None = None
) -> EquivalentTwoMode:
    """Invariant route applied to an assembled covariance matrix.

    The pattern blocks need not be in standard form; they are verified
    against the two-block permutation symmetry and rejected otherwise.
    """
    checked = _raise_first(_cm_blocks(cm, [(m, n)], tol_pattern))
    return _single_equivalent(_stack_cm_blocks(checked))


def equivalent_report(spec):
    """Entanglement report of the m x n split via the equivalent state.

    Positivity of the partial transpose is decisive for this state class,
    so the separable flag is always populated; the entanglement of
    formation is included when the equivalent state is symmetric.

    ``spec`` is one ``BisymmetricSpec``, whose failure raises, or a
    ``BisymmetricBatch`` or a sequence of specs, which gives every point
    its report or its error, in place. A batch is evaluated as it stands
    and gives ``ReportColumns``, the form the sweeps read; a point the
    batch holds an error for keeps that error. A sequence is stacked into
    one batch and gives a list, each report built from the columns; an
    ``EntlocError`` item stands for a spec that could not be built and is
    its own result.
    """
    if isinstance(spec, BisymmetricSpec):
        return _raise_first(_spec_reports([spec]))[0]
    if isinstance(spec, BisymmetricBatch):
        errors = _PointErrors(len(spec.m))
        errors.merge(spec.errors)  # the caller's batch keeps its errors
        return _report_columns(*_batch_blocks(spec), errors)
    return _spec_reports(list(spec))


def _spec_reports(items: list) -> list:
    """The report, or the error, of each item of a sequence of specs."""
    batch = BisymmetricBatch.of(items)
    return _report_columns(*_batch_blocks(batch), batch.errors).reports()


def equivalent_report_from_cm(cm: CovarianceMatrix, m, n):
    """Entanglement report of an assembled two-block covariance matrix.

    One split (m, n) gives its report, and its failure raises. ``m`` and
    ``n`` may be equal-length sequences of block sizes: the splits are then
    evaluated in one batch and give a list holding each split's report or
    its error, from its pattern check or from the batch, in place.
    """
    single = np.ndim(m) == 0
    splits = [(m, n)] if single else list(zip(m, n, strict=True))
    checked = _cm_blocks(cm, splits, None)
    reports = _in_place(lambda items: _report_columns(
        *_stack_cm_blocks(items), _PointErrors(len(items))).reports(), checked)
    return _raise_first(reports)[0] if single else reports


# ---------------------------------------------------------------------------
# Constructive route.
# ---------------------------------------------------------------------------


def _pattern_blocks(stack: np.ndarray, m: int, n: int):
    """Pattern blocks of a stack of (m+n)-mode matrices, and how far each
    matrix is from the two-block pattern they define.

    Returns alpha, eps, beta, zeta, gamma of every matrix, read from the
    first row of each block, as shape (5, K, 2, 2), and each matrix's
    largest entry deviation from its pattern, shape (K,).
    """
    count, total = len(stack), m + n

    def block(i, j):
        return stack[:, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]

    zero = np.zeros((count, 2, 2))
    blocks = np.array(
        [block(0, 0), block(0, 1) if m > 1 else zero, block(m, m),
         block(m, m + 1) if n > 1 else zero, block(0, m)]
    )
    alpha, eps, beta, zeta, gamma = blocks

    # cross blocks are checked upper-right only; the lower-left ones keep
    # their own values and so never deviate
    grid = stack.reshape(count, total, 2, total, 2)
    target = grid.copy()
    target[:, :m, :, :m, :] = eps[:, None, :, None, :]
    target[:, np.arange(m), :, np.arange(m), :] = alpha
    target[:, m:, :, m:, :] = zeta[:, None, :, None, :]
    target[:, np.arange(m, total), :, np.arange(m, total), :] = beta
    target[:, :m, :, m:, :] = gamma[:, None, :, None, :]
    return blocks, np.abs(grid - target).max(axis=(1, 2, 3, 4))


def _pattern_check(stack: np.ndarray, m: int, n: int, tol_pattern, errors: _PointErrors):
    """Pattern blocks of a stack (as ``_pattern_blocks``) and the tolerance
    of each matrix, shape (K,): ``tol_pattern``, a finite number >= 0, or
    by default 1e-8 scaled by the matrix's largest entry. A matrix farther
    than its tolerance from its pattern fails in ``errors``."""
    _require_tolerance(tol_pattern, "pattern tolerance")
    if tol_pattern is None:
        tol = 1e-8 * np.fmax(np.abs(stack).max(axis=(1, 2)), 1.0)
    else:
        tol = np.full(len(stack), float(tol_pattern))
    blocks, worst = _pattern_blocks(stack, m, n)
    errors.record(
        worst > tol,
        lambda k: LocalizationError(
            f"input is not block-permutation invariant: pattern deviation {worst[k]:.3e} "
            f"exceeds tolerance {tol[k]:.3e}"
        ),
    )
    return blocks, tol


def _covered(cm: CovarianceMatrix, m: int, n: int) -> np.ndarray:
    """The matrix of ``cm``, which the split (m, n) must cover."""
    if m < 1 or n < 1 or m + n != cm.modes:
        raise InvalidArgumentError(f"split ({m}, {n}) does not cover the {cm.modes}-mode input")
    return cm.matrix


def _householder_mixing(count: int, position: int) -> np.ndarray:
    """Orthogonal matrix whose ``position``-th row is the uniform vector.

    Symmetric Householder reflection exchanging e_position with
    (1, ..., 1)/sqrt(count); the remaining rows span the complement of the
    uniform vector, so they average out identical block patterns.
    """
    if count == 1:
        return np.eye(1)
    v = np.full(count, 1.0 / math.sqrt(count))
    w = v - np.eye(count)[position]
    return np.eye(count) - 2.0 * np.outer(w, w) / float(w @ w)


def _mode_mixing_symplectic(o: np.ndarray) -> np.ndarray:
    """Symplectic acting as the orthogonal mode mixing O on (x, p) jointly.

    Under sigma -> T^T sigma T the 2x2 mode blocks transform as
    sigma'_ij = sum_kl O_ik O_jl sigma_kl. T is O^T (x) I2, built by
    broadcasting the products ``np.kron`` takes, so its zeros keep their
    signs.
    """
    count = len(o)
    return (o.T[:, None, :, None] * np.eye(2)[None, :, None, :]).reshape(2 * count, 2 * count)


def _normalizers(c: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """2x2 symplectics s with s^T c s = sqrt(det c) * I2, for a stack c of
    symmetric blocks of shape (modes, K, 2, 2); matrix k fails in
    ``errors`` if one of its blocks is not positive definite.

    s = (c / nu)^{-1/2}: symmetric with unit determinant, hence symplectic.
    With x = c / nu, x^{1/2} = (x + sqrt(det x) I2) / sqrt(tr x + 2 sqrt(det x))
    and its inverse is the adjugate over the determinant. Each determinant
    is one stacked ``np.linalg.det`` call (LU, like a call per block), which
    fixes the last bits of the reduced matrix.
    """
    det = np.linalg.det(c)
    x = c / np.sqrt(det)[..., None, None]
    det_x = np.linalg.det(x)
    errors.record(
        ((det <= 0.0) | (det_x <= 0.0) | (x[..., 0, 0] <= 0.0)).any(axis=0),
        lambda k: LocalizationError("single-mode covariance block is not positive definite"),
    )
    root = np.sqrt(det_x)
    w = (x + root[..., None, None] * np.eye(2)) / np.sqrt(
        x[..., 0, 0] + x[..., 1, 1] + 2.0 * root
    )[..., None, None]
    adjugate = np.stack([w[..., 1, 1], -w[..., 0, 1], -w[..., 1, 0], w[..., 0, 0]], axis=-1)
    return adjugate.reshape(w.shape) / np.linalg.det(w)[..., None, None]


def _boundary_rotations(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (r1, r2) of each 2x2 block of a stack x, shape (K, 2, 2),
    with r1^T x r2 = diag(d1, d2), d1 >= |d2|, d1 >= 0."""
    u, _, vt = np.linalg.svd(x)
    v = vt.swapaxes(1, 2)
    u[np.linalg.det(u) < 0.0, :, 1] *= -1.0
    v[np.linalg.det(v) < 0.0, :, 1] *= -1.0
    return u, v


def _localize_stack(stack: np.ndarray, m: int, n: int, tol_pattern) -> list:
    """The ``localize`` result, or the error, of each matrix of a stack of
    shape (K, 2(m+n), 2(m+n)): every stage is one stacked numpy call."""
    count, total = len(stack), m + n
    errors = _PointErrors(count)
    _, tol = _pattern_check(stack, m, n, tol_pattern, errors)

    mixing = np.zeros((2 * total, 2 * total))
    mixing[: 2 * m, : 2 * m] = _mode_mixing_symplectic(_householder_mixing(m, m - 1))
    mixing[2 * m :, 2 * m :] = _mode_mixing_symplectic(_householder_mixing(n, 0))
    stage1 = mixing.T @ stack @ mixing

    modes = np.arange(total)
    blocks = stage1.reshape(count, total, 2, total, 2)[:, modes, :, modes, :]
    squeezers = np.zeros((count, total, 2, total, 2))
    squeezers[:, modes, :, modes, :] = _normalizers(0.5 * (blocks + blocks.swapaxes(2, 3)), errors)
    squeezers = squeezers.reshape(count, 2 * total, 2 * total)
    stage2 = squeezers.swapaxes(1, 2) @ stage1 @ squeezers

    row, col = 2 * (m - 1), 2 * m
    # a matrix with a non-finite cross block fails below (its cm_final is
    # non-finite); zeros keep it from failing the stacked SVD of the rest
    cross = stage2[:, row:col, col : col + 2]
    rotations = np.array(np.broadcast_to(np.eye(2 * total), stage2.shape))
    rotations[:, row:col, row:col], rotations[:, col : col + 2, col : col + 2] = (
        _boundary_rotations(np.where(np.isfinite(cross), cross, 0.0))
    )
    final = rotations.swapaxes(1, 2) @ stage2 @ rotations
    local = mixing @ squeezers @ rotations
    return _skeleton_results(final, local, m, tol, errors)


def _skeleton_results(final: np.ndarray, local: np.ndarray, m: int, tol, errors: _PointErrors):
    """The results of a stack of reduced matrices ``final`` = S^T sigma S,
    shape (K, 2(m+n), 2(m+n)), with ``local`` the stack of S, ``tol`` the
    residual tolerance of each matrix and ``errors`` the failures so far.

    The skeleton is what the reduction leaves nonzero in exact arithmetic:
    the diagonal, and the diagonal cross block of the boundary modes m-1
    and m. ``residual`` is the largest entry off it; once that is checked,
    every entry off it is set to +0.0, so ``cm_final`` and ``cm_eq`` hold
    exact zeros, not rounding noise, there. The projection subtracts the
    off-skeleton part, so a non-finite entry stays non-finite and fails the
    covariance check.
    """
    row, col = 2 * (m - 1), 2 * m
    pattern = np.eye(final.shape[-1], dtype=bool)
    for offset in (0, 1):
        pattern[row + offset, col + offset] = pattern[col + offset, row + offset] = True
    off = np.where(pattern, 0.0, final)
    residual = np.abs(off).max(axis=(1, 2))
    errors.record(
        residual > tol,
        lambda k: LocalizationError(
            f"off-pattern residual {residual[k]:.3e} exceeds tolerance {tol[k]:.3e}"
        ),
    )
    final = final - off

    # the checks a matrix meets building its result, in order: the
    # covariance check of cm_eq, its purity, the covariance check of cm_final
    boundary = slice(row, col + 2)
    cm_eq = _symmetrized(final[:, boundary, boundary], errors)
    mu_eq = _purities(cm_eq, errors)
    delta_eq = _delta_invariants(cm_eq)
    cm_final = _symmetrized(final, errors)

    results = errors.errors.copy()
    columns = zip(errors.alive.tolist(), mu_eq.tolist(), delta_eq.tolist(), residual.tolist())
    for k, (alive, mu, delta, res) in enumerate(columns):
        if alive:
            equivalent = EquivalentTwoMode(CovarianceMatrix._checked(cm_eq[k]), mu, delta)
            results[k] = LocalizationResult(
                local[k], CovarianceMatrix._checked(cm_final[k]), equivalent, res
            )
    return results


def localize(cm, m: int, n: int, tol_pattern: float | None = None):
    """Concentrate all cross-block correlations onto one pair of modes.

    The input must be an (m+n)-mode state invariant under mode permutations
    inside the first m and the last n modes (verified by pattern inspection
    within ``tol_pattern``, a finite number >= 0, default 1e-8 scaled by the
    largest entry; failing inputs are rejected, never projected).

    The transformation is assembled in three local stages:

    1. an orthogonal mode mixing on each block sending the symmetric
       combination to the block boundary (modes m-1 and m), which decouples
       the remaining modes exactly by the pattern's permutation symmetry;
    2. a single-mode squeezer on every mode bringing each decoupled 2x2
       covariance block to its normal form nu * I2;
    3. a phase rotation on each boundary mode diagonalizing the remaining
       cross block.

    Stage 1 works even when a block's spectrum is fully degenerate, where
    an eigenvalue-ordered normal-form computation could not identify the
    correlation-carrying mode.

    The result's ``cm_final`` is S^T sigma S on the skeleton the stages
    produce exactly, the diagonal and the boundary cross block; the
    rounding noise off it is checked against the tolerance as
    ``residual``, its largest entry, and then dropped to +0.0. A matrix
    whose noise exceeds the tolerance is rejected, not projected.

    ``cm`` is one ``CovarianceMatrix``, whose failure raises, or a sequence
    of them, all split as (m, n), which is reduced as one stack and gives a
    list holding each matrix's result or its error, in place.
    """
    if m < 1 or n < 1:
        raise InvalidArgumentError(f"block sizes must be >= 1, got ({m}, {n})")
    single = isinstance(cm, CovarianceMatrix)
    items = [_attempt(_covered, c, m, n) for c in ([cm] if single else cm)]
    with np.errstate(all="ignore"):
        results = _in_place(
            lambda matrices: _localize_stack(np.array(matrices), m, n, tol_pattern), items
        )
    return _raise_first(results)[0] if single else results


# ---------------------------------------------------------------------------
# Block entanglement of permutation-invariant states.
# ---------------------------------------------------------------------------


def _fs_split_spec(spec: FullySymmetricSpec, k: int) -> BisymmetricSpec:
    total = spec.modes
    if not 1 <= k <= total - 1:
        raise InvalidArgumentError(f"split size k = {k} out of range for {total} modes")
    rest = total - k
    return BisymmetricSpec(
        m=k,
        n=rest,
        a=spec.b,
        e1=spec.z1 if k > 1 else 0.0,
        e2=spec.z2 if k > 1 else 0.0,
        b=spec.b,
        z1=spec.z1 if rest > 1 else 0.0,
        z2=spec.z2 if rest > 1 else 0.0,
        g1=spec.z1,
        g2=spec.z2,
    )


def _fs_split_batch(modes, k, b, z1, z2, errors: _PointErrors) -> BisymmetricBatch:
    """``_fs_split_spec`` of many fully symmetric states as one validated
    batch: point i splits the ``modes[i]``-mode state (b, z1, z2)[i] at
    ``k[i]``, all (N,) arrays, and fails in ``errors`` as that call would
    raise."""
    rest = modes - k
    errors.record(
        (k < 1) | (rest < 1),
        lambda i: InvalidArgumentError(f"split size k = {k[i]} out of range for {modes[i]} modes"),
    )
    first, second = k > 1, rest > 1
    return bisymmetric_batch(
        k, rest,
        b, np.where(first, z1, 0.0), np.where(first, z2, 0.0),
        b, np.where(second, z1, 0.0), np.where(second, z2, 0.0),
        z1, z2, errors,
    )


def block_log_negativity(spec: FullySymmetricSpec, k: int) -> EntanglementReport:
    """Entanglement between the first k modes and the rest.

    Every k-subset of a permutation-invariant state is equivalent, so the
    contiguous split is canonical. Runs through the equivalent-state
    invariants; the k = total/2 split is symmetric, so the entanglement of
    formation is reported there (and wherever the symmetric condition
    happens to hold).
    """
    return equivalent_report(_fs_split_spec(spec, k))


def _ole_scan(state) -> list[tuple[int, EntanglementReport]]:
    """(k, report) for every split size k = 1 .. M/2 of a symmetric state;
    the first split that fails raises."""
    if not isinstance(state, (FullySymmetricSpec, CovarianceMatrix)):
        raise InvalidArgumentError(
            f"expected a symmetric spec or covariance matrix, got {type(state)!r}"
        )
    total = state.modes
    if total < 2:
        raise InvalidArgumentError("need at least two modes to form a bipartition")
    ks = range(1, total // 2 + 1)
    if isinstance(state, FullySymmetricSpec):
        reports = equivalent_report([_attempt(_fs_split_spec, state, k) for k in ks])
    else:
        reports = equivalent_report_from_cm(state, ks, [total - k for k in ks])
    return list(zip(ks, _raise_first(reports)))


def _best_split(scan) -> tuple[int, EntanglementReport]:
    """The first (k, report) of a scan with the largest log-negativity."""
    return max(scan, key=lambda item: item[1].log_negativity)


def optimal_localizable_entanglement(state) -> tuple[int, EntanglementReport]:
    """Best split size of a permutation-invariant state, and its report.

    ``state`` is a spec or an assembled covariance matrix (any local
    basis). Ties resolve to the smallest k; the maximum is expected at the
    balanced split, k = floor(M/2).
    """
    return _best_split(_ole_scan(state))
