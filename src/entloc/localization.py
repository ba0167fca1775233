"""Concentration of block entanglement onto a single pair of modes.

A two-block (m+n)-mode state whose covariance matrix is invariant under
mode permutations inside each block is equivalent, under symplectic
operations local to the blocks, to one correlated two-mode state plus
m+n-2 uncorrelated single-mode states. This module provides both routes
to that two-mode state:

* the invariant route, which reads the equivalent state off a handful of
  local and global invariants in O(1) per input and is the default for
  parameter sweeps; on an assembled matrix it also asks the package's
  one physicality rule of the decoupled parts;
* the constructive route (:func:`localize`), which builds the local
  transformation explicitly and returns the transformed matrix, so the
  structure claim itself can be checked numerically.

Both routes run on batches and give each input the bits and the error
it gets alone. The invariant route is one batch kernel,
``_equivalent_from_blocks`` and ``_report_from_equivalent``, over the
stacked pattern blocks of N inputs: elementwise numpy, one stacked LU of
the 4x4 cores, and the C library's exp and log1p one value at a time. Each
check records the inputs it fails in a ``_PointErrors``, and an input
that failed before the kernel (a spec batch's invalid point, a split
that ``_fs_split_batch`` or a pattern check rejects) enters it failed,
so every result keeps its place. The constructive route batches over
groups of matrices, each a (K, 2(m+n), 2(m+n)) stack of one split
(``_localize_groups``): a stage on whole matrices runs once per group as
stacked numpy calls, a stage on 2x2 or 4x4 blocks once for all groups,
and the results are columns (``LocalizationColumns``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entanglement import (
    NOT_A_STATE,
    EntanglementReport,
    ReportColumns,
    _pt_nu_tilde_pair,
    _pt_columns,
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
    TOL,
    CovarianceMatrix,
    _adjugate_traces,
    _below_vacuum,
    _cholesky_factors,
    _clipped_sqrts,
    _delta_invariants,
    _dets,
    _Mapped,
    _PointErrors,
    _purities,
    _raise_first,
    _real_stack,
    _require_tolerance,
    _scale,
    _squares,
    _symmetrized,
    _symplectic_spectra,
    matrix_to_json_dict,
)


@dataclass(frozen=True)
class EquivalentTwoMode:
    """The two-mode state carrying all cross-block correlations.

    ``cm_eq`` is in standard form: diagonal blocks nu_plus_a * I2 and
    nu_plus_b * I2, cross block diag(c1, c2) with c1 >= |c2| and c1 >= 0.
    Every entry off that skeleton is exactly +0.0; the entries on it are
    those of S^T sigma S from ``localize``, rounding included.
    """

    cm_eq: CovarianceMatrix
    mu_eq: float
    delta_eq: float

    def to_json_dict(self) -> dict:
        return {
            "cm_eq": matrix_to_json_dict(self.cm_eq.matrix),
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


class LocalizationColumns(NamedTuple):
    """The ``localize`` results of one group of a grouped call, a stack of
    K matrices, as columns.

    ``cm_final`` and ``local_symplectic`` are (K, 2N, 2N) stacks, ``cm_eq``
    the (K, 4, 4) stack of the boundary blocks, ``mu_eq``, ``delta_eq`` and
    ``residual`` (K,) arrays, and ``errors`` each matrix's error or None;
    the values of a failed matrix are meaningless. ``cm_final`` and
    ``cm_eq`` are read-only, as a ``CovarianceMatrix`` holds them.
    """

    cm_final: np.ndarray
    local_symplectic: np.ndarray
    cm_eq: np.ndarray
    mu_eq: np.ndarray
    delta_eq: np.ndarray
    residual: np.ndarray
    errors: list

    def results(self) -> list:
        """The ``LocalizationResult``, or the error, of each matrix; its
        arrays are views of the columns."""
        rows = zip(self.mu_eq.tolist(), self.delta_eq.tolist(), self.residual.tolist(), self.errors)
        return [
            error if error is not None else LocalizationResult(
                self.local_symplectic[k], CovarianceMatrix._checked(self.cm_final[k]),
                EquivalentTwoMode(CovarianceMatrix._checked(self.cm_eq[k]), mu, delta), residual)
            for k, (mu, delta, residual, error) in enumerate(rows)
        ]


# ---------------------------------------------------------------------------
# Invariant route to the equivalent two-mode state: one batch kernel.
# ---------------------------------------------------------------------------


class _Equivalents(NamedTuple):
    """Equivalent two-mode states of a batch, as arrays over its points:
    what the reports and a matrix's physicality check read."""

    nus: np.ndarray  # (nu_minus, nu_plus) of blocks a and b, shape (2, 2, N)
    plus_sq: np.ndarray  # nu_plus_a^2 and nu_plus_b^2
    trace: np.ndarray  # tr(adj A' C' adj B' C'^T)
    det_cross: np.ndarray  # det C'
    det: np.ndarray  # det sigma_eq = 1/mu_eq^2
    core: np.ndarray  # the (N, 4, 4) coupled cores


def _equivalent_from_blocks(m, n, blocks, errors: _PointErrors) -> _Equivalents:
    """The equivalent two-mode states of a batch, from pattern blocks.

    ``m`` and ``n`` are integer arrays of shape (N,); ``blocks`` stacks
    alpha, eps, beta, zeta, gamma as shape (5, N, 2, 2), in any local
    basis. A mode mixing inside each block decouples m-1 copies of alpha -
    eps and n-1 of beta - zeta (nu_minus^2 = their det) from the coupled
    core A' = alpha + (m-1) eps, B' = beta + (n-1) zeta, C' = sqrt(mn)
    gamma. The reports read its local-symplectic invariants: nu_plus^2 =
    det A' and det B', det C', tr(adj A' C' adj B' C'^T) and det sigma_eq =
    det core. Call it under ``np.errstate(all="ignore")``: ``errors``
    records failures.

    The block sizes enter as floats: each is exact below 2**53, so every
    product of them rounds once, as an int product converted to float
    does, where an int64 product would wrap past 2**63.
    """
    m, n = m * 1.0, n * 1.0
    size = len(m)
    counts = np.array([m, n])
    diag, off = blocks[0:4:2], blocks[1:4:2]
    core_ab = diag + (counts - 1)[:, :, None, None] * off
    cross = np.sqrt(m * n)[:, None, None] * blocks[4]
    core = np.empty((size, 4, 4))
    core[:, :2, :2], core[:, :2, 2:] = core_ab[0], cross
    core[:, 2:, :2], core[:, 2:, 2:] = cross.transpose(0, 2, 1), core_ab[1]
    # rows: det(diag - off) and det(core) of blocks a, b; then det C'
    dets = _dets(np.concatenate([diag - off, core_ab, cross[None]]), errors)
    det_core = np.linalg.det(core)

    # (nu_minus, nu_plus) of both blocks, fixed by the pattern in any local
    # basis, as one batch of 2N blocks, block a's errors first
    block_errors = _PointErrors(2 * size)
    scale = _squares(np.abs(diag).max(axis=(2, 3)), block_errors) * (counts * counts)
    nus = _clipped_sqrts(dets[:4].reshape(2, 2, size), scale, block_errors)
    errors.merge(block_errors)
    errors.record(
        det_core <= 0.0,
        lambda i: InconsistentInvariantsError(
            f"coupled two-mode core has non-positive determinant {det_core[i]:.6e}"
        ),
    )
    plus_sq = _squares(nus[1], errors)
    # the route's float range, as the README states it: (nu_plus_a nu_plus_b)^4 is finite
    _squares(_squares(nus[1, 0] * nus[1, 1], errors), errors)
    # the inputs are finite, so a non-finite invariant or core entry is an overflow
    errors.record(
        ~np.isfinite(nus[1]).all(axis=0) | ~np.isfinite(cross).all(axis=(1, 2)),
        lambda i: NumericalDomainError("overflow: an invariant of the two-mode core is out of "
                                       "float range"),
    )
    trace = _adjugate_traces(core_ab[0], cross, core_ab[1])
    return _Equivalents(nus, plus_sq, trace, dets[4], det_core, core)


def _report_from_equivalent(eq: _Equivalents, errors: _PointErrors) -> ReportColumns:
    """Entanglement reports of the points of a batch, as columns."""
    values = np.array(_pt_nu_tilde_pair(*eq.plus_sq, eq.trace, eq.det_cross, eq.det, errors))
    return _pt_columns(values, _symmetric_dets(*eq.plus_sq), errors)


def _batch_blocks(batch: BisymmetricBatch):
    """(m, n, blocks) of a spec batch, blocks of shape (5, N, 2, 2)."""
    blocks = np.zeros((5, len(batch.m), 2, 2))
    blocks[:, :, 0, 0] = batch.diagonals[:, 0]
    blocks[:, :, 1, 1] = batch.diagonals[:, 1]
    return batch.m, batch.n, blocks


def _report_columns(m, n, blocks, errors: _PointErrors) -> ReportColumns:
    """The reports of one batch as columns; ``errors`` holds the points
    that failed before the kernel."""
    with np.errstate(all="ignore"):
        return _report_from_equivalent(_equivalent_from_blocks(m, n, blocks, errors), errors)


def equivalent_report(spec):
    """Entanglement report of the m x n split via the equivalent state.

    Positivity of the partial transpose is decisive for this state class,
    so the separable flag is always populated; the entanglement of
    formation is included when the equivalent state is symmetric.

    ``spec`` is one ``BisymmetricSpec``, whose failure raises, or a
    ``BisymmetricBatch`` or a sequence of specs, which gives every point
    its report or its error, in place. A batch is evaluated as it stands
    and gives ``ReportColumns``, the form the sweeps read; a point the
    batch holds an error for keeps that error. A sequence holds
    ``BisymmetricSpec``s only (any other item is invalid); it is stacked
    into one batch and gives a list, each report built from the columns.
    Any other input is invalid.
    """
    if isinstance(spec, BisymmetricSpec):
        return _raise_first(_spec_reports([spec]))[0]
    if isinstance(spec, BisymmetricBatch):
        errors = _PointErrors(len(spec.m))
        errors.merge(spec.errors)  # the caller's batch keeps its errors
        return _report_columns(*_batch_blocks(spec), errors)
    if not isinstance(spec, Iterable):
        raise InvalidArgumentError("equivalent_report takes a BisymmetricSpec, a BisymmetricBatch "
                                   f"or a sequence of specs, got {type(spec).__name__}")
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
    its error, in place. A split is decided pattern, then state, then
    numerics: its pattern check (at the default tolerance), then, if some
    split passes, the physicality rule of ``_record_unphysical`` (the dense
    route's error), and only then the checks of the kernel and the report.

    A call of more than one split first takes the matrix's one
    ``_pattern_spread`` d. If 4 d is within the tolerance, every split
    passes its pattern check, and each split's blocks are read directly;
    otherwise each split takes its own pattern check over the whole
    matrix. Either way a split gets the same blocks and the same error, so
    a scan over the splits of a fully symmetric matrix costs one pass over
    it, not one per split.
    """
    single = _ndim(m) == 0
    splits = [(m, n)] if single else list(zip(m, n, strict=True))
    counts = np.ones((2, len(splits)), dtype=np.int64)  # a split off the rule reads 1 | 1
    blocks = np.zeros((5, len(splits), 2, 2))
    errors = _PointErrors(len(splits))
    covered = {}
    for i, split in enumerate(splits):
        split = _covered(cm.modes, *split)
        if isinstance(split, InvalidArgumentError):
            errors.fail(i, split)
        else:
            counts[:, i] = covered[i] = split
    stack = cm.matrix[None]
    if covered:
        tol = float(_pattern_tolerances(stack, None)[0])
        bounded = len(covered) > 1 and 4.0 * _pattern_spread(cm.matrix) <= tol
        for i, split in covered.items():
            if bounded:
                blocks[:, i : i + 1] = _split_blocks(stack, *split)
            else:
                point = _Mapped(errors, 1, [i].__getitem__)
                blocks[:, i : i + 1], _ = _pattern_check(stack, *split, tol, point)
    reports = errors.errors
    if errors.alive.any():
        with np.errstate(all="ignore"):
            kernel = _PointErrors(len(splits))
            eq = _equivalent_from_blocks(*counts, blocks, kernel)
            _record_unphysical(counts, blocks, eq, _scale(cm.matrix), errors)
            errors.merge(kernel)
            reports = _report_from_equivalent(eq, errors).reports()
    return _raise_first(reports)[0] if single else reports


def _record_unphysical(counts, blocks, eq: _Equivalents, scale: float, errors: _PointErrors):
    """Fail each point still alive whose matrix is not a physical state:
    up to local symplectics it is its core times the decoupled blocks of
    its sides of more than one mode, and each part must be positive definite
    with no ``_below_vacuum`` nu, a block at the matrix's ``scale``. A core
    that is not finite, which only an overflow makes, is left to the kernel."""
    first = blocks[0:4:2, :, 0, 0] - blocks[1:4:2, :, 0, 0]
    # an overflow leaves a nan nu_minus, which decides nothing: the kernel fails it
    single = ~(first > 0.0) | (eq.nus[0] <= 0.0) | _below_vacuum(eq.nus[0], scale)
    failed = (single & (counts > 1)).any(axis=0)
    live = np.flatnonzero(errors.alive & ~failed & np.isfinite(eq.core).all(axis=(1, 2)))
    cores, core_errors = eq.core[live], _PointErrors(len(live))
    # a core entry sums up to m or n entries: the larger scale bounds its rounding
    core_scale = np.fmax(np.abs(cores).max(axis=(1, 2)), scale)
    # L^T Omega L is at most the core's trace: past 2**1020, where it could overflow, no nu is
    # below the vacuum, so the factorization alone decides and the vacuum stands in for the core
    huge = np.flatnonzero(core_scale >= 2.0**1020)
    if len(huge):
        _cholesky_factors(cores[huge], _Mapped(core_errors, len(huge), huge.__getitem__))
        cores[huge] = np.eye(4)
    smallest = _symplectic_spectra(cores, core_errors)[:, -1]
    failed[live] = ~core_errors.alive | _below_vacuum(smallest, core_scale)
    errors.record(failed, lambda i: InvalidArgumentError(NOT_A_STATE))


# ---------------------------------------------------------------------------
# Constructive route.
# ---------------------------------------------------------------------------


def _split_blocks(stack: np.ndarray, m: int, n: int) -> np.ndarray:
    """alpha, eps, beta, zeta, gamma of the m | n split of each matrix of a
    stack, read from the first row of each block, shape (5, K, 2, 2); the
    eps or zeta of a block of one mode is zero."""

    def block(i, j):
        return stack[:, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]

    zero = np.zeros((len(stack), 2, 2))
    return np.array([block(0, 0), block(0, 1) if m > 1 else zero, block(m, m),
                     block(m, m + 1) if n > 1 else zero, block(0, m)])


def _pattern_blocks(stack: np.ndarray, m: int, n: int):
    """Pattern blocks of a stack of (m+n)-mode matrices, and how far each
    matrix is from the two-block pattern they define.

    Returns ``_split_blocks``, and each matrix's largest entry deviation
    from its pattern, shape (K,).
    """
    count, total = len(stack), m + n
    blocks = _split_blocks(stack, m, n)
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
    deviation = np.subtract(grid, target, out=target)
    return blocks, np.abs(deviation, out=deviation).max(axis=(1, 2, 3, 4))


def _pattern_tolerances(stack: np.ndarray, tol_pattern) -> np.ndarray:
    """The pattern tolerance of each matrix of a stack, shape (K,):
    ``tol_pattern``, a finite number >= 0, or by default ``TOL.PATTERN``
    scaled by max(1, the matrix's largest entry)."""
    _require_tolerance(tol_pattern, "pattern tolerance")
    if tol_pattern is None:
        return TOL.PATTERN * np.fmax(np.abs(stack).max(axis=(1, 2)), 1.0)
    return np.full(len(stack), float(tol_pattern))


def _pattern_check(stack: np.ndarray, m: int, n: int, tol_pattern, errors: _PointErrors):
    """Pattern blocks of a stack (as ``_pattern_blocks``) and the
    ``_pattern_tolerances`` of its matrices. A matrix farther than its
    tolerance from its pattern fails in ``errors``."""
    tol = _pattern_tolerances(stack, tol_pattern)
    blocks, worst = _pattern_blocks(stack, m, n)
    errors.record(
        worst > tol,
        lambda k: LocalizationError(
            f"input is not block-permutation invariant: pattern deviation {worst[k]:.3e} "
            f"exceeds tolerance {tol[k]:.3e}"
        ),
    )
    return blocks, tol


def _pattern_spread(matrix: np.ndarray) -> float:
    """How far a matrix of two or more modes is from the fully symmetric
    pattern: the largest entry of |G_ii - G_00| over its diagonal 2x2 mode
    blocks G_ii and of |G_ij - G_01| over all its other blocks.

    With this d, every split's pattern deviation, as ``_pattern_blocks``
    computes it, is below 4 d. Each block it compares is compared with
    G_00 or G_01, which differs from it by at most d as computed here, or
    with another diagonal block or another block off the diagonal. By the
    triangle inequality, and as each difference rounds once (unit
    roundoff u = 2**-53), such a deviation is at most 2 d (1 + u) / (1 - u).
    The lower-left cross blocks, which the split check skips, only make d
    larger.
    """
    modes = len(matrix) // 2
    # each pair of rows against G_01 tiled along it: whole rows, not 2-entry runs, per numpy loop
    spread = matrix.reshape(modes, 2, 2 * modes) - np.tile(matrix[0:2, 2:4], modes)
    grid, diagonal = matrix.reshape(modes, 2, modes, 2), np.arange(modes)
    spread.reshape(modes, 2, modes, 2)[diagonal, :, diagonal, :] = (
        grid[diagonal, :, diagonal, :] - grid[0, :, 0, :])
    return float(np.abs(spread, out=spread).max())


def _ndim(sizes) -> int:
    """``np.ndim`` of a block-size argument; a ragged nesting of sequences,
    of which numpy makes no array, is a sequence too."""
    try:
        return np.ndim(sizes)
    except ValueError:
        return 1


def _covered(modes: int, m, n):
    """(m, n) as ints, or the error of a split off the one block-size rule
    of ``localize`` and of a matrix's split: each size is an integer, which
    a slice index needs, and >= 1, and the two cover ``modes`` modes."""
    for size in (m, n):
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
            return InvalidArgumentError(f"block size must be an integer, got {size!r}")
    if m < 1 or n < 1:
        return InvalidArgumentError(f"block sizes must be >= 1, got ({m}, {n})")
    if m + n != modes:
        return InvalidArgumentError(f"split ({m}, {n}) does not cover the {modes}-mode input")
    return int(m), int(n)


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
    symmetric blocks of shape (B, 2, 2); block j fails in ``errors`` if it
    is not positive definite.

    s = (c / nu)^{-1/2}: symmetric with unit determinant, hence symplectic.
    With x = c / nu, x^{1/2} = (x + sqrt(det x) I2) / sqrt(tr x + 2 sqrt(det x))
    and its inverse is the adjugate over the determinant.
    """
    det = _dets(c, errors)
    x = c / np.sqrt(det)[..., None, None]
    det_x = _dets(x, errors)
    errors.record(
        (det <= 0.0) | (det_x <= 0.0) | (x[..., 0, 0] <= 0.0),
        lambda j: LocalizationError("single-mode covariance block is not positive definite"),
    )
    root = np.sqrt(det_x)
    w = (x + root[..., None, None] * np.eye(2)) / np.sqrt(
        x[..., 0, 0] + x[..., 1, 1] + 2.0 * root
    )[..., None, None]
    adjugate = np.stack([w[..., 1, 1], -w[..., 0, 1], -w[..., 1, 0], w[..., 0, 0]], axis=-1)
    return adjugate.reshape(w.shape) / _dets(w, errors)[..., None, None]


def _boundary_rotations(x: np.ndarray) -> np.ndarray:
    """Rotations (r1, r2) of each 2x2 block of a stack x, shape (K, 2, 2),
    with r1^T x r2 = diag(d1, d2), d1 >= |d2|, d1 >= 0, and r2[0, 0] >= 0,
    as the (K, 4, 4) stack of diag(r1, r2).

    In closed form, elementwise, so each block gets the bits it gets
    alone: x = h1 R(a1) + h2 R(a2) Z with Z = diag(1, -1), h1, h2 >= 0,
    where (cos a1, sin a1) lies along (x00 + x11, x10 - x01) and (cos a2,
    sin a2) along (x00 - x11, x10 + x01); a zero part leaves its angle
    free, and it is taken as 0. Then r1 = R(a1 + theta) and r2 = R(theta),
    theta = (a2 - a1) / 2 in (-pi/2, pi/2], give d1 = h1 + h2 and d2 = h1
    - h2. With (u, v) along (cos 2 theta, sin 2 theta) and w = |(u, v)|,
    (cos theta, sin theta) is the unit vector along (w + u, v), or along
    (|v|, w - u) with the sign of v where u < 0, which does not cancel. A
    non-finite block gives nan rotations.
    """
    a, b, c, d = x[:, 0, 0], x[:, 0, 1], x[:, 1, 0], x[:, 1, 1]
    # the directions of a1 and a2, each pair scaled to a larger magnitude
    # of 1, so that no square under- or overflows; a zero pair reads (1, 0)
    z = np.array([[a + d, c - b], [a - d, c + b]])
    scale = np.abs(z).max(axis=1)
    free = scale == 0.0
    z[:, 0][free], scale[free] = 1.0, 1.0
    z /= scale[:, None]
    (p, q), (r, s) = z
    # the direction of t = a2 - a1, of magnitude 1 to 2
    u, v = r * p + s * q, s * p - r * q
    w = np.sqrt(u * u + v * v)
    upper = u >= 0.0
    g = np.where(upper, w + u, np.abs(v))
    h = np.where(upper, v, np.copysign(w - u, v))
    norm = np.sqrt(g * g + h * h)
    ct, st = g / norm, h / norm
    norm = np.sqrt(p * p + q * q)
    cp, sp = (ct * p - st * q) / norm, (st * p + ct * q) / norm
    rot = np.zeros((len(x), 4, 4))
    rot[:, 0, 0] = rot[:, 1, 1] = cp
    rot[:, 1, 0], rot[:, 0, 1] = sp, -sp
    rot[:, 2, 2] = rot[:, 3, 3] = ct
    rot[:, 3, 2], rot[:, 2, 3] = st, -st
    return rot


def _group_slices(counts: list) -> list:
    """The slice of each group of a concatenation, the groups of
    ``counts`` items in order."""
    return [slice(end - count, end) for count, end in zip(counts, itertools.accumulate(counts))]


def _group_parts(errors: _PointErrors, slices: list) -> list:
    """A view of ``errors`` for the points of each group."""
    return [_Mapped(errors, part.stop - part.start, range(part.start, part.stop).__getitem__)
            for part in slices]


def _localize_groups(stacks: list, ms: list, ns: list, tol_pattern, errors: _PointErrors) -> list:
    """The ``localize`` columns of each group of checked stacks, the g-th
    of shape (K_g, 2(m_g+n_g), 2(m_g+n_g)), with ``errors`` the failures
    so far of all their matrices, group after group. The list gives up
    each stack once the group's stage 1 is made.

    A stage on whole matrices runs once per group, as stacked numpy calls:
    the pattern check, the dense congruences of stages 1 and 2 and the
    boundary update of stage 3. The mixing of a block of ``count`` modes
    onto its mode ``position`` is built once per call. A stage on 2x2
    blocks runs once for all groups: the normalizer of every diagonal
    block of every matrix, and the closed-form rotations of every boundary
    cross block. Each matrix meets the checks in the stage order of a call
    on its group alone.
    """
    if not stacks:
        return []
    # each array is dropped once it is spent: a grouped call holds the
    # stacks of every group at once
    slices = _group_slices([len(stack) for stack in stacks])
    parts = _group_parts(errors, slices)
    block_mixings = {key: _mode_mixing_symplectic(_householder_mixing(*key))
                     for key in {(m, m - 1) for m in ms} | {(n, 0) for n in ns}}
    tols, mixings, stage1, diagonals = [], [], [], []
    for g, (m, n, part) in enumerate(zip(ms, ns, parts)):
        stack, stacks[g] = stacks[g], None
        tols.append(_pattern_check(stack, m, n, tol_pattern, part)[1])
        total = m + n
        mixing = np.zeros((2 * total, 2 * total))
        mixing[: 2 * m, : 2 * m] = block_mixings[m, m - 1]
        mixing[2 * m :, 2 * m :] = block_mixings[n, 0]
        mixings.append(mixing)
        stage1.append(mixing.T @ stack @ mixing)
        # the (K, m+n, 2, 2) diagonal blocks, matrix after matrix
        grid = stage1[-1].reshape(len(stack), total, 2, total, 2)
        diagonals.append(grid.diagonal(axis1=1, axis2=3).transpose(0, 3, 1, 2).reshape(-1, 2, 2))
    blocks = np.concatenate(diagonals)
    block_slices = _group_slices([len(d) for d in diagonals])
    del diagonals

    def owner(j):
        """The matrix of diagonal block j of the concatenation: a group's
        blocks run matrix after matrix, m+n of them each."""
        g = next(g for g, part in enumerate(block_slices) if j < part.stop)
        return slices[g].start + (j - block_slices[g].start) // (ms[g] + ns[g])

    normalizers = _normalizers(0.5 * (blocks + blocks.swapaxes(1, 2)),
                               _Mapped(errors, len(blocks), owner))
    del blocks

    finals, locals_, crosses = [], [], []
    for g, (m, n) in enumerate(zip(ms, ns)):
        stage, stage1[g] = stage1[g], None
        count, total, modes = len(stage), m + n, np.arange(m + n)
        squeezers = np.zeros((count, total, 2, total, 2))
        squeezers[:, modes, :, modes, :] = (
            normalizers[block_slices[g]].reshape(count, total, 2, 2).swapaxes(0, 1))
        squeezers = squeezers.reshape(count, 2 * total, 2 * total)
        finals.append(squeezers.swapaxes(1, 2) @ stage @ squeezers)
        locals_.append(np.matmul(mixings[g], squeezers, out=stage))  # stage 1 is spent
        row, col = 2 * (m - 1), 2 * m
        crosses.append(finals[-1][:, row:col, col : col + 2])
    del stage, squeezers, mixings, normalizers

    cross = np.concatenate(crosses)
    del crosses
    rot = _boundary_rotations(cross)
    # stage 3 rotates the two boundary modes alone: their rows, then their
    # columns, of the stage-2 matrix in place, and their columns of the
    # local symplectic; the slice products round as the dense congruence
    # by the identity-padded rotation does. A matrix with a non-finite
    # cross block gets nan rotations and fails below (its cm_final is
    # non-finite)
    for final, local, m, group in zip(finals, locals_, ms, slices):
        r, boundary = rot[group], slice(2 * (m - 1), 2 * m + 2)
        final[:, boundary] = r.swapaxes(1, 2) @ final[:, boundary]
        final[:, :, boundary] = final[:, :, boundary] @ r
        local[:, :, boundary] = local[:, :, boundary] @ r
    del cross, rot, r
    return _skeleton_results(finals, locals_, ms, tols, errors)


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """The diagonals of a C-contiguous (K, S, S) stack, shape (K, S), as a
    writable view."""
    size = stack.shape[-1]
    return stack.reshape(len(stack), size * size)[:, :: size + 1]


# the skeleton of the boundary 4x4 block: its diagonal and the diagonal of
# its cross block
_BOUNDARY_SKELETON = (np.eye(4, dtype=bool) | np.eye(4, k=2, dtype=bool)
                      | np.eye(4, k=-2, dtype=bool))


def _skeleton_results(finals: list, locals_: list, ms: list, tols: list,
                      errors: _PointErrors) -> list:
    """The ``localize`` columns of each group of reduced matrices: the
    g-th stack of ``finals`` holds S^T sigma S, shape (K_g, 2(m_g+n_g),
    2(m_g+n_g)), and becomes the ``cm_final`` stack in place; ``locals_``
    holds the stacks of S, ``tols`` the residual tolerance of each matrix
    and ``errors`` the failures so far of all matrices, group after group.

    The skeleton is what the reduction leaves nonzero in exact arithmetic:
    the diagonal, and the diagonal cross block of the boundary modes m-1
    and m. ``residual`` is the largest entry off it; once that is checked,
    every entry off it is +0.0, so ``cm_final`` and ``cm_eq`` hold exact
    zeros, not rounding noise, there. ``cm_eq`` is the boundary block with
    the entries off the skeleton subtracted, so that a non-finite one
    stays non-finite; the boundary blocks of all groups get one covariance
    check, purity and delta pass. ``cm_final`` is built on its skeleton
    with the bits of the covariance check of the whole projected matrix:
    (d + d) / 2 of each diagonal entry d, and ``cm_eq`` on the boundary
    block. That check fails only where an entry off the skeleton (then
    the residual) or on the diagonal is not finite: the cross block is
    ``cm_eq``'s, checked before. A matrix meets the checks in this order:
    residual, ``cm_eq``, its purity, ``cm_final``.
    """
    slices = _group_slices([len(final) for final in finals])
    parts = _group_parts(errors, slices)
    residuals, diagonals = [], []
    projected = np.empty((errors.size, 4, 4))
    for final, m, tol, part, group in zip(finals, ms, tols, parts, slices):
        row, col = 2 * (m - 1), 2 * m
        block = final[:, row : col + 2, row : col + 2]
        np.subtract(block, np.where(_BOUNDARY_SKELETON, 0.0, block), out=projected[group])
        diagonal = _diagonal(final)
        diagonals.append((diagonal + diagonal) * 0.5)
        # what is left once the skeleton is zeroed is the entries off it;
        # cm_final is built anew below, so final takes their magnitudes
        diagonal[...] = 0.0
        block[:, _BOUNDARY_SKELETON] = 0.0
        residual = np.abs(final, out=final).max(axis=(1, 2))
        part.record(
            residual > tol,
            lambda k: LocalizationError(
                f"off-pattern residual {residual[k]:.3e} exceeds tolerance {tol[k]:.3e}"
            ),
        )
        residuals.append(residual)

    cm_eq = _symmetrized(projected, errors)
    del projected
    mu_eq = _purities(cm_eq, errors)
    delta_eq = _delta_invariants(cm_eq)
    columns = []
    for final, local, m, residual, d, part, group in zip(
        finals, locals_, ms, residuals, diagonals, parts, slices
    ):
        part.record(
            ~np.isfinite(residual) | ~np.isfinite(d).all(axis=1),
            lambda k: InvalidArgumentError("covariance matrix has non-finite entries"),
        )
        boundary = slice(2 * (m - 1), 2 * m + 2)
        final.fill(0.0)
        _diagonal(final)[...] = d
        final[:, boundary, boundary] = cm_eq[group]
        final.flags.writeable = False
        columns.append(LocalizationColumns(final, local, cm_eq[group], mu_eq[group],
                                           delta_eq[group], residual, errors.errors[group]))
    return columns


def localize(cm, m, n, tol_pattern: float | None = None):
    """Concentrate all cross-block correlations onto one pair of modes.

    The input must be an (m+n)-mode state invariant under mode permutations
    inside the first m and the last n modes (verified by pattern inspection
    within ``tol_pattern``, a finite number >= 0, default ``TOL.PATTERN``
    scaled by the largest entry; failing inputs are rejected, never
    projected).

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

    ``cm`` is one ``CovarianceMatrix``, whose result is returned and whose
    failure raises. Block sizes are integers.

    ``m`` and ``n`` may instead be equal-length sequences of block sizes:
    ``cm`` is then a sequence of as many stacks of matrices, the g-th a
    (K_g, 2(m_g+n_g), 2(m_g+n_g)) real array, and the result is the list of
    their ``LocalizationColumns``, each matrix's values or its error in
    place. Each stack gets the ``CovarianceMatrix`` check first, one call
    per stack, and a matrix that fails it keeps that error; each column
    entry has the bits of the result of the matrix's ``CovarianceMatrix``.
    The stages on 2x2 and 4x4 blocks run once for all the groups. One
    stack is a group of one: ``localize([stack], [m], [n])[0]``. Any other
    input is invalid.
    """
    if any(_ndim(size) for size in (m, n) if not isinstance(size, (int, np.integer))):
        return _localize_stacks(cm, m, n, tol_pattern)
    if not isinstance(cm, CovarianceMatrix):
        raise InvalidArgumentError(
            "localize takes a CovarianceMatrix and two block sizes, or a sequence of "
            f"(K, 2N, 2N) stacks and two sequences of block sizes, got {type(cm).__name__}")
    m, n = _raise_first([_covered(cm.modes, m, n)])[0]
    with np.errstate(all="ignore"):
        [columns] = _localize_groups([cm.matrix[None]], [m], [n], tol_pattern, _PointErrors(1))
    return _raise_first(columns.results())[0]


def _localize_stacks(stacks, ms, ns, tol_pattern) -> list:
    """The grouped form of ``localize``: each group's block sizes and stack
    are checked, then its matrices get the ``CovarianceMatrix`` check, one
    call per stack, before the kernel takes the checked stacks."""
    if _ndim(ms) != 1 or _ndim(ns) != 1 or not isinstance(stacks, Iterable):
        raise InvalidArgumentError(
            "grouped localize takes a sequence of stacks and two sequences of block sizes")
    stacks, ms, ns = list(stacks), list(ms), list(ns)
    if not len(stacks) == len(ms) == len(ns):
        raise InvalidArgumentError(f"grouped localize takes one m and one n per stack, got "
                                   f"{len(stacks)} stacks, {len(ms)} m and {len(ns)} n")
    _require_tolerance(tol_pattern, "pattern tolerance")
    for g, (stack, m, n) in enumerate(zip(stacks, ms, ns)):
        stacks[g] = _real_stack(stack)
        ms[g], ns[g] = _raise_first([_covered(stacks[g].shape[1] // 2, m, n)])[0]
    errors = _PointErrors(sum(map(len, stacks)))
    parts = _group_parts(errors, _group_slices(list(map(len, stacks))))
    with np.errstate(all="ignore"):
        checked = [_symmetrized(stack, part) for stack, part in zip(stacks, parts)]
        return _localize_groups(checked, ms, ns, tol_pattern, errors)


# ---------------------------------------------------------------------------
# Block entanglement of permutation-invariant states.
# ---------------------------------------------------------------------------


def _fs_split_batch(parents: list, index: np.ndarray, k: np.ndarray, rest: np.ndarray) -> BisymmetricBatch:
    """The k | rest splits of fully symmetric states, as one validated batch.

    Point i splits the first k[i] + rest[i] modes of parents[index[i]], an
    M-mode ``FullySymmetricSpec`` or the ``EntlocError`` its construction
    raised (any modes of a permutation-invariant state carry its pattern);
    ``index``, ``k`` and ``rest`` are (N,) int arrays. The split is the
    two-block spec with a = b, each block of more than one mode keeps (z1,
    z2), and every cross block is diag(z1, z2). A point fails with its
    parent's error, else with ``InvalidArgumentError`` if k is not an
    integer, k or rest is below 1 or k + rest exceeds M, else as
    ``BisymmetricSpec`` raises on its parameters.
    """
    errors = _PointErrors(len(index))
    failed = np.array([isinstance(parent, EntlocError) for parent in parents], dtype=bool)
    errors.record(failed[index], lambda i: parents[index[i]])
    params = np.array([(1, 1.0, 0.0, 0.0) if isinstance(p, EntlocError) else (p.modes, p.b, p.z1, p.z2)
                       for p in parents], dtype=float).reshape(-1, 4)[index]
    modes, (b, z1, z2) = params[:, 0].astype(np.int64), params[:, 1:].T
    out_of_range = (k < 1) | (rest < 1) | (k % 1 != 0) | (k + rest > modes)
    errors.record(
        out_of_range,
        lambda i: InvalidArgumentError(
            f"split {k[i]} | {rest[i]} out of range for a {modes[i]}-mode parent"),
    )
    # such a point reads 1 | 1, so that a k past int64 (an object array) is never converted
    k, rest = np.where(out_of_range, 1, k), np.where(out_of_range, 1, rest)
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
    return _fs_split_reports(spec, [k])[0]


def _fs_split_reports(spec: FullySymmetricSpec, ks) -> list:
    """The reports of the splits k | M-k of one spec for the k in ``ks``,
    from one batch; the first failing split raises."""
    ks = np.array(ks)  # int64, or objects for a k past int64
    batch = _fs_split_batch([spec], np.zeros(len(ks), dtype=np.int64), ks, spec.modes - ks)
    return _raise_first(equivalent_report(batch).reports())


def ole_scan(state) -> list[tuple[int, EntanglementReport]]:
    """(k, report) for every split size k = 1 .. M/2 of a
    permutation-invariant state, a ``FullySymmetricSpec`` or an assembled
    covariance matrix (any local basis); the first split that fails
    raises. The best split is ``max(scan, key=lambda item:
    item[1].log_negativity)``, which resolves ties to the smallest k; the
    maximum is expected at the balanced split, k = floor(M/2).

    A matrix's splits are one ``equivalent_report_from_cm`` batch: one
    bound over the matrix decides the pattern of every split of a fully
    symmetric matrix, and only a matrix past it gets a pattern check per
    split, so the scan of a fully symmetric matrix costs O(M^2), one pass
    over it, and not O(M^3)."""
    if not isinstance(state, (FullySymmetricSpec, CovarianceMatrix)):
        raise InvalidArgumentError(
            f"expected a symmetric spec or covariance matrix, got {type(state)!r}"
        )
    total = state.modes
    if total < 2:
        raise InvalidArgumentError("need at least two modes to form a bipartition")
    ks = range(1, total // 2 + 1)
    if isinstance(state, FullySymmetricSpec):
        reports = _fs_split_reports(state, ks)
    else:
        reports = _raise_first(equivalent_report_from_cm(state, ks, [total - k for k in ks]))
    return list(zip(ks, reports))

