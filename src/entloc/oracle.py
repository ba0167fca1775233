"""Brute-force references and the three-route cross-check suite.

The references evaluate definitions directly on dense matrices: mirror
reflections are applied entrywise and spectra come from a dense
factorization and then a real SVD of its x-p block (a matrix with no x-p
entry, as every standard-form state and its partial transposes are) or
a Hermitian eigensolver (any other), the kernel that
``symplectic_eigenvalues`` runs too. They deliberately avoid the
closed-form code paths they are used to check, and they are allowed to
be slow.

The cross-check suite (``run_oracle_suite``) is columnar from sampling
to the summary: ``SpecSampler`` screens a block of draws as one array
batch, the specs become one ``BisymmetricBatch`` for the invariant
route, each mode count m + n of it one checked stack for the dense
spectrum kernel, each (m, n) shape a slice of its mode count's stack and
one group of a single ``localize`` call, and the suite's report is its
columns (``SuiteReports``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, NumericalDomainError
from .states import BisymmetricBatch, BisymmetricSpec, bisymmetric_batch
from .symplectic import (
    TOL,
    CovarianceMatrix,
    _mirror_momenta,
    _PointErrors,
    _real_stack,
    _Rejections,
    _symmetrized,
    _symplectic_spectra,
    float_reprs,
)


def _log_negativities(nus: np.ndarray) -> list:
    """max(0, -sum of ln nu over the sub-unit nu) of each row of a (K, N)
    spectrum stack, or the error of a row that is not finite or holds a
    0.0, which has no logarithm.

    ``math.log`` runs on the sub-unit values of the other rows, in order.
    A row with one such value or none is its sum whatever the order, so
    those rows are summed as columns; a row with more is summed by
    Python's ``sum``, which compensates its rounding from Python 3.12 on.
    """
    finite = np.isfinite(nus).all(axis=1)
    loggable = finite & (nus > 0.0).all(axis=1)
    below = (nus < 1.0) & loggable[:, None]
    logs = np.zeros(nus.shape)
    logs[below] = list(map(math.log, nus[below].tolist()))
    totals = -logs.sum(axis=1)
    for k in np.flatnonzero(below.sum(axis=1) > 1).tolist():
        totals[k] = -sum(logs[k, below[k]].tolist())
    # the zeros share one float, as max(0.0, 0) gave them: the suite holds
    # these values to its end, and a float per zero raised its peak memory
    values = [0.0] * len(nus)
    positive = np.flatnonzero(totals > 0.0)
    for k, total in zip(positive.tolist(), totals[positive].tolist()):
        values[k] = total
    for k in np.flatnonzero(~loggable).tolist():
        values[k] = NumericalDomainError(
            "dense eigensolver returned non-finite spectrum" if not finite[k]
            else "dense spectrum holds a zero symplectic eigenvalue, which has no logarithm")
    return values


def oracle_pt_log_negativity(cm, part):
    """Logarithmic negativity straight from the definitions.

    Mirrors the momentum quadratures of ``part.side_b``, takes the dense
    spectrum of the reflected matrix, and sums -ln over the sub-unit
    symplectic eigenvalues. A reflected matrix with no Cholesky factor
    has no spectrum here and raises: one that is not positive definite,
    or a physical state squeezed so far that rounding makes it so.

    ``cm`` is one ``CovarianceMatrix``, whose value is returned and whose
    failure raises, or a (K, 2N, 2N) array, a stack of matrices, which
    gives a list holding each matrix's value or its error, in place. A
    stack gets the ``CovarianceMatrix`` check first, one call for all of
    it, so that each matrix has the value or the check's error of its
    ``CovarianceMatrix``; it is split by ``part`` as a whole and goes
    through the dense spectrum kernel as one stack. A split that does not
    cover the modes raises, and so does any other input.
    """
    if isinstance(cm, CovarianceMatrix):
        part._validate_modes(cm.modes)
        mirrored = _mirror_momenta(cm.matrix[None], part.side_b)
        [value] = _stack_log_negativities(mirrored, _PointErrors(1))
        if isinstance(value, NumericalDomainError):
            raise value
        return value
    if not isinstance(cm, np.ndarray):
        raise InvalidArgumentError("oracle_pt_log_negativity takes a CovarianceMatrix or a "
                                   f"(K, 2N, 2N) array, got {type(cm).__name__}")
    stack = _real_stack(cm)
    errors = _PointErrors(len(stack))
    stack = _symmetrized(stack, errors)
    if not errors.alive.all():  # a non-finite matrix would fail the whole factorization
        stack = np.where(errors.alive[:, None, None], stack, np.eye(stack.shape[1]))
    if not len(stack):  # whatever the split
        return []
    part._validate_modes(stack.shape[-1] // 2)
    return _stack_log_negativities(_mirror_momenta(stack, part.side_b), errors)


def _mirror_second_blocks(stack: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The partial transpose of each matrix k of a (K, 2N, 2N) stack over
    its own split, modes 0..m[k]-1 | the rest: the momenta of modes
    m[k].. mirrored, by a sign per row and column as ``_mirror_momenta``
    mirrors them, so each matrix gets the bits of its own split."""
    signs = np.ones((len(stack), stack.shape[-1]))
    signs[:, 1::2][np.arange(stack.shape[-1] // 2) >= m[:, None]] = -1.0
    return stack * (signs[:, :, None] * signs[:, None, :])


def _stack_log_negativities(mirrored: np.ndarray, errors: _PointErrors) -> list:
    """The oracle's value of each matrix of a checked (K, 2N, 2N) stack
    whose momenta are mirrored already, or in place the matrix's first
    error, in ``errors`` or found here."""
    values = _log_negativities(_symplectic_spectra(mirrored, errors))
    for k in np.flatnonzero(~errors.alive).tolist():
        values[k] = errors.errors[k]
    return values


# ---------------------------------------------------------------------------
# Randomized inputs. Parameters are drawn uniformly from fixed boxes and
# unphysical draws are rejected, so boundary cases stay in the ensemble;
# the sampler keeps rejection counts for reporting.
# ---------------------------------------------------------------------------


# the most attempts a counted draw draws and screens at once, so that its
# columns take less memory than the suite's matrix stacks: a block of 3350
# raised the peak memory of `verify --cases 1000` by 0.5 MB
_BLOCK = 1024


class SpecSampler:
    """Rejection sampler for two-block specs over fixed parameter boxes.

    Every draw, single or counted, draws a block of attempts as columns,
    screens them with one ``bisymmetric_batch`` call and builds only the
    specs it keeps.
    """

    def __init__(
        self,
        seed,
        b_box=(1.0, 3.0),
        corr_box=(-0.8, 0.8),
        cross_box=(-0.6, 0.6),
        max_block: int = 6,
        max_tries: int = 10_000,
    ):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed!r}")
        if max_block < 1:
            raise InvalidArgumentError(f"max_block must be at least 1, got {max_block}")
        self.rng = np.random.default_rng(seed)
        self.b_box = b_box
        self.corr_box = corr_box
        self.cross_box = cross_box
        self.max_block = max_block
        self.max_tries = max_tries
        self.attempts = 0
        self.accepted = 0

    @property
    def rejection_rate(self) -> float:
        if self.attempts == 0:
            return 0.0
        return 1.0 - self.accepted / self.attempts

    def bisymmetric(self, m: int | None = None, n: int | None = None, count: int | None = None):
        """One spec, or a list of ``count`` specs drawn one after another;
        a block size that is not given is drawn from 1..max_block."""
        return self._counted(m, n, 1)[0] if count is None else self._counted(m, n, count)

    def _counted(self, m, n, count):
        """``count`` two-block specs, drawn a block of attempts at a time.

        A block draws its (2, size) block sizes with one
        ``Generator.integers`` call, a given size overwriting its row, and
        its (8, size) parameters with one ``Generator.random`` call scaled
        to their boxes; a block of one mode has no correlations, so its
        e1, e2 or z1, z2 are 0.0. One ``bisymmetric_batch`` call screens
        the block, rejecting exactly what the constructor rejects. Its
        decisions are then taken in order: an accept resets the tries, and
        ``max_tries`` rejections in a row fail. The attempts after the last
        one taken are dropped, and only the accepted ones are built as
        specs. A block holds as many attempts as the acceptance rate seen
        so far says are needed, the first guessing 0.3 (about 0.32 for the
        default boxes), and at most ``max_tries`` and ``_BLOCK``.
        """
        boxes = np.array([self.b_box, self.corr_box, self.corr_box, self.b_box,
                          self.corr_box, self.corr_box, self.cross_box, self.cross_box])
        lows, scales = boxes[:, :1], boxes[:, 1:] - boxes[:, :1]
        specs, tries, rate = [], self.max_tries, 0.3
        while len(specs) < count and tries > 0:
            needed = count - len(specs)
            size = min(self.max_tries, _BLOCK, math.ceil(needed / rate) + 16)
            sizes = self.rng.integers(1, self.max_block + 1, size=(2, size))
            if m is not None:
                sizes[0] = m
            if n is not None:
                sizes[1] = n
            params = lows + scales * self.rng.random((8, size))
            params[1:3, sizes[0] == 1] = 0.0
            params[4:6, sizes[1] == 1] = 0.0
            screen = bisymmetric_batch(*sizes, *params, errors=_Rejections(size))
            hits, last = [], -1
            for hit in np.flatnonzero(screen.errors.alive).tolist():
                if hit - last > tries or len(hits) == needed:
                    break
                hits.append(hit)
                last, tries = hit, self.max_tries
            used = last + 1 if len(hits) == needed else min(size, last + 1 + tries)
            tries -= used - last - 1
            self.attempts += used
            rows = zip(*sizes[:, hits].tolist(), params[:, hits].T.tolist())
            specs.extend(BisymmetricSpec(mm, nn, *rest) for mm, nn, rest in rows)
            rate = max(len(hits), 1) / used
        self.accepted += len(specs)
        if len(specs) < count:
            raise RuntimeError("rejection sampling failed to produce a physical spec")
        return specs


# ---------------------------------------------------------------------------
# Comparison reports.
# ---------------------------------------------------------------------------


def _compared(closed_form, brute_force):
    """(abs_diff, rel_diff, passed) of each pair of values, as arrays: the
    relative difference is taken against the larger magnitude, 0.0 where
    both are zero, and a pair passes within either tolerance."""
    closed_form, brute_force = np.asarray(closed_form), np.asarray(brute_force)
    with np.errstate(all="ignore"):
        abs_diff = abs(closed_form - brute_force)
        first, second = abs(closed_form), abs(brute_force)
        # Python's max(first, second), nan included: second only if larger
        denom = np.where(second > first, second, first)
        rel_diff = np.where(denom > 0.0, abs_diff / denom, 0.0)
    return abs_diff, rel_diff, (abs_diff <= TOL.ROUTE_ABS) | (rel_diff <= TOL.ROUTE_REL)


# the route pairs of each case, in report order: routes a, b, c are the
# invariant, the constructive and the brute-force one
ROUTE_PAIRS = (("invariant_vs_brute", 0, 2), ("constructive_vs_brute", 1, 2),
               ("invariant_vs_constructive", 0, 1))


class SuiteReports:
    """The comparisons of a suite run, held as columns.

    ``shapes`` holds each case's block sizes (m, n); ``closed_form``,
    ``brute_force``, ``abs_diff``, ``rel_diff`` and ``passed`` are arrays
    with one entry per comparison, the ``ROUTE_PAIRS`` of case 0, then of case
    1, and so on. Its length is the number of comparisons.
    """

    def __init__(self, shapes, closed_form, brute_force, abs_diff, rel_diff, passed):
        self.shapes = shapes
        self.closed_form, self.brute_force = closed_form, brute_force
        self.abs_diff, self.rel_diff, self.passed = abs_diff, rel_diff, passed

    def __len__(self) -> int:
        return len(self.passed)

    def quantity(self, index: int) -> str:
        """The label of comparison ``index``: its case, shape and route pair."""
        case, pair = divmod(index, len(ROUTE_PAIRS))
        m, n = self.shapes[case]
        return f"case{case:04d}_m{m}n{n}_{ROUTE_PAIRS[pair][0]}"


def reports_to_csv_text(reports: SuiteReports) -> str:
    """The per-comparison CSV, one row per comparison; each distinct value
    of a number column is formatted once."""
    texts = [float_reprs(reports.closed_form, "%.17g"), float_reprs(reports.brute_force, "%.17g"),
             float_reprs(reports.abs_diff, "%.6g"), float_reprs(reports.rel_diff, "%.6g")]
    flags = ["true" if ok else "false" for ok in reports.passed.tolist()]
    quantities = map(reports.quantity, range(len(reports)))
    rows = map(",".join, zip(quantities, *(text.tolist() for text in texts), flags))
    header = "quantity,closed_form,brute_force,abs_diff,rel_diff,pass"
    return "\n".join([header, *rows]) + "\n"


def summarize_reports(reports: SuiteReports, seed) -> dict:
    return {
        "cases": len(reports.shapes),
        "comparisons": len(reports),
        "passes": int(np.count_nonzero(reports.passed)),
        "worst_rel_diff": max(reports.rel_diff.tolist(), default=0.0),
        "seed": seed,
    }


def _place(results, cases, column, errors):
    """Each case's result of a route: a value into ``column`` at the case's
    index, an error into ``errors`` under it."""
    for case, result in zip(cases, results):
        if isinstance(result, Exception):
            errors[case] = result
        else:
            column[case] = result


def run_oracle_suite(cases: int = 500, seed: int = 4242):
    """Cross-check the three logarithmic-negativity routes on random specs.

    For each sampled two-block spec the value is computed (a) from the
    equivalent-state invariants, (b) from the constructive reduction of the
    assembled matrix, and (c) by the brute-force reflected-spectrum route,
    and the pairwise comparisons are reported.

    The specs are stacked into one ``BisymmetricBatch``, and nothing after
    that is built per case. (a) runs on the batch, read from its
    ``ReportColumns``. The cases are ordered by mode count m + n, then
    by m, so that each block shape (m, n) is a contiguous run. The batch
    is taken per mode count and assembled as one checked stack, which
    (c) mirrors at each matrix's own split and hands to the oracle's
    spectrum kernel without the covariance check that ``bisymmetric_cm``
    has just made. The reduction takes the slice of each shape, a view
    of its mode count's stack, in one grouped ``localize`` call and is
    read from the ``LocalizationColumns`` of each shape; the reduced
    two-mode matrices of all shapes are concatenated into one stack for
    the brute force of (b).
    The values and comparisons are kept as columns and the reports are a
    ``SuiteReports``. The first failing case in case order raises its
    first error, taking the routes in the order a, b, c.
    """
    from .entanglement import ModeBipartition
    from .localization import equivalent_report, localize
    from .states import bisymmetric_cm

    if cases < 0:
        raise InvalidArgumentError(f"cases must be non-negative, got {cases}")
    sampler = SpecSampler(seed)
    batch = BisymmetricBatch.of(sampler.bisymmetric(count=cases))
    # each route's value per case, and its errors by case
    values = [[0.0] * cases for _ in range(3)]
    errors = ({}, {}, {})
    invariant = equivalent_report(batch)
    values[0] = invariant.log_negativity.tolist()
    errors[0].update((case, e) for case, e in enumerate(invariant.errors) if e is not None)
    # the cases by mode count, then m, each in case order: a shape is a
    # contiguous slice of its mode count's stack
    order = np.lexsort((batch.m, batch.m + batch.n))
    m, total = batch.m[order], (batch.m + batch.n)[order]
    stacks, groups = [], []  # each shape's slice of its mode count's stack, and its cases
    for size in np.split(np.arange(cases), np.flatnonzero(np.diff(total)) + 1) if cases else []:
        indices = order[size]
        stack = bisymmetric_cm(batch.take(indices))
        brute = _stack_log_negativities(_mirror_second_blocks(stack, m[size]),
                                        _PointErrors(len(size)))
        _place(brute, indices.tolist(), values[2], errors[2])
        bounds = [0, *(np.flatnonzero(np.diff(m[size])) + 1).tolist(), len(size)]
        stacks += [stack[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        groups += [indices[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    firsts = [group[0] for group in groups]
    grouped = localize(stacks, batch.m[firsts].tolist(), batch.n[firsts].tolist())
    del stacks  # the stacks, then the columns, are dropped once read
    reduced, reduced_cases = [np.empty((0, 4, 4))], [np.empty(0, dtype=np.int64)]
    for indices, columns in zip(groups, grouped):
        errors[1].update((case, e) for case, e in zip(indices.tolist(), columns.errors) if e is not None)
        alive = np.array([error is None for error in columns.errors], dtype=bool)
        reduced.append(columns.cm_eq[alive])
        reduced_cases.append(indices[alive])
    del grouped
    two_mode_split = ModeBipartition((0,), (1,))
    _place(oracle_pt_log_negativity(np.concatenate(reduced), two_mode_split),
           np.concatenate(reduced_cases).tolist(), values[1], errors[1])
    failed = [min(route) for route in errors if route]
    if failed:
        case = min(failed)
        raise next(route[case] for route in errors if case in route)

    values = np.array(values)
    closed_form = values[[first for _, first, _ in ROUTE_PAIRS]].T.ravel()
    brute_force = values[[second for _, _, second in ROUTE_PAIRS]].T.ravel()
    reports = SuiteReports(list(zip(batch.m.tolist(), batch.n.tolist())), closed_form, brute_force,
                           *_compared(closed_form, brute_force))
    return reports, summarize_reports(reports, seed), sampler.rejection_rate
