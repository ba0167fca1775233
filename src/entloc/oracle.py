"""Brute-force references and the three-route cross-check suite.

The references evaluate definitions directly on dense matrices: mirror
reflections are applied entrywise and spectra come from a general dense
eigensolver. They deliberately avoid the closed-form code paths they are
used to check, and they are allowed to be slow.

``oracle_pt_log_negativity`` takes a sequence of equal-size matrices as
one stack: one mirror, Omega @ sigma as a signed row swap (the bits of
the matmul), one stacked ``np.linalg.eigvals`` call (the same bits per
matrix as a call on it alone), then the finite test and the -sum of
``math.log`` over the sub-unit values as columns. The cross-check suite
is columnar from sampling to the summary. ``SpecSampler`` has one draw
path: it reads its generator as raw PCG64 words (``_RawStream``), from
which it replays the generator's bounded integers and uniform doubles
bit for bit, and draws a single spec as a counted draw of one. A counted
draw goes a block of attempts at a time: one loop over local variables
walks the block's attempts through the words, the block is decoded as
columns and screened by one array check, its decisions are taken in
order, the stream is cut at the last attempt single draws would have
made, and only the accepted attempts are built as specs. The invariant
route runs as one batch. Each (m, n) shape is assembled, checked,
reduced and brute-forced as one stack, and all reduced two-mode matrices
go through the oracle as one stack.

The report of a suite run is its columns (``SuiteReports``): each case's
block sizes, and the closed-form value, brute-force value, absolute and
relative difference and pass flag of every comparison, three per case in
``ROUTE_PAIRS`` order. The per-comparison CSV and the summary are
formatted from those columns; a comparison's label is made from its
case's block sizes when the CSV is written.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, NumericalDomainError
from .states import BisymmetricBatch, BisymmetricSpec, bisymmetric_batch
from .symplectic import CovarianceMatrix, _Rejections, float_reprs

REL_TOL = 1e-7
ABS_TOL = 1e-9


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


def _dense_symplectic_spectrum(matrix: np.ndarray) -> np.ndarray:
    """All paired |Im eigenvalue| of Omega @ matrix, descending, for one
    matrix or along the last axis of a stack of them."""
    eigenvalues = np.linalg.eigvals(_omega_times(matrix))
    magnitudes = np.sort(np.abs(eigenvalues.imag), axis=-1)[..., ::-1]
    return 0.5 * (magnitudes[..., 0::2] + magnitudes[..., 1::2])


def _mirror_momenta(matrix: np.ndarray, flip_modes) -> np.ndarray:
    """``matrix`` with the momenta of ``flip_modes`` mirrored, in place."""
    signs = np.ones(matrix.shape[-1])
    for k in flip_modes:
        signs[2 * k + 1] = -1.0
    matrix *= np.outer(signs, signs)
    return matrix


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
    symplectic eigenvalues.

    ``cm`` is one covariance matrix, whose failure raises, or a sequence of
    matrices of one size, all split by ``part``, which goes through one
    stacked eigensolver call and gives a list holding each matrix's value
    or its error, in place. A split that does not cover the modes raises.
    """
    single = isinstance(cm, CovarianceMatrix)
    cms = [cm] if single else list(cm)
    if not cms:
        return []
    try:
        stack = np.array([c.matrix for c in cms])
    except ValueError:  # square matrices of more than one size
        shapes = sorted({c.matrix.shape for c in cms})
        raise InvalidArgumentError(f"matrices of one size required, got shapes {shapes}") from None
    part.validate_for(cms[0])
    values = _log_negativities(_dense_symplectic_spectrum(_mirror_momenta(stack, part.side_b)))
    if single and isinstance(values[0], NumericalDomainError):
        raise values[0]
    return values[0] if single else values


# ---------------------------------------------------------------------------
# Randomized inputs. Parameters are drawn uniformly from fixed boxes and
# unphysical draws are rejected, so boundary cases stay in the ensemble;
# the sampler keeps rejection counts for reporting.
# ---------------------------------------------------------------------------


_HALF_MASK = 0xFFFFFFFF
# ``Generator.random()`` of a word is its top 53 bits, (word >> 11), times this
_WORD_UNIT = 1.0 / 9007199254740992.0
_NO_WORDS = np.empty(0, dtype=np.uint64)
# the most attempts a counted draw decodes and screens at once, so that its
# words and columns take less memory than the suite's matrix stacks: a
# block of 3350 raised the peak memory of `verify --cases 1000` by 0.5 MB
_BLOCK = 1024


class _RawStream:
    """The draws of a PCG64 ``Generator``, replayed from its raw words.

    numpy's ``Generator.random()`` is the top 53 bits of one 64-bit word,
    and ``Generator.integers(lo, hi)`` for hi - lo < 2**32 is Lemire's
    bounded method (Lemire, ACM TOMACS 2019) on 32-bit halves: a word
    gives its low half first and keeps its high half for the next 32-bit
    draw, across calls too. The stream reads words ahead into ``words``
    (``reserve``); a counted draw consumes them there, moving ``pos`` and
    ``half`` over ``words`` with Lemire's arithmetic inlined
    (``SpecSampler._attempt_columns``). Every word read stays in
    ``words``, consumed or not, until ``drop``, so that a caller can go
    back to an earlier position. Closing the stream rewinds the generator
    over the words held and not consumed and restores the kept half, so
    the generator is where the calls would have left it.
    """

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise TypeError(f"the raw-word replay needs PCG64, got {type(bitgen).__name__}")
        state = bitgen.state
        self._bitgen = bitgen
        self.half = self._kept = state["uinteger"] if state["has_uint32"] else None
        self.words = _NO_WORDS
        self.pos = 0  # index in ``words`` of the first unconsumed word

    def __enter__(self) -> "_RawStream":
        return self

    def __exit__(self, *exc_info) -> None:
        unread = len(self.words) - self.pos
        if unread:  # advance also empties the generator's kept half
            self._bitgen.advance(-unread)
            self._kept = None
        if self.half != self._kept:
            state = self._bitgen.state
            state["has_uint32"], state["uinteger"] = int(self.half is not None), self.half or 0
            self._bitgen.state = state

    def reserve(self, count: int) -> None:
        """Read words until ``count`` unconsumed ones are held."""
        short = self.pos + count - len(self.words)
        if short > 0:
            fresh = self._bitgen.random_raw(short)
            self.words = np.concatenate((self.words, fresh)) if len(self.words) else fresh

    def drop(self) -> None:
        """Forget the consumed words."""
        self.words, self.pos = self.words[self.pos:], 0


class SpecSampler:
    """Rejection sampler for two-block specs over fixed parameter boxes.

    Every draw, single or counted, reads the generator through a
    ``_RawStream``, decodes a block of attempts as columns, screens them
    with one ``bisymmetric_batch`` call and builds only the specs it keeps.
    The specs, counters and generator state are those of one
    ``Generator.integers`` call per drawn block size and one
    ``Generator.uniform`` call per drawn parameter, attempt after attempt.
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
        if max_block > _HALF_MASK:  # the replay draws spans below 2**32
            raise InvalidArgumentError(f"max_block must be below 2**32, got {max_block}")
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
        """``count`` two-block specs: the specs, attempts and stream of
        ``count`` single draws.

        A block of attempts is decoded as columns (``_attempt_columns``)
        and screened by one ``bisymmetric_batch`` call, which rejects
        exactly what the constructor rejects. Its decisions are then taken
        in order, as single draws take them: an accept resets the tries,
        and ``max_tries`` rejections in a row fail. The stream goes back to
        the end of the last attempt single draws would have made, and only
        the accepted rows are built as specs. A block holds as many
        attempts as the acceptance rate seen so far says are needed, the
        first guessing 0.3 (about 0.32 for the default boxes), and at most
        ``max_tries`` and ``_BLOCK``.
        """
        layout = self._two_block_layout()
        specs, tries, rate = [], self.max_tries, 0.3
        with _RawStream(self.rng) as stream:
            while len(specs) < count and tries > 0:
                needed = count - len(specs)
                size = min(self.max_tries, _BLOCK, math.ceil(needed / rate) + 16)
                sizes, params, ends, kept = self._attempt_columns(stream, m, n, size, layout)
                screen = bisymmetric_batch(*sizes, *params, errors=_Rejections(size))
                hits, last = [], -1
                for hit in np.flatnonzero(screen.errors.alive).tolist():
                    if hit - last > tries or len(hits) == needed:
                        break
                    hits.append(hit)
                    last, tries = hit, self.max_tries
                used = last + 1 if len(hits) == needed else min(size, last + 1 + tries)
                tries -= used - last - 1
                stream.pos, stream.half = int(ends[used - 1]), kept[used - 1]
                self.attempts += used
                rows = zip(*sizes[:, hits].tolist(), params[:, hits].T.tolist())
                specs.extend(BisymmetricSpec(mm, nn, *rest) for mm, nn, rest in rows)
                rate = max(len(hits), 1) / used
        self.accepted += len(specs)
        if len(specs) < count:
            raise RuntimeError("rejection sampling failed to produce a physical spec")
        return specs

    def _two_block_layout(self):
        """The words of a two-block attempt, by its kind 2 (m > 1) + (n > 1):
        how many, and for each of the eight parameters its word (-1 for a
        None box), its box's lo and its hi - lo."""
        corr, cross = (None, self.corr_box), (self.cross_box,) * 2
        kinds = [(self.b_box, first, first, self.b_box, second, second) + cross
                 for first in corr for second in corr]
        drawn = np.array([[box is not None for box in boxes] for boxes in kinds])
        words = np.where(drawn, np.cumsum(drawn, axis=1) - 1, -1)
        lows = [[box[0] if box else 0.0 for box in boxes] for boxes in kinds]
        scales = [[box[1] - box[0] if box else 0.0 for box in boxes] for boxes in kinds]
        return drawn.sum(axis=1).tolist(), words, np.array(lows), np.array(scales)

    def _attempt_columns(self, stream, m, n, size, layout):
        """``size`` two-block attempts from the stream: the (2, size) block
        sizes, the (8, size) parameters, and the stream's position and kept
        half after each attempt.

        One loop over local variables walks the attempts: it draws each
        block size that is not given by Lemire's method on the stream's
        halves, one ``Generator.integers`` call's arithmetic inlined, and steps
        over the words of the attempt's parameters, reading more words
        only when Lemire rejections have used up those held. The
        parameters are then decoded from their words as arrays, lo +
        (hi - lo) u per box and 0.0 for a None box, the values of one
        ``Generator.uniform(lo, hi)`` call per drawn box.
        """
        widths, words, lows, scales = layout
        stream.drop()
        stream.reserve(size * (2 + max(widths)))
        held, pos, half = memoryview(stream.words), stream.pos, stream.half
        span, mask = self.max_block, _HALF_MASK
        threshold = (mask + 1 - span) % span
        # a span of one draws nothing, as Generator.integers(1, 2) does
        draw_m, draw_n = m is None and span > 1, n is None and span > 1
        mm, nn = 1 if m is None else m, 1 if n is None else n
        ms, ns, starts, kept = [], [], [], []
        # the two draws are written out: a loop over (m, n) made the walk 10-20% slower
        for _ in range(size):
            if draw_m:
                while True:
                    if half is None:
                        if pos >= len(held):
                            held = _more_words(stream, pos, size)
                        word = held[pos]
                        pos += 1
                        low, half = word & mask, word >> 32
                    else:
                        low, half = half, None
                    product = low * span
                    if product & mask >= threshold:
                        break
                mm = 1 + (product >> 32)
            if draw_n:
                while True:
                    if half is None:
                        if pos >= len(held):
                            held = _more_words(stream, pos, size)
                        word = held[pos]
                        pos += 1
                        low, half = word & mask, word >> 32
                    else:
                        low, half = half, None
                    product = low * span
                    if product & mask >= threshold:
                        break
                nn = 1 + (product >> 32)
            ms.append(mm)
            ns.append(nn)
            starts.append(pos)
            kept.append(half)
            pos += widths[2 * (mm > 1) + (nn > 1)]
        stream.pos = pos
        stream.reserve(0)  # the parameter words of the last attempts
        sizes = np.array((ms, ns), dtype=np.int64)
        kind = 2 * (sizes[0] > 1) + (sizes[1] > 1)
        starts = np.array(starts)
        word = words[kind]
        u = (stream.words[starts[:, None] + np.maximum(word, 0)] >> 11) * _WORD_UNIT
        params = np.where(word >= 0, lows[kind] + scales[kind] * u, 0.0)
        return sizes, params.T, starts + np.array(widths)[kind], kept


def _more_words(stream, pos, count):
    """A view of the stream's words after reading ``count`` words past
    ``pos``, for a walk whose Lemire rejections used up the words held."""
    stream.pos = pos
    stream.reserve(count)
    return memoryview(stream.words)


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
    return abs_diff, rel_diff, (abs_diff <= ABS_TOL) | (rel_diff <= REL_TOL)


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


def run_oracle_suite(cases: int = 500, seed: int = 4242, max_block: int = 6):
    """Cross-check the three logarithmic-negativity routes on random specs.

    For each sampled two-block spec the value is computed (a) from the
    equivalent-state invariants, (b) from the constructive reduction of the
    assembled matrix, and (c) by the brute-force reflected-spectrum route,
    and the pairwise comparisons are reported.

    (a) runs as one batch, read from its ``ReportColumns``, the reduction
    and (c) as one stack per block shape (m, n), and the brute force of (b)
    as one stack of all reduced two-mode matrices. The values and
    comparisons are kept as columns and the reports are a
    ``SuiteReports``. The first failing case in case order raises its
    first error, taking the routes in the order a, b, c.
    """
    from .entanglement import ModeBipartition
    from .localization import equivalent_report, localize
    from .states import bisymmetric_cm

    if cases < 0:
        raise InvalidArgumentError(f"cases must be non-negative, got {cases}")
    sampler = SpecSampler(seed, max_block=max_block)
    specs = sampler.bisymmetric(count=cases)
    # each route's value per case, and its errors by case
    values = [[0.0] * cases for _ in range(3)]
    errors = ({}, {}, {})
    invariant = equivalent_report(BisymmetricBatch.of(specs))
    values[0] = invariant.log_negativity.tolist()
    errors[0].update((case, e) for case, e in enumerate(invariant.errors) if e is not None)
    shapes: dict[tuple[int, int], list[int]] = {}
    for index, spec in enumerate(specs):
        shapes.setdefault((spec.m, spec.n), []).append(index)
    reduced, reduced_cases = [], []
    for (m, n), indices in shapes.items():
        cms = bisymmetric_cm([specs[i] for i in indices])
        for case, loc in zip(indices, localize(cms, m, n)):
            if isinstance(loc, Exception):
                errors[1][case] = loc
            else:
                reduced.append(loc.equivalent.cm_eq)
                reduced_cases.append(case)
        part = ModeBipartition(tuple(range(m)), tuple(range(m, m + n)))
        _place(oracle_pt_log_negativity(cms, part), indices, values[2], errors[2])
    two_mode_split = ModeBipartition((0,), (1,))
    _place(oracle_pt_log_negativity(reduced, two_mode_split), reduced_cases, values[1], errors[1])
    failed = [min(route) for route in errors if route]
    if failed:
        case = min(failed)
        raise next(route[case] for route in errors if case in route)

    values = np.array(values)
    closed_form = values[[first for _, first, _ in ROUTE_PAIRS]].T.ravel()
    brute_force = values[[second for _, _, second in ROUTE_PAIRS]].T.ravel()
    reports = SuiteReports([(spec.m, spec.n) for spec in specs], closed_form, brute_force,
                           *_compared(closed_form, brute_force))
    return reports, summarize_reports(reports, seed), sampler.rejection_rate
