"""Partial transposition, separability decisions and entanglement measures.

The separability test used throughout is positivity of the partial
transpose, which is decisive for two-mode states, 1 x n splits, and the
two-block states handled by the localization routines; for other splits
the separable flag is left undecided (None).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, NumericalDomainError
from .states import BisymmetricSpec, _pattern_factors
from .symplectic import (
    TOL_PHYS,
    CovarianceMatrix,
    SymplecticSpectrum,
    _elementwise,
    _minus_plus_pair,
    _PointErrors,
    _scalar_batch,
    _squares,
    is_bona_fide,
    symplectic_eigenvalues,
    two_mode_invariants,
)

# PT eigenvalues this close above 1 are treated as exactly separable
# boundary values before any logarithm.
SEPARABLE_CLAMP = 1e-10
# Relative tolerance on the two local determinants of a two-mode state
# under which it counts as symmetric (and gets the closed-form EoF).
SYMMETRIC_TOL = 1e-8


@dataclass(frozen=True)
class ModeBipartition:
    """An ordered split of the modes of a covariance matrix into two sides."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self):
        side_a = tuple(int(i) for i in self.side_a)
        side_b = tuple(int(i) for i in self.side_b)
        object.__setattr__(self, "side_a", side_a)
        object.__setattr__(self, "side_b", side_b)
        if not side_a or not side_b:
            raise InvalidArgumentError("both sides of a bipartition must be nonempty")
        overlap = set(side_a) & set(side_b)
        if overlap:
            raise InvalidArgumentError(f"bipartition sides overlap on modes {sorted(overlap)}")
        if len(set(side_a)) != len(side_a) or len(set(side_b)) != len(side_b):
            raise InvalidArgumentError("bipartition sides contain duplicate modes")

    @classmethod
    def contiguous(cls, m: int, n: int) -> "ModeBipartition":
        """First m modes against the following n modes."""
        return cls(tuple(range(m)), tuple(range(m, m + n)))

    def validate_for(self, cm: CovarianceMatrix) -> None:
        covered = set(self.side_a) | set(self.side_b)
        expected = set(range(cm.modes))
        if covered != expected:
            raise InvalidArgumentError(
                f"bipartition covers modes {sorted(covered)}, expected {sorted(expected)}"
            )


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement figures for one declared bipartition.

    ``eof`` is present only when the state (or its equivalent two-mode
    reduction) is symmetric; ``separable`` is None when positivity of the
    partial transpose is not known to be decisive for the state class.
    """

    nu_tilde_min: float
    log_negativity: float
    negativity: float
    eof: float | None
    separable: bool | None

    def to_json_dict(self) -> dict:
        return {
            "nu_tilde_min": self.nu_tilde_min,
            "log_negativity": self.log_negativity,
            "negativity": self.negativity,
            "eof": self.eof,
            "separable": self.separable,
        }


def partial_transpose(cm: CovarianceMatrix, part: ModeBipartition) -> CovarianceMatrix:
    """Mirror the momentum quadrature of every mode on side_b.

    The result is symmetric but generally not physical; its symplectic
    spectrum does not depend on which side is transposed.
    """
    part.validate_for(cm)
    signs = np.ones(2 * cm.modes)
    for k in part.side_b:
        signs[2 * k + 1] = -1.0
    return CovarianceMatrix(cm.matrix * np.outer(signs, signs))


def pt_spectrum(cm: CovarianceMatrix, part: ModeBipartition) -> SymplecticSpectrum:
    """Symplectic spectrum of the partially transposed matrix."""
    return symplectic_eigenvalues(partial_transpose(cm, part))


def _pt_nu_tilde_pair(det_a, det_b, delta, det, errors: _PointErrors):
    """(nu~_minus, nu~_plus) of two-mode states from their invariants.

    Transposition flips the sign of det C in Delta = det A + det B + 2 det C
    and keeps det sigma, so 2 nu~^2 = Delta~ -/+ sqrt(Delta~^2 - 4 det sigma)
    with Delta~ = 2 det A + 2 det B - Delta.
    """
    return _minus_plus_pair(2.0 * det_a + 2.0 * det_b - delta, det, errors)


def pt_two_mode_nu_tilde(cm: CovarianceMatrix) -> tuple[float, float]:
    """Closed-form PT eigenvalues of a two-mode state from its invariants."""
    inv = two_mode_invariants(cm)
    return _scalar_batch(
        _pt_nu_tilde_pair, inv.det_block_a, inv.det_block_b, inv.delta, inv.det_total
    )


def _clamp_boundary(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    boundary = (out > 1.0) & (out <= 1.0 + SEPARABLE_CLAMP)
    out[boundary] = 1.0
    return out


def eof_symmetric(nu_tilde: float) -> float:
    """Entanglement of formation of a symmetric two-mode state.

    Closed form max(0, h(nu_tilde)) for nu_tilde < 1 and 0 from 1 on, with

        h(x) = (1+x)^2/(4x) ln((1+x)^2/(4x)) - (1-x)^2/(4x) ln((1-x)^2/(4x)),

    a strictly decreasing function on (0, 1] with h(1) = 0. h(x) = h(1/x),
    so h itself would give a separable state (nu_tilde > 1) an EoF.
    """
    return _scalar_batch(lambda nu, errors: (_eof_columns(nu, errors),), nu_tilde)[0]


def _eof_columns(nu: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """:func:`eof_symmetric` of each value, with the C library's pow and
    log per value, so each gets the bits of the closed form evaluated on
    Python floats. A value that is not positive (or nan) fails with an
    InvalidArgumentError, one whose h overflows with a
    NumericalDomainError."""
    positive = nu > 0.0
    errors.record(
        ~positive,
        lambda j: InvalidArgumentError(f"PT eigenvalue must be positive, got {float(nu[j])}"),
    )
    entangled = positive & (nu < 1.0)
    x = np.where(entangled, nu, 0.5)
    # rows plus, minus; minus > 0 on (0, 1), where 1 - x >= 2**-53
    plus_minus = _squares(np.array([1.0 + x, 1.0 - x]), errors) / (4.0 * x)
    terms = plus_minus * _elementwise(math.log, "log", errors, plus_minus)
    value = terms[0] - terms[1]
    errors.record(
        ~np.isfinite(value),
        lambda j: NumericalDomainError(f"overflow: the EoF of {nu[j]:.6e} is out of float range"),
    )
    return np.where(entangled & (value > 0.0), value, 0.0)


def report_from_pt_values(
    nu_values: np.ndarray, decidable: bool, symmetric: bool
) -> EntanglementReport:
    """Assemble a report from PT symplectic eigenvalues.

    ``E_N = max(0, -sum ln nu)`` over sub-unit eigenvalues; the negativity
    follows from the trace norm, N = (e^{E_N} - 1) / 2. The separable flag
    is populated only when ``decidable``.
    """
    values = _clamp_boundary(np.asarray(nu_values, dtype=float))
    nu_min = float(values.min())
    log_neg = max(0.0, -float(np.sum(np.log(values[values < 1.0]))))
    negativity = 0.5 * (math.exp(log_neg) - 1.0)
    separable = (nu_min >= 1.0 - TOL_PHYS) if decidable else None
    eof = eof_symmetric(nu_min) if symmetric else None
    return EntanglementReport(nu_min, log_neg, negativity, eof, separable)


class ReportColumns(NamedTuple):
    """The entanglement reports of a batch as (N,) columns: the
    ``EntanglementReport`` fields, with ``eof`` nan exactly where a report
    has none (``eof_symmetric`` is never nan), and ``errors``, each point's
    error or None. The values of a failed point are meaningless."""

    nu_tilde_min: np.ndarray
    log_negativity: np.ndarray
    negativity: np.ndarray
    eof: np.ndarray
    separable: np.ndarray
    errors: list

    @property
    def eof_missing(self) -> np.ndarray:
        return np.isnan(self.eof)

    def reports(self) -> list:
        """The report, or the error, of each point."""
        eof = [None if math.isnan(value) else value for value in self.eof.tolist()]
        rows = zip(self.nu_tilde_min.tolist(), self.log_negativity.tolist(),
                   self.negativity.tolist(), eof, self.separable.tolist())
        return [EntanglementReport(*row) if error is None else error
                for row, error in zip(rows, self.errors)]


def _pt_pair_columns(nu_minus, nu_plus, symmetric, errors: _PointErrors) -> ReportColumns:
    """``report_from_pt_values`` for many states with two PT eigenvalues
    each and a decisive PPT test: the same clamp, sums, libm ``exp`` and
    EoF, one numpy pass per step. Each point gets its report's values, or
    the error its scalar evaluation raises."""
    values = _clamp_boundary(np.array([nu_minus, nu_plus]))
    nu_min = np.minimum(values[0], values[1])
    logs = np.where(values < 1.0, np.log(values), 0.0)
    # where(x > 0, x, 0) is max(0.0, x): the empty sum gives 0.0, not -0.0
    log_neg = -(logs[0] + logs[1])
    log_neg = np.where(log_neg > 0.0, log_neg, 0.0)
    negativity = 0.5 * (_elementwise(math.exp, "exp", errors, log_neg) - 1.0)
    separable = nu_min >= 1.0 - TOL_PHYS
    # the EoF of the symmetric points still alive, their errors put in place
    chosen = np.flatnonzero(symmetric & errors.alive)
    part = _PointErrors(len(chosen))
    eof = np.full(len(nu_min), math.nan)
    eof[chosen] = _eof_columns(nu_min[chosen], part)
    for j in np.flatnonzero(~part.alive).tolist():
        errors.fail(int(chosen[j]), part.errors[j])
    return ReportColumns(nu_min, log_neg, negativity, eof, separable, errors.errors)


def _symmetric_dets(det_a, det_b):
    """Whether two local determinants agree, i.e. the two-mode state they
    belong to is symmetric (the condition for the closed-form EoF).
    Elementwise on arrays."""
    bound = np.maximum(np.maximum(1.0, np.abs(det_a)), np.abs(det_b))
    return np.abs(det_a - det_b) <= SYMMETRIC_TOL * bound


def log_negativity(
    cm: CovarianceMatrix, part: ModeBipartition, ppt_decidable: bool | None = None
) -> EntanglementReport:
    """Entanglement report for a physical state across a bipartition.

    ``ppt_decidable`` may be set by the caller for state classes where
    positivity of the partial transpose is known to decide separability
    (for example two-block-symmetric states); 1 x n splits are treated as
    decidable automatically. The entanglement of formation is included
    only for symmetric two-mode inputs.
    """
    part.validate_for(cm)
    if not is_bona_fide(cm):
        raise InvalidArgumentError("input covariance matrix is not a physical state")
    if ppt_decidable is None:
        ppt_decidable = len(part.side_a) == 1 or len(part.side_b) == 1
    spectrum = pt_spectrum(cm, part)
    inv = two_mode_invariants(cm) if cm.modes == 2 else None
    symmetric = inv is not None and bool(_symmetric_dets(inv.det_block_a, inv.det_block_b))
    return report_from_pt_values(spectrum.values, bool(ppt_decidable), symmetric)


def symmetric_condition(spec: BisymmetricSpec) -> bool:
    """Whether the equivalent two-mode state of a two-block spec is symmetric.

    True iff (a + (m-1) e1)(a + (m-1) e2) = (b + (n-1) z1)(b + (n-1) z2)
    within ``SYMMETRIC_TOL``; gates the availability of the entanglement of
    formation in reports.
    """
    _, _, a1, a2 = _pattern_factors(spec.m, spec.a, spec.e1, spec.e2)
    _, _, b1, b2 = _pattern_factors(spec.n, spec.b, spec.z1, spec.z2)
    return bool(_symmetric_dets(a1 * a2, b1 * b2))
