"""Partial transposition, separability decisions and entanglement measures.

The separability test used throughout is positivity of the partial
transpose, which is decisive for two-mode states, 1 x n splits, and the
two-block states handled by the localization routines; for other splits
the separable flag is left undecided (None).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, NumericalDomainError
from .symplectic import (
    TOL,
    CovarianceMatrix,
    SymplecticSpectrum,
    _elementwise,
    _local_dets,
    _minus_plus_pair,
    _mirror_momenta,
    _past_form_range,
    _PointErrors,
    _raise_first,
    _scalar_batch,
    _squares,
    _symplectic_spectra,
    _uncertainty_holds,
    is_bona_fide,
    symplectic_eigenvalues,
)

# the error of a matrix that is not a physical state, on either route
NOT_A_STATE = "input covariance matrix is not a physical state"


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
        self._validate_modes(cm.modes)

    def _validate_modes(self, modes: int) -> None:
        covered = set(self.side_a) | set(self.side_b)
        expected = set(range(modes))
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
    return CovarianceMatrix._checked(_mirror_momenta(cm.matrix, part.side_b))


def pt_spectrum(cm: CovarianceMatrix, part: ModeBipartition) -> SymplecticSpectrum:
    """Symplectic spectrum of the partially transposed matrix."""
    return symplectic_eigenvalues(partial_transpose(cm, part))


def _pt_nu_tilde_pair(det_a, det_b, trace, det_c, det, errors: _PointErrors):
    """(nu~_minus, nu~_plus) of two-mode states from the determinants of
    their blocks A, B, C, ``trace`` = tr(adj A C adj B C^T) and det sigma =
    det A det B - trace + det C^2. Transposition flips the sign of det C:
    2 nu~^2 = Delta~ -/+ sqrt(disc), Delta~ = det A + det B - 2 det C, disc
    = Delta~^2 - 4 det sigma = (det A - det B)^2 + 4(trace - (det A + det B)
    det C), which does not cancel where det C <= 0: every entangled state
    has det C < 0 (Simon, PRL 84, 2726 (2000))."""
    sum_ab = det_a + det_b
    disc = _squares(det_a - det_b, errors) + 4.0 * (trace - sum_ab * det_c)
    return _minus_plus_pair(sum_ab - 2.0 * det_c, det, errors, disc)


def eof_symmetric(nu_tilde: float) -> float:
    """Entanglement of formation of a symmetric two-mode state.

    Closed form h(nu_tilde) for nu_tilde < 1 and 0 from 1 on, with

        h(x) = (1+x)^2/(4x) ln((1+x)^2/(4x)) - (1-x)^2/(4x) ln((1-x)^2/(4x)),

    a strictly decreasing function on (0, 1] with h(1) = 0. h(x) = h(1/x),
    so h itself would give a separable state (nu_tilde > 1) an EoF.
    """
    return _scalar_batch(lambda nu, errors: (_eof_columns(nu, errors),), nu_tilde)[0]


def _eof_columns(nu: np.ndarray, errors: _PointErrors) -> np.ndarray:
    """:func:`eof_symmetric` of each value as h = log1p(minus) + minus
    log1p(1/minus), minus = (1-x)^2/(4x) (the first fraction is 1 + minus):
    no cancellation, unlike the difference. One multiply squares, the C
    library's log1p runs per value, as on Python floats. A value that is not
    positive (or nan) fails with an InvalidArgumentError, one whose h
    overflows with a NumericalDomainError."""
    positive = nu > 0.0
    errors.record(
        ~positive,
        lambda j: InvalidArgumentError(f"PT eigenvalue must be positive, got {float(nu[j])}"),
    )
    entangled = positive & (nu < 1.0)
    x = np.where(entangled, nu, 0.5)
    # minus > 0 on (0, 1), where 1 - x >= 2**-53
    minus = _squares(1.0 - x, errors) / (4.0 * x)
    logs = _elementwise(math.log1p, "log1p", errors, np.array([minus, 1.0 / minus]))
    value = logs[0] + minus * logs[1]
    errors.record(
        ~np.isfinite(value),
        lambda j: NumericalDomainError(f"overflow: the EoF of {nu[j]:.6e} is out of float range"),
    )
    return np.where(entangled, value, 0.0)


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


def _pt_columns(values: np.ndarray, symmetric, errors: _PointErrors) -> ReportColumns:
    """The reports of N states from their PT symplectic eigenvalues,
    ``values`` of shape (V, N), V per state, with a decisive PPT test: the
    one report builder of both routes, one numpy pass per step. Each point
    gets its values, or the error its evaluation raises; ``symmetric``
    says which get an EoF.

    A value within ``TOL.PPT`` of 1 reads 1 (a product of pure blocks,
    whose nu~ is 1 only up to rounding, gets E_N = 0). E_N = max(0, -sum
    ln nu) over the values below 1, N = (e^{E_N} - 1) / 2 from the trace
    norm by the C library's ``exp``, and a state is separable when no
    value is below 1: exactly when E_N = N = 0, and its EoF, if any, is 0.
    """
    values = np.where(abs(values - 1.0) <= TOL.PPT, 1.0, values)
    nu_min = values.min(axis=0)
    below = values < 1.0
    logs = np.where(below, np.log(values), 0.0)
    log_neg = -logs.sum(axis=0)
    if len(values) > 2:
        # a sum of three or more terms depends on their order: numpy's sum
        # of the state's sub-unit logarithms, in spectrum order
        for i in np.flatnonzero(below.sum(axis=0) > 2).tolist():
            log_neg[i] = -np.sum(np.log(values[below[:, i], i]))
    # where(x > 0, x, 0) is max(0.0, x): the empty sum gives 0.0, not -0.0
    log_neg = np.where(log_neg > 0.0, log_neg, 0.0)
    negativity = 0.5 * (_elementwise(math.exp, "exp", errors, log_neg) - 1.0)
    separable = nu_min >= 1.0
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
    return np.abs(det_a - det_b) <= TOL.SYMMETRIC * bound


def log_negativity(cm: CovarianceMatrix, part: ModeBipartition) -> EntanglementReport:
    """Entanglement report for a physical state across a bipartition.

    The separable flag is filled in for 1 x n splits, where positivity of
    the partial transpose decides separability, and is None for any other
    split; for a state class where PPT decides too (two-block states),
    ``nu_tilde_min >= 1`` is the decision. The entanglement of formation
    is included only for symmetric two-mode inputs.
    """
    part.validate_for(cm)
    # sigma, for the uncertainty relation, and its transpose D sigma D, which
    # factors if sigma does; past the forms' float range the factorization
    # alone decides, and a state's spectrum fails only by an overflow
    errors = _PointErrors(2)
    nus = _symplectic_spectra(np.array([cm.matrix, partial_transpose(cm, part).matrix]), errors)
    if _past_form_range(cm.matrix):
        state = is_bona_fide(cm)
    else:
        state = errors.alive[0] and _uncertainty_holds(nus[0], cm.matrix)
    if not state:
        raise InvalidArgumentError(NOT_A_STATE)
    _raise_first(errors.errors)
    symmetric = cm.modes == 2 and bool(_symmetric_dets(*_local_dets(cm.matrix)))
    errors = _PointErrors(1)
    columns = _pt_columns(nus[1][:, None], np.array([symmetric]), errors)
    _raise_first(errors.errors)
    report = columns.reports()[0]
    decidable = len(part.side_a) == 1 or len(part.side_b) == 1
    return report if decidable else replace(report, separable=None)
