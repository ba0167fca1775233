"""State constructors and paper formulas that only the tests use: test
inputs, and closed forms that the library's routes do not run, kept as
references for them."""

import math

import numpy as np

from entloc.entanglement import _pt_nu_tilde_pair
from entloc.errors import InvalidArgumentError
from entloc.localization import (
    EquivalentTwoMode,
    _batch_blocks,
    _covered,
    _equivalent_from_blocks,
    _pattern_check,
)
from entloc.states import BisymmetricBatch, BisymmetricSpec, _require_finite
from entloc.symplectic import (
    TOL,
    CovarianceMatrix,
    _adjugate_traces,
    _clipped_sqrts,
    _dets,
    _minus_plus_pair,
    _PointErrors,
    _raise_first,
    _scalar_batch,
    is_symplectic,
    two_mode_invariants,
)


def two_mode_squeezed(r: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    Diagonal blocks cosh(2r) I2, cross block sinh(2r) diag(1, -1); pure for
    every r, with partial-transpose eigenvalues e^{+/- 2r}.
    """
    if not r >= 0.0:
        raise InvalidArgumentError(f"squeezing parameter must be >= 0, got {r}")
    try:
        ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        raise InvalidArgumentError(f"squeezing parameter r = {r} overflows cosh(2r)") from None
    return CovarianceMatrix(np.array(
        [[ch, 0.0, sh, 0.0], [0.0, ch, 0.0, -sh], [sh, 0.0, ch, 0.0], [0.0, -sh, 0.0, ch]]))


def thermal_cm(nu_list) -> CovarianceMatrix:
    """Product of single-mode thermal states: diag(nu1, nu1, ..., nuN, nuN)."""
    nus = [float(v) for v in nu_list]
    bad = [v for v in nus if v < 1.0 - TOL.UNCERTAINTY]
    if bad:
        raise InvalidArgumentError(
            f"thermal eigenvalues must be >= 1, got {bad}", offending_value=min(bad)
        )
    return CovarianceMatrix(np.diag(np.repeat(nus, 2)))


def vacuum_cm(modes: int) -> CovarianceMatrix:
    return CovarianceMatrix(np.eye(2 * modes))


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


def _clipped_sqrt(value: float, scale: float) -> float:
    return _scalar_batch(lambda v, s, errors: (_clipped_sqrts(v, s, errors),), value, scale)[0]


def nu_plus_from_two_mode(n: int, mu_beta: float, nu_minus: float, nu_plus_2: float) -> float:
    """Symmetric-mode eigenvalue of an n-mode block from two-mode data.

    nu_plus^2 = -n(n-2)/mu_beta^2 + (n-1)/2 * (n nu_plus_2^2 + (n-2) nu_minus^2)

    where mu_beta is the single-mode purity and (nu_minus, nu_plus_2) the
    spectrum of the two-mode reduction. Collapses to nu_plus_2 at n = 2.
    """
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
    return _clipped_sqrt(value, scale)


def fs_params_from_invariants(mu_beta: float, mu_beta2: float, delta2: float):
    """Recover standard-form parameters (b, z1, z2) from reduced-state invariants.

    ``mu_beta`` and ``mu_beta2`` are the single-mode and two-mode reduced
    purities, ``delta2`` the block-determinant sum of the two-mode
    reduction. Returns the branch with z2 >= z1:

        b  = 1 / mu_beta
        z1 = mu_beta (eps_minus - eps_plus) / 4
        z2 = mu_beta (eps_minus + eps_plus) / 4

    with eps_minus = sqrt(delta2^2 - 4/mu_beta2^2) and
    eps_plus = sqrt((delta2 - 4/mu_beta^2)^2 - 4/mu_beta2^2).
    """
    _require_finite(delta2=delta2)
    try:
        four_over_mu2sq = 4.0 / mu_beta2**2
        scale = max(delta2**2, four_over_mu2sq)
        eps_minus = _clipped_sqrt(delta2**2 - four_over_mu2sq, scale)
        eps_plus = _clipped_sqrt((delta2 - 4.0 / mu_beta**2) ** 2 - four_over_mu2sq, scale)
    except Exception as exc:
        raise InvalidArgumentError(f"inconsistent invariants (mu_beta={mu_beta}, "
                                   f"mu_beta2={mu_beta2}, delta2={delta2}): {exc}") from exc
    b = 1.0 / mu_beta
    z1 = 0.25 * mu_beta * (eps_minus - eps_plus)
    z2 = 0.25 * mu_beta * (eps_minus + eps_plus)
    return b, z1, z2


def fs_split_spec(spec, k: int) -> BisymmetricSpec:
    """The k | M-k split of a fully symmetric M-mode spec, from the
    definition, as a validated ``BisymmetricSpec``: both blocks keep the
    pattern diag(b, b) and diag(z1, z2), a one-mode block has no
    off-diagonal pattern (e or z = 0), and every cross block is diag(z1,
    z2). The reference for the library's split batch."""
    rest = spec.modes - k
    e1, e2 = (spec.z1, spec.z2) if k > 1 else (0.0, 0.0)
    z1, z2 = (spec.z1, spec.z2) if rest > 1 else (0.0, 0.0)
    return BisymmetricSpec(k, rest, spec.b, e1, e2, spec.b, z1, z2, spec.z1, spec.z2)


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


def two_mode_symplectic_eigenvalues(cm: CovarianceMatrix) -> tuple[float, float]:
    """Closed-form (nu_minus, nu_plus) of a two-mode state from its
    invariants: 2 nu^2 = Delta -/+ sqrt(Delta^2 - 4 det)."""
    inv = two_mode_invariants(cm)
    return _scalar_batch(
        lambda delta, det, errors: _minus_plus_pair(delta, det, errors, delta * delta - 4.0 * det),
        inv.delta, inv.det_total,
    )


def pt_two_mode_nu_tilde(cm: CovarianceMatrix) -> tuple[float, float]:
    """Closed-form PT eigenvalues (nu~_minus, nu~_plus) of a two-mode state."""
    inv = two_mode_invariants(cm)
    a, b = cm.matrix[:2, :2], cm.matrix[2:, 2:]
    return _scalar_batch(lambda c, errors: _pt_nu_tilde_pair(
        inv.det_block_a, inv.det_block_b, _adjugate_traces(a, c, b), _dets(c, errors),
        inv.det_total, errors), cm.matrix[:2, 2:])


def equivalent_two_mode(state, m=None, n=None, tol_pattern=None) -> EquivalentTwoMode:
    """The equivalent two-mode state by the invariant route, in standard form.

    ``state`` is a ``BisymmetricSpec``, or a covariance matrix whose (m, n)
    split passes the pattern check at ``tol_pattern`` (any local basis):
    the reference for ``localize``'s ``cm_eq``. The route's kernel gives
    the invariants of the coupled core A', B', C'; a local symplectic has
    determinant 1, so the standard-form cross block diag(c_plus, c_minus)
    has P = c_plus c_minus = det C' and S = c_plus^2 + c_minus^2 = tr(adj A'
    C' adj B' C'^T) / (nu_plus_a nu_plus_b), and c_plus +/- c_minus = sqrt(S
    +/- 2P), both exactly +0.0 when gamma = 0. At c_plus = -c_minus, S + 2P
    cancels, so c_minus is known to about sqrt(eps S), 8.6e-9 relative at
    a 2 | 3 state with g1 = -g2 = 0.25; the PT eigenvalues, which the route
    reads from the trace and P, keep their digits.
    """
    errors = _PointErrors(1)
    if isinstance(state, BisymmetricSpec):
        m, n, blocks = _batch_blocks(BisymmetricBatch.of([state]))
    else:
        m, n = _raise_first([_covered(state.modes, m, n)])[0]
        blocks, _ = _pattern_check(state.matrix[None], m, n, tol_pattern, errors)
        _raise_first(errors.errors)
        m, n = np.array([m]), np.array([n])
    with np.errstate(all="ignore"):
        eq = _equivalent_from_blocks(m, n, blocks, errors)
        sum_sq = eq.trace / (eq.nus[1, 0] * eq.nus[1, 1])
        # a negative S fails as the radicand S - 2|P| that it makes negative
        plus, minus = _clipped_sqrts(
            np.array([sum_sq + 2.0 * eq.det_cross, sum_sq - 2.0 * eq.det_cross]), sum_sq, errors)
    _raise_first(errors.errors)
    a, b = eq.nus[1, :, 0].tolist()
    cp, cm = float(0.5 * (plus + minus)[0]), float(0.5 * (plus - minus)[0])
    matrix = np.array([[a, 0.0, cp, 0.0], [0.0, a, 0.0, cm], [cp, 0.0, b, 0.0], [0.0, cm, 0.0, b]])
    delta_eq = eq.plus_sq[0][0] + eq.plus_sq[1][0] + 2.0 * eq.det_cross[0]
    mu_eq = 1.0 / np.sqrt(eq.det[0])
    return EquivalentTwoMode(CovarianceMatrix(matrix), float(mu_eq), float(delta_eq))
