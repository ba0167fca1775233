"""Constructors for the covariance-matrix families used by the package.

All constructors return physical (bona fide) states and raise
``InvalidArgumentError`` for unphysical parameters, carrying the violating
symplectic eigenvalue where one is identifiable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EntlocError, InvalidArgumentError
from .symplectic import (
    TOL_PHYS,
    CovarianceMatrix,
    _covariance_matrices,
    _PointErrors,
    _squares,
    clipped_sqrt,
)


def _pattern_factors(count: int, d: float, o1: float, o2: float):
    """Factors of a ``count``-mode block with diagonal blocks diag(d, d) and
    off-diagonal blocks diag(o1, o2): nu_minus^2 is the product of the
    first two (count - 1 times), nu_plus^2 the product of the last two."""
    return d - o1, d - o2, d + (count - 1) * o1, d + (count - 1) * o2


# the parameters of a two-block spec, in field order
SPEC_PARAMETERS = ("a", "e1", "e2", "b", "z1", "z2", "g1", "g2")


def _non_finite(values: dict) -> InvalidArgumentError:
    bad = {name: value for name, value in values.items() if not math.isfinite(value)}
    return InvalidArgumentError(f"parameters must be finite numbers, got {bad}")


def _require_finite(**values):
    if not all(map(math.isfinite, values.values())):
        raise _non_finite(values)


@dataclass(frozen=True)
class FullySymmetricSpec:
    """Standard-form parameters of a permutation-invariant n-mode state.

    Every diagonal 2x2 block is diag(b, b) and every off-diagonal block is
    diag(z1, z2). The two distinct symplectic eigenvalues are

        nu_minus = sqrt((b - z1) (b - z2))            (multiplicity n - 1)
        nu_plus  = sqrt((b + (n-1) z1) (b + (n-1) z2))

    and physicality requires both to be >= 1. For a single mode the z
    covariances are unused and must be zero.
    """

    modes: int
    b: float
    z1: float = 0.0
    z2: float = 0.0

    def __post_init__(self):
        if self.modes < 1:
            raise InvalidArgumentError(f"mode count must be >= 1, got {self.modes}")
        _require_finite(b=self.b, z1=self.z1, z2=self.z2)
        if self.modes == 1:
            if self.z1 != 0.0 or self.z2 != 0.0:
                raise InvalidArgumentError("single-mode spec must have z1 = z2 = 0")
            if self.b < 1.0 - TOL_PHYS:
                raise InvalidArgumentError(
                    f"single-mode eigenvalue b = {self.b} below 1",
                    offending_value=self.b,
                )
            return
        factors = _pattern_factors(self.modes, self.b, self.z1, self.z2)
        if min(factors) <= 0.0:
            raise InvalidArgumentError(
                f"covariance pattern is not positive definite (factors {factors})",
                offending_value=min(factors),
            )
        nu_minus = math.sqrt(factors[0] * factors[1])
        nu_plus = math.sqrt(factors[2] * factors[3])
        worst = min(nu_minus, nu_plus)
        if worst < 1.0 - TOL_PHYS:
            raise InvalidArgumentError(
                f"unphysical parameters: min symplectic eigenvalue {worst:.12g} < 1",
                offending_value=worst,
            )

    def nu_minus(self) -> float:
        f1, f2, _, _ = _pattern_factors(self.modes, self.b, self.z1, self.z2)
        return math.sqrt(f1 * f2)

    def nu_plus(self) -> float:
        _, _, f3, f4 = _pattern_factors(self.modes, self.b, self.z1, self.z2)
        return math.sqrt(f3 * f4)


@dataclass(frozen=True)
class BisymmetricSpec:
    """Standard-form parameters of an (m+n)-mode two-block state.

    The first m modes carry the fully symmetric pattern (a, e1, e2), the
    last n modes the pattern (b, z1, z2), and every cross block between
    the two sides equals diag(g1, g2). Validation never assembles the
    matrix: it checks positivity and the uncertainty relation on the
    closed-form spectrum (see ``_bisymmetric_min_nu``), in O(1) for any
    block sizes. Both reduced blocks are then automatically physical.
    """

    m: int
    n: int
    a: float
    e1: float
    e2: float
    b: float
    z1: float
    z2: float
    g1: float
    g2: float

    def __post_init__(self):
        m, n = self.m, self.n
        params = (self.a, self.e1, self.e2, self.b, self.z1, self.z2, self.g1, self.g2)
        if m < 1 or n < 1:
            raise InvalidArgumentError(f"block sizes must be >= 1, got ({m}, {n})")
        if not all(map(math.isfinite, params)):
            raise _non_finite(dict(zip(SPEC_PARAMETERS, params)))
        _, e1, e2, _, z1, z2, _, _ = params
        if m == 1 and (e1 != 0.0 or e2 != 0.0):
            raise InvalidArgumentError("single-mode first block must have e1 = e2 = 0")
        if n == 1 and (z1 != 0.0 or z2 != 0.0):
            raise InvalidArgumentError("single-mode second block must have z1 = z2 = 0")
        smallest = _bisymmetric_min_nu(m, n, *params)
        if smallest < 1.0 - TOL_PHYS:
            raise _unphysical(smallest)

    @property
    def total_modes(self) -> int:
        return self.m + self.n


def _two_block_terms(m, n, a, e1, e2, b, z1, z2, g1, g2, sqrt):
    """The closed-form terms of the two-block spectrum check, one formula
    for Python floats (``sqrt=math.sqrt``) and (N,) arrays (``np.sqrt``):
    sums and products round the same either way.

    Returns the eight positivity factors in check order (A1, A2, det X,
    det P, then the m-block pair, then the n-block pair) followed by the
    entries p, q, r, s of X P (see ``_bisymmetric_min_nu``).
    """
    cross = sqrt(m * n)
    am1, am2, a1, a2 = _pattern_factors(m, a, e1, e2)
    bm1, bm2, b1, b2 = _pattern_factors(n, b, z1, z2)
    c1, c2 = cross * g1, cross * g2
    return (
        a1, a2, a1 * b1 - c1 * c1, a2 * b2 - c2 * c2, am1, am2, bm1, bm2,
        a1 * a2 + c1 * c2, a1 * c2 + c1 * b2, c1 * a2 + b1 * c2, c1 * c2 + b1 * b2,
    )


def _two_block_nus(terms, diff_sq, sqrt, nonneg):
    """The core eigenvalue and the two block eigenvalues from the
    ``_two_block_terms`` and diff_sq = (p - s)^2, for floats and arrays
    alike; ``nonneg`` is max(x, 0.0)."""
    _, _, det_x, det_p, am1, am2, bm1, bm2, p, q, r, s = terms
    root = sqrt(nonneg(diff_sq + 4.0 * q * r))
    return sqrt(2.0 * det_x * det_p / (p + s + root)), sqrt(am1 * am2), sqrt(bm1 * bm2)


def _max_zero(x):
    return max(x, 0.0)


def _not_positive_definite(worst) -> InvalidArgumentError:
    return InvalidArgumentError(
        f"covariance pattern is not positive definite (factor {worst:.12g} <= 0)",
        offending_value=worst,
    )


def _too_large(p, s) -> InvalidArgumentError:
    return InvalidArgumentError(
        f"parameters too large for the spectrum check: ({p:.6e} - {s:.6e})^2 overflows"
    )


def _unphysical(smallest) -> InvalidArgumentError:
    return InvalidArgumentError(
        f"unphysical parameters: min symplectic eigenvalue {smallest:.12g} < 1",
        offending_value=smallest,
    )


def _bisymmetric_min_nu(m, n, a, e1, e2, b, z1, z2, g1, g2) -> float:
    """Smallest symplectic eigenvalue of a two-block pattern, in closed form.

    Mode mixing inside each block splits the matrix into m-1 copies of
    diag(a-e1, a-e2), n-1 copies of diag(b-z1, b-z2) and the coupled
    two-mode core, whose x and p quadratures decouple into

        X = [[A1, C1], [C1, B1]],  P = [[A2, C2], [C2, B2]],
        A = a + (m-1) e,  B = b + (n-1) z,  C = sqrt(mn) g.

    The matrix is positive definite iff the diagonal factors, A1, A2,
    det X and det P are all positive; otherwise ``InvalidArgumentError``
    carries the smallest of them. The spectrum is sqrt((a-e1)(a-e2))
    (m-1 times), sqrt((b-z1)(b-z2)) (n-1 times) and the core pair, whose
    squares are the eigenvalues of X P = [[p, q], [r, s]]. The smaller one
    is taken in conjugate form, 2 det X det P / (p + s + root), with the
    discriminant written as (p-s)^2 + 4qr: the textbook (p+s)^2 - 4 det
    cancels to zero at pure states and keeps half the digits there.
    ``_bisymmetric_min_nus`` is the same check on a batch.
    """
    terms = _two_block_terms(m, n, a, e1, e2, b, z1, z2, g1, g2, math.sqrt)
    worst = min(terms[:8] if m > 1 and n > 1 else
                terms[:4] + (terms[4:6] if m > 1 else ()) + (terms[6:8] if n > 1 else ()))
    if worst <= 0.0:
        raise _not_positive_definite(worst)
    p, s = terms[8], terms[11]
    try:
        diff_sq = (p - s) ** 2
    except OverflowError as exc:
        raise _too_large(p, s) from exc
    nus = _two_block_nus(terms, diff_sq, math.sqrt, _max_zero)
    return min(nus if m > 1 and n > 1 else
               nus[:1] + (nus[1:2] if m > 1 else ()) + (nus[2:] if n > 1 else ()))


def _first_min(values, keep):
    """Python's ``min`` of each point's kept values, for (N,) arrays: the
    first value always counts, a later one (where ``keep``) replaces the
    running minimum only if it is smaller, so nan handling matches too."""
    out = values[0]
    for value, kept in zip(values[1:], keep[1:]):
        out = np.where(kept & (value < out), value, out)
    return out


def _bisymmetric_min_nus(m, n, a, e1, e2, b, z1, z2, g1, g2, errors: _PointErrors):
    """``_bisymmetric_min_nu`` of every point of a batch of (N,) arrays: the
    same terms, and each point that fails records the error, message and
    ``offending_value`` included, that the scalar check raises on it.
    Call it under ``np.errstate(all="ignore")``.

    The block sizes enter as floats: each is exact below 2**53, so m n
    rounds once, as the scalar check's int product does, where an int64
    product would wrap past 2**63."""
    terms = _two_block_terms(m * 1.0, n * 1.0, a, e1, e2, b, z1, z2, g1, g2, np.sqrt)
    blocks = (m > 1, m > 1, n > 1, n > 1)
    worst = _first_min(terms[:8], (True,) * 4 + blocks)
    errors.record(worst <= 0.0, lambda i: _not_positive_definite(float(worst[i])))
    p, s = terms[8], terms[11]
    overflow = _PointErrors(len(p))
    diff_sq = _squares(p - s, overflow)
    errors.record(~overflow.alive, lambda i: _too_large(float(p[i]), float(s[i])))
    nus = _two_block_nus(terms, diff_sq, np.sqrt, lambda x: np.where(0.0 > x, 0.0, x))
    return _first_min(nus, (True, m > 1, n > 1))


class BisymmetricBatch(NamedTuple):
    """N two-block specs as columns.

    ``m`` and ``n`` are the block sizes, int64 arrays of shape (N,). The
    pattern blocks of a spec, alpha, eps, beta, zeta and gamma, are
    diag(a, a), diag(e1, e2), diag(b, b), diag(z1, z2) and diag(g1, g2);
    ``diagonals``, shape (5, 2, N), holds their diagonals in that order,
    so the eight parameters are its (N,) rows (a and b twice), and the
    kernel reads the blocks straight from it. ``errors`` holds the error
    of each point that is no valid spec; its parameters are then
    meaningless.

    ``bisymmetric_batch`` builds one from parameter columns and validates
    every point as ``BisymmetricSpec`` would; ``of`` stacks specs that
    are already built.
    """

    m: np.ndarray
    n: np.ndarray
    diagonals: np.ndarray
    errors: _PointErrors

    @classmethod
    def of(cls, items) -> "BisymmetricBatch":
        """The batch of a sequence of ``BisymmetricSpec``s, in which an
        ``EntlocError`` item stands for a spec that could not be built and
        is its point's error."""
        errors = _PointErrors(len(items))
        specs = list(items)
        for i, item in enumerate(items):
            if isinstance(item, EntlocError):
                errors.fail(i, item)
                specs[i] = _VACUUM
        columns = np.array(list(map(_DIAGONAL_FIELDS, specs)), dtype=float).reshape(-1, 12).T
        m, n = columns[:2].astype(np.int64)
        return cls(m, n, columns[2:].reshape(5, 2, -1), errors)


# the stand-in of a point that is no spec: a two-mode vacuum
_VACUUM = BisymmetricSpec(1, 1, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
_DIAGONAL_FIELDS = operator.attrgetter("m", "n", "a", "a", "e1", "e2", "b", "b", "z1", "z2", "g1", "g2")


def bisymmetric_batch(m, n, a, e1, e2, b, z1, z2, g1, g2, errors=None) -> BisymmetricBatch:
    """Validated batch of (N,) columns: each point fails, in ``errors`` (a
    fresh ``_PointErrors`` by default), with the error ``BisymmetricSpec``
    raises on its parameters, message and ``offending_value`` included; a
    point already failed keeps its error."""
    m, n = np.asarray(m, dtype=np.int64), np.asarray(n, dtype=np.int64)
    diagonals = np.array([[a, a], [e1, e2], [b, b], [z1, z2], [g1, g2]], dtype=float)
    (a, _), (e1, e2), (b, _), (z1, z2), (g1, g2) = diagonals
    params = (a, e1, e2, b, z1, z2, g1, g2)
    errors = _PointErrors(len(m)) if errors is None else errors
    errors.record(
        (m < 1) | (n < 1),
        lambda i: InvalidArgumentError(f"block sizes must be >= 1, got ({m[i]}, {n[i]})"),
    )
    errors.record(
        ~np.isfinite(diagonals).all(axis=(0, 1)),
        lambda i: _non_finite({name: float(v[i]) for name, v in zip(SPEC_PARAMETERS, params)}),
    )
    errors.record(
        (m == 1) & ((e1 != 0.0) | (e2 != 0.0)),
        lambda i: InvalidArgumentError("single-mode first block must have e1 = e2 = 0"),
    )
    errors.record(
        (n == 1) & ((z1 != 0.0) | (z2 != 0.0)),
        lambda i: InvalidArgumentError("single-mode second block must have z1 = z2 = 0"),
    )
    with np.errstate(all="ignore"):
        smallest = _bisymmetric_min_nus(m, n, *params, errors)
    errors.record(smallest < 1.0 - TOL_PHYS, lambda i: _unphysical(float(smallest[i])))
    return BisymmetricBatch(m, n, diagonals, errors)


def _mode_count(name: str, value) -> int:
    # JSON true/false are ints to Python, and int() would truncate 1.5
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise InvalidArgumentError(
            f"spec field {name!r} must be a finite integer mode count, got {value!r}"
        )
    return int(value)


def _spec_fields(obj: dict, counts, required, optional) -> dict:
    """Mode counts as int, parameters as float; optional ones default to 0."""
    try:
        raw_counts = {name: obj[name] for name in counts}
        fields = {name: float(obj[name]) for name in required}
        fields.update({name: float(obj.get(name, 0.0)) for name in optional})
    except KeyError as exc:
        raise InvalidArgumentError(f"spec object is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"spec object has a non-numeric field: {exc}") from exc
    fields.update({name: _mode_count(name, value) for name, value in raw_counts.items()})
    return fields


def fully_symmetric_spec_from_json(obj: dict) -> FullySymmetricSpec:
    return FullySymmetricSpec(**_spec_fields(obj, ("modes",), ("b",), ("z1", "z2")))


def bisymmetric_spec_from_json(obj: dict) -> BisymmetricSpec:
    return BisymmetricSpec(
        **_spec_fields(obj, ("m", "n"), ("a", "b"), ("e1", "e2", "z1", "z2", "g1", "g2"))
    )


def _assemble(m: int, n: int, diagonals: np.ndarray) -> np.ndarray:
    """The (K, 2(m+n), 2(m+n)) stack of two-block matrices in one array write.

    ``diagonals``, shape (P, 2, K), holds the diagonals of the pattern
    blocks of each matrix in ``BisymmetricBatch`` order (alpha, eps, beta,
    zeta, gamma); mode pair (i, j) of matrix k gets the diagonal 2x2 block
    of its pattern. With n = 0 the matrix is the one block of alpha and
    eps. Entries are copied, never summed, so each equals its parameter
    exactly.
    """
    total, count = m + n, diagonals.shape[-1]
    kinds = np.full((total, total), 4)
    kinds[:m, :m], kinds[m:, m:] = 1, 3
    kinds[range(total), range(total)] = [0] * m + [2] * n
    out = np.zeros((count, total, 2, total, 2))
    quadrature = np.arange(2)
    out[:, :, quadrature, :, quadrature] = diagonals[kinds].transpose(2, 3, 0, 1)
    return out.reshape(count, 2 * total, 2 * total)


def thermal_cm(nu_list) -> CovarianceMatrix:
    """Product of single-mode thermal states: diag(nu1, nu1, ..., nuN, nuN)."""
    nus = [float(v) for v in nu_list]
    if not nus:
        raise InvalidArgumentError("need at least one thermal eigenvalue")
    bad = [v for v in nus if v < 1.0 - TOL_PHYS]
    if bad:
        raise InvalidArgumentError(
            f"thermal eigenvalues must be >= 1, got {bad}", offending_value=min(bad)
        )
    return CovarianceMatrix(np.diag(np.repeat(nus, 2)))


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
    return CovarianceMatrix(
        np.array(
            [
                [ch, 0.0, sh, 0.0],
                [0.0, ch, 0.0, -sh],
                [sh, 0.0, ch, 0.0],
                [0.0, -sh, 0.0, ch],
            ]
        )
    )


def fully_symmetric_cm(spec: FullySymmetricSpec) -> CovarianceMatrix:
    """Assemble the permutation-invariant covariance matrix of a spec."""
    diagonals = np.array([[spec.b, spec.b], [spec.z1, spec.z2]])[..., None]
    return _covariance_matrices(_assemble(spec.modes, 0, diagonals))[0]


def bisymmetric_cm(spec):
    """Assemble the two-block covariance matrix of a spec.

    The first block occupies modes 0..m-1, the second modes m..m+n-1.

    ``spec`` is one ``BisymmetricSpec``, or a sequence of specs of one
    shape (m, n), which is assembled and checked as one stack and gives the
    list of their matrices; the first spec whose matrix fails the
    ``CovarianceMatrix`` check raises its error.
    """
    single = isinstance(spec, BisymmetricSpec)
    specs = [spec] if single else list(spec)
    shapes = sorted({(s.m, s.n) for s in specs})
    if len(shapes) > 1:
        raise InvalidArgumentError(f"specs of one shape (m, n) required, got shapes {shapes}")
    if not specs:
        return []
    [(m, n)] = shapes
    cms = _covariance_matrices(_assemble(m, n, BisymmetricBatch.of(specs).diagonals))
    return cms[0] if single else cms


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
    if not (0.0 < mu_beta <= 1.0 + TOL_PHYS):
        raise InvalidArgumentError(f"single-mode purity must be in (0, 1], got {mu_beta}")
    if not (0.0 < mu_beta2 <= 1.0 + TOL_PHYS):
        raise InvalidArgumentError(f"two-mode purity must be in (0, 1], got {mu_beta2}")
    _require_finite(delta2=delta2)
    try:
        four_over_mu2sq = 4.0 / mu_beta2**2
        scale = max(delta2**2, four_over_mu2sq)
        eps_minus = clipped_sqrt(delta2**2 - four_over_mu2sq, scale=scale)
        eps_plus = clipped_sqrt((delta2 - 4.0 / mu_beta**2) ** 2 - four_over_mu2sq, scale=scale)
    except Exception as exc:
        raise InvalidArgumentError(f"inconsistent invariants (mu_beta={mu_beta}, "
                                   f"mu_beta2={mu_beta2}, delta2={delta2}): {exc}") from exc
    b = 1.0 / mu_beta
    z1 = 0.25 * mu_beta * (eps_minus - eps_plus)
    z2 = 0.25 * mu_beta * (eps_minus + eps_plus)
    return b, z1, z2


def ghz_type_spec(total_modes: int, b: float) -> FullySymmetricSpec:
    """Standard-form spec of the pure M-mode permutation-invariant state.

    For M >= 2 and single-mode eigenvalue b >= 1 the off-block covariances

        z_{1,2} = [1 + b^2 (M-2) - (M-1)
                   +/- sqrt((b^2 - 1) ((b M)^2 - (M-2)^2))] / [2 b (M-1)]

    are the unique pair making both symplectic eigenvalues equal to 1.
    In the infinite-squeezing limit (b -> inf) these states approach
    simultaneous eigenstates of the relative positions and the total
    momentum.
    """
    if total_modes < 2:
        raise InvalidArgumentError(f"need at least two modes, got {total_modes}")
    _require_finite(b=b)
    if b < 1.0:
        raise InvalidArgumentError(f"single-mode eigenvalue must be >= 1, got {b}")
    big_m = float(total_modes)
    base = 1.0 + b * b * (big_m - 2.0) - (big_m - 1.0)
    try:
        root = math.sqrt(max((b * b - 1.0) * ((b * big_m) ** 2 - (big_m - 2.0) ** 2), 0.0))
    except OverflowError as exc:
        raise InvalidArgumentError(
            f"single-mode eigenvalue b = {b} overflows the {total_modes}-mode pure-state formula",
            offending_value=b,
        ) from exc
    denom = 2.0 * b * (big_m - 1.0)
    z1 = (base + root) / denom
    z2 = (base - root) / denom
    return FullySymmetricSpec(total_modes, b, z1, z2)


def ghz_type_pure(total_modes: int, b: float) -> CovarianceMatrix:
    """Covariance matrix of the pure M-mode permutation-invariant state."""
    return fully_symmetric_cm(ghz_type_spec(total_modes, b))
