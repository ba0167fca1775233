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

from .errors import InvalidArgumentError
from .symplectic import (
    CovarianceMatrix,
    _below_vacuum,
    _PointErrors,
    _raise_first,
    _squares,
    _symmetrized,
)


def _pattern_factors(count: int, d: float, o1: float, o2: float):
    """Factors of a ``count``-mode block with diagonal blocks diag(d, d) and
    off-diagonal blocks diag(o1, o2): nu_minus^2 is the product of the
    first two (count - 1 times), nu_plus^2 the product of the last two."""
    return d - o1, d - o2, d + (count - 1) * o1, d + (count - 1) * o2


def _block_nus(factors) -> tuple[float, float]:
    """(nu_minus, nu_plus) of a block from its ``_pattern_factors``."""
    f1, f2, f3, f4 = factors
    return math.sqrt(f1 * f2), math.sqrt(f3 * f4)


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

    (``nu_minus()`` and ``nu_plus()``, from ``_block_nus`` as validation
    takes them), and physicality requires both to be >= 1. For a single
    mode the z covariances are unused and must be zero.
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
            if _below_vacuum(self.b, 1.0):
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
        worst = min(_block_nus(factors))
        if _below_vacuum(worst, 1.0):
            raise _unphysical(worst)

    def nu_minus(self) -> float:
        return _block_nus(_pattern_factors(self.modes, self.b, self.z1, self.z2))[0]

    def nu_plus(self) -> float:
        return _block_nus(_pattern_factors(self.modes, self.b, self.z1, self.z2))[1]


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
        if _below_vacuum(smallest, 1.0):
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


def _too_large(what: str) -> InvalidArgumentError:
    return InvalidArgumentError(f"parameters too large for the spectrum check: {what}")


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
    cancels to zero at pure states and keeps half the digits there. An
    overflow to inf - inf in det X or det P, or to inf / inf in the core
    pair, makes the smallest eigenvalue nan (the core comes first in
    ``min``), which no bound rejects: that raises too.
    ``_bisymmetric_min_nus`` is the same check on a batch.
    """
    terms = _two_block_terms(m, n, a, e1, e2, b, z1, z2, g1, g2, math.sqrt)
    worst = min(terms[:8] if m > 1 and n > 1 else
                terms[:4] + (terms[4:6] if m > 1 else ()) + (terms[6:8] if n > 1 else ()))
    if worst <= 0.0:
        raise _not_positive_definite(worst)
    p, s = terms[8], terms[11]
    diff = p - s
    diff_sq = diff * diff  # as ``_squares`` rounds it
    if math.isinf(diff_sq) and math.isfinite(diff):
        raise _too_large(f"({p:.6e} - {s:.6e})^2 overflows")
    nus = _two_block_nus(terms, diff_sq, math.sqrt, _max_zero)
    smallest = min(nus if m > 1 and n > 1 else
                   nus[:1] + (nus[1:2] if m > 1 else ()) + (nus[2:] if n > 1 else ()))
    if math.isnan(smallest):
        raise _too_large("the smallest symplectic eigenvalue is nan")
    return smallest


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
    errors.record(~overflow.alive, lambda i: _too_large(f"({p[i]:.6e} - {s[i]:.6e})^2 overflows"))
    nus = _two_block_nus(terms, diff_sq, np.sqrt, lambda x: np.where(0.0 > x, 0.0, x))
    smallest = _first_min(nus, (True, m > 1, n > 1))
    errors.record(np.isnan(smallest),
                  lambda i: _too_large("the smallest symplectic eigenvalue is nan"))
    return smallest


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
    are already built; ``take`` selects points.
    """

    m: np.ndarray
    n: np.ndarray
    diagonals: np.ndarray
    errors: _PointErrors

    @classmethod
    def of(cls, specs) -> "BisymmetricBatch":
        """The batch of a sequence of ``BisymmetricSpec``s, which are valid,
        so no point holds an error; any other item is invalid."""
        for spec in specs:
            if not isinstance(spec, BisymmetricSpec):
                raise InvalidArgumentError(
                    f"a spec sequence holds BisymmetricSpecs only, got {type(spec).__name__}")
        columns = np.array(list(map(_DIAGONAL_FIELDS, specs)), dtype=float).reshape(-1, 12).T
        m, n = columns[:2].astype(np.int64)
        return cls(m, n, columns[2:].reshape(5, 2, -1), _PointErrors(len(specs)))

    def take(self, indices: np.ndarray) -> "BisymmetricBatch":
        """The batch of the points at ``indices``, an int array, in that
        order, each with its error."""
        errors = _PointErrors(len(indices))
        errors.record(~self.errors.alive[indices], lambda j: self.errors.errors[indices[j]])
        return type(self)(self.m[indices], self.n[indices], self.diagonals[..., indices], errors)


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
    errors.record(_below_vacuum(smallest, 1.0), lambda i: _unphysical(float(smallest[i])))
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


def fully_symmetric_cm(spec: FullySymmetricSpec) -> CovarianceMatrix:
    """Assemble the permutation-invariant covariance matrix of a spec."""
    diagonals = np.array([[spec.b, spec.b], [spec.z1, spec.z2]])[..., None]
    return CovarianceMatrix(_assemble(spec.modes, 0, diagonals)[0])


def bisymmetric_cm(spec):
    """Assemble the two-block covariance matrix of a spec.

    The first block occupies modes 0..m-1, the second modes m..m+n-1.

    ``spec`` is one ``BisymmetricSpec``, which gives its
    ``CovarianceMatrix``, or a ``BisymmetricBatch`` of one mode count
    m + n, in any mix of shapes (m, n). A batch is assembled and checked
    as one stack, by one ``_assemble`` per shape into one buffer and one
    ``CovarianceMatrix`` check of all its points, and gives that stack:
    read-only, shape (K, 2(m+n), 2(m+n)), each matrix the bits of the
    spec's own. An empty batch, which has no mode count, raises, and so
    does a batch of several, naming them. The first point whose matrix
    fails the check raises its error, or the error the batch holds for
    it. Any other input is invalid.
    """
    if isinstance(spec, BisymmetricBatch):
        return _checked_stack(spec)
    if not isinstance(spec, BisymmetricSpec):
        raise InvalidArgumentError("bisymmetric_cm takes a BisymmetricSpec or a "
                                   f"BisymmetricBatch, got {type(spec).__name__}")
    return CovarianceMatrix._checked(_checked_stack(BisymmetricBatch.of([spec]))[0])


def _checked_stack(batch: BisymmetricBatch) -> np.ndarray:
    """The checked stack of ``bisymmetric_cm`` of a batch."""
    totals = sorted(set((batch.m + batch.n).tolist()))
    if len(totals) != 1:
        shapes = sorted(set(zip(batch.m.tolist(), batch.n.tolist())))
        raise InvalidArgumentError("specs of one mode count m + n required, "
                                   f"got shapes {shapes} of mode counts {totals}")
    [total], ms = totals, sorted(set(batch.m.tolist()))
    if len(ms) == 1:  # no buffer, so that one large matrix is not held twice
        stack = _assemble(ms[0], total - ms[0], batch.diagonals)
    else:
        stack = np.empty((len(batch.m), 2 * total, 2 * total))
        for m in ms:
            rows = np.flatnonzero(batch.m == m)
            if rows[-1] - rows[0] == len(rows) - 1:  # contiguous, as in the suite's (m+n, m) order
                rows = slice(rows[0], rows[-1] + 1)
            stack[rows] = _assemble(m, total - m, batch.diagonals[..., rows])
    errors = _PointErrors(len(batch.m))
    errors.merge(batch.errors)
    stack = _symmetrized(stack, errors)
    _raise_first(errors.errors)
    return stack


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
    except OverflowError:  # a square past float range raises (b >= 1e154 at M = 4)
        root = math.inf
    if not math.isfinite(root):  # the product overflows silently first (b >= 1e77 at M = 4)
        raise InvalidArgumentError(
            f"single-mode eigenvalue b = {b} overflows the {total_modes}-mode pure-state formula",
            offending_value=b,
        )
    denom = 2.0 * b * (big_m - 1.0)
    z1 = (base + root) / denom
    z2 = (base - root) / denom
    return FullySymmetricSpec(total_modes, b, z1, z2)
