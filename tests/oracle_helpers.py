"""Reference samplers, random states and brute-force scans for the tests.

These are test inputs and references, not library code: ``ScalarSampler``
draws specs with one live generator call per block size and per
parameter, the sampler ``entloc.oracle.SpecSampler`` replays; the random
symplectic helpers need scipy, which only the test suite installs; the
scans and spectrum clusters evaluate definitions through the library's
dense oracle; the one-call forms of the sampler's raw-word replay are the
reference its inlined walk is held to; and the small conveniences at the
end (matrix comparison, CSV text, swapped splits, block specs, the
invariant nu~ pair, the dense spectrum, a reduction's JSON object) are
used by the tests alone.
"""

import numpy as np
import scipy.linalg

import entloc as el
from entloc.errors import InvalidArgumentError
from entloc.localization import _nu_tilde_pairs
from entloc.oracle import _HALF_MASK, _dense_symplectic_spectrum, oracle_pt_log_negativity
from entloc.symplectic import (
    _csv_text,
    _scalar_batch,
    _scale,
    cm_to_json_dict,
    float_reprs,
    matrix_to_json_dict,
)

# ---------------------------------------------------------------------------
# Specs drawn with live generator calls.
# ---------------------------------------------------------------------------


class ScalarSampler:
    """Rejection sampler over the boxes of ``SpecSampler`` and with its
    defaults, drawing as the library once did: one ``rng.integers`` call
    per drawn block size and one ``rng.uniform`` call per parameter.

    ``seed`` is a seed or a ``Generator``, which is then drawn from as it
    stands, so that these draws can follow other draws on one stream.
    """

    def __init__(self, seed, max_block=6, b_box=(1.0, 3.0), corr_box=(-0.8, 0.8),
                 cross_box=(-0.6, 0.6), max_tries=10_000):
        self.rng = np.random.default_rng(seed)
        self.max_block = max_block
        self.b_box, self.corr_box, self.cross_box = b_box, corr_box, cross_box
        self.max_tries = max_tries
        self.attempts = self.accepted = 0

    def _uniform(self, box):
        return float(self.rng.uniform(*box))

    def _size(self, given, low=1):
        return given if given is not None else int(self.rng.integers(low, self.max_block + 1))

    def _draw(self, build):
        for _ in range(self.max_tries):
            self.attempts += 1
            try:
                spec = build()
            except InvalidArgumentError:
                continue
            self.accepted += 1
            return spec
        raise RuntimeError("rejection sampling failed to produce a physical spec")

    def fully_symmetric(self, modes=None):
        """One spec of ``modes`` modes, or of 2..max_block modes drawn."""
        def build():
            return el.FullySymmetricSpec(
                self._size(modes, 2), self._uniform(self.b_box),
                self._uniform(self.corr_box), self._uniform(self.corr_box),
            )

        return self._draw(build)

    def bisymmetric(self, m=None, n=None):
        """One two-block spec: what ``SpecSampler.bisymmetric`` draws."""
        def build():
            mm, nn = self._size(m), self._size(n)
            return el.BisymmetricSpec(
                m=mm,
                n=nn,
                a=self._uniform(self.b_box),
                e1=self._uniform(self.corr_box) if mm > 1 else 0.0,
                e2=self._uniform(self.corr_box) if mm > 1 else 0.0,
                b=self._uniform(self.b_box),
                z1=self._uniform(self.corr_box) if nn > 1 else 0.0,
                z2=self._uniform(self.corr_box) if nn > 1 else 0.0,
                g1=self._uniform(self.cross_box),
                g2=self._uniform(self.cross_box),
            )

        return self._draw(build)

    def separable_bisymmetric(self, m=None, n=None):
        """Product (g = 0) or classically correlated (g1 = g2 > 0) draws:
        same-sign x-x and p-p correlations between thermal blocks arise
        from mixing product states, hence stay separable."""
        def build():
            mm, nn = self._size(m), self._size(n)
            if self.rng.random() < 0.5:
                g1 = g2 = 0.0
            else:
                g1 = g2 = float(self.rng.uniform(0.0, self.cross_box[1]))
            return el.BisymmetricSpec(
                m=mm,
                n=nn,
                a=self._uniform((1.2, self.b_box[1])),
                e1=self._uniform(self.corr_box) / 2 if mm > 1 else 0.0,
                e2=self._uniform(self.corr_box) / 2 if mm > 1 else 0.0,
                b=self._uniform((1.2, self.b_box[1])),
                z1=self._uniform(self.corr_box) / 2 if nn > 1 else 0.0,
                z2=self._uniform(self.corr_box) / 2 if nn > 1 else 0.0,
                g1=g1,
                g2=g2,
            )

        return self._draw(build)


# ---------------------------------------------------------------------------
# The raw-word replay, one generator call at a time.
# ---------------------------------------------------------------------------


def raw_skip(stream, count: int) -> int:
    """Consume ``count`` words of an ``entloc.oracle._RawStream``, reading
    what is short; the index of the first in ``stream.words``."""
    stream.reserve(count)
    stream.pos += count
    return stream.pos - count


def raw_integers(stream, lo: int, hi: int) -> int:
    """``Generator.integers(lo, hi)`` replayed on an ``entloc.oracle._RawStream``
    by Lemire's method on its 32-bit halves; a span of one draws nothing."""
    span = hi - lo
    if span == 1:
        return lo
    if not 1 <= span <= _HALF_MASK:
        raise ValueError(f"the replay draws spans of 1 to 2**32 - 1, got {span}")
    threshold = (_HALF_MASK + 1 - span) % span
    while True:
        half = stream.half
        if half is None:
            start = raw_skip(stream, 1)  # the read may replace stream.words
            word = stream.words.item(start)
            half, stream.half = word & _HALF_MASK, word >> 32
        else:
            stream.half = None
        product = half * span
        if product & _HALF_MASK >= threshold:
            return lo + (product >> 32)


# ---------------------------------------------------------------------------
# Random symplectic maps and bona fide covariance matrices.
# ---------------------------------------------------------------------------


def random_symplectic(modes: int, rng: np.random.Generator, strength: float = 0.3) -> np.ndarray:
    """exp(Omega A) for a random symmetric A; strength scales A."""
    a = rng.normal(size=(2 * modes, 2 * modes))
    a = strength * 0.5 * (a + a.T)
    return scipy.linalg.expm(el.symplectic_form(modes) @ a)


def random_local_symplectic(m: int, n: int, rng: np.random.Generator, strength: float = 0.3):
    return scipy.linalg.block_diag(
        random_symplectic(m, rng, strength), random_symplectic(n, rng, strength)
    )


def random_bona_fide_cm(
    modes: int,
    rng: np.random.Generator,
    max_thermal: float = 3.0,
    strength: float = 0.3,
) -> el.CovarianceMatrix:
    """S^T diag(nu...) S for random thermal eigenvalues and random symplectic S."""
    nus = 1.0 + (max_thermal - 1.0) * rng.random(modes)
    s = random_symplectic(modes, rng, strength)
    return el.CovarianceMatrix(s.T @ np.diag(np.repeat(nus, 2)) @ s)


# ---------------------------------------------------------------------------
# Brute-force scans.
# ---------------------------------------------------------------------------


def oracle_spectrum_multiplicities(
    cm: el.CovarianceMatrix, tol_cluster: float | None = None
) -> list[tuple[float, int]]:
    """Clustered dense symplectic spectrum, for degeneracy claims."""
    nus = oracle_symplectic_spectrum(cm)
    if tol_cluster is None:
        tol_cluster = 1e-7 * max(1.0, float(nus[0]))
    clusters: list[list[float]] = []
    for v in nus:
        if clusters and abs(clusters[-1][0] - v) <= tol_cluster:
            clusters[-1].append(float(v))
        else:
            clusters.append([float(v)])
    return [(sum(c) / len(c), len(c)) for c in clusters]


def exhaustive_bipartition_scan(cm: el.CovarianceMatrix, max_half: int | None = None):
    """(k, E_N) for every first-k x rest split of a permutation-invariant state.

    Every k-subset of a fully symmetric state is equivalent, so scanning
    contiguous splits is exhaustive. Desk-scale only (M <= 30).
    """
    total = cm.modes
    if total > 30:
        raise InvalidArgumentError(f"scan limited to 30 modes, got {total}")
    results = []
    upper = total // 2 if max_half is None else min(max_half, total - 1)
    for k in range(1, upper + 1):
        part = el.ModeBipartition(tuple(range(k)), tuple(range(k, total)))
        results.append((k, oracle_pt_log_negativity(cm, part)))
    return results


# ---------------------------------------------------------------------------
# Conveniences only the tests use.
# ---------------------------------------------------------------------------


def cm_allclose(cm: el.CovarianceMatrix, other: el.CovarianceMatrix, tol: float = 1e-12) -> bool:
    """Equal mode counts and entries within ``tol`` times the scale of ``cm``."""
    return cm.modes == other.modes and bool(
        np.max(np.abs(cm.matrix - other.matrix)) <= tol * _scale(cm.matrix)
    )


def cm_to_csv_text(cm: el.CovarianceMatrix) -> str:
    """The CSV text ``save_cm`` writes for ``cm``."""
    return _csv_text(float_reprs(cm.matrix))


def swapped(part: el.ModeBipartition) -> el.ModeBipartition:
    return el.ModeBipartition(part.side_b, part.side_a)


def alpha_block_spec(spec: el.BisymmetricSpec) -> el.FullySymmetricSpec:
    """The fully symmetric state of the first block of ``spec``."""
    return el.FullySymmetricSpec(spec.m, spec.a, spec.e1, spec.e2)


def beta_block_spec(spec: el.BisymmetricSpec) -> el.FullySymmetricSpec:
    """The fully symmetric state of the second block of ``spec``."""
    return el.FullySymmetricSpec(spec.n, spec.b, spec.z1, spec.z2)


def nu_tilde_pair(eq) -> tuple[float, float]:
    """PT symplectic eigenvalues of an ``EquivalentTwoMode`` from its
    invariants alone.

    2 nu~^2 = Delta~ -/+ sqrt(Delta~^2 - 4/mu_eq^2), with
    Delta~ = 2 det A + 2 det B - Delta_eq.
    """
    m = eq.cm_eq.matrix
    return _scalar_batch(_nu_tilde_pairs, m[0:2, 0:2], m[2:4, 2:4], eq.delta_eq, eq.mu_eq)


def oracle_symplectic_spectrum(cm: el.CovarianceMatrix) -> np.ndarray:
    """The dense symplectic spectrum of the brute-force oracle, descending."""
    return _dense_symplectic_spectrum(np.array(cm.matrix))


def localization_to_json_dict(result: el.LocalizationResult) -> dict:
    """A ``localize`` result as the JSON object the CLI prints for it."""
    return {
        "local_symplectic": matrix_to_json_dict(result.local_symplectic),
        "cm_final": cm_to_json_dict(result.cm_final),
        "equivalent": result.equivalent.to_json_dict(),
        "residual": result.residual,
    }
