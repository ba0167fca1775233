"""Reference samplers, random states and brute-force scans for the tests.

These are test inputs and references, not library code: ``ScalarSampler``
draws specs with one live generator call per block size and per
parameter, a source of fully symmetric, separable and two-block test
inputs; the random symplectic helpers need scipy, which only the test
suite installs; the scan evaluates definitions through the library's
dense oracle; and the small conveniences at the end (bit patterns, call
outcomes, matrix comparison, CSV text, swapped splits, block specs, the
dense spectrum and its general-eigensolver reference, a reduction's
JSON object) are used by the tests alone.
"""

import numpy as np
import scipy.linalg

import entloc as el
from entloc.errors import InvalidArgumentError
from entloc.oracle import oracle_pt_log_negativity
from entloc.symplectic import (
    _csv_text,
    _omega_times,
    _scale,
    float_reprs,
    matrix_to_json_dict,
)

# ---------------------------------------------------------------------------
# Specs drawn with live generator calls.
# ---------------------------------------------------------------------------


class ScalarSampler:
    """Rejection sampler over the boxes of ``SpecSampler`` and with its
    defaults, drawing one spec at a time: one ``rng.integers`` call per
    drawn block size and one ``rng.uniform`` call per parameter.

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
        """One two-block spec over the boxes of ``SpecSampler.bisymmetric``,
        though not its stream: that sampler draws a block of attempts at a
        time."""
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


def bits(values) -> np.ndarray:
    """The IEEE bit patterns of float values, for exact comparisons."""
    return np.asarray(values, dtype=float).view(np.uint64)


def outcome(call):
    """The value of a call, or the type and message of its EntlocError."""
    try:
        return call()
    except el.EntlocError as exc:
        return type(exc), str(exc)


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


def oracle_symplectic_spectrum(cm: el.CovarianceMatrix) -> np.ndarray:
    """The dense symplectic spectrum of the brute-force oracle, descending:
    its kernel is the one ``symplectic_eigenvalues`` runs."""
    return el.symplectic_eigenvalues(cm).values


def eigvals_symplectic_spectra(matrix: np.ndarray) -> np.ndarray:
    """The dense symplectic spectrum by a general eigensolver, the
    definition the oracle used before its Cholesky kernel, kept as the
    reference of that kernel's accuracy: all paired |Im eigenvalue| of
    Omega @ matrix, descending, for one matrix or along the last axis of
    a stack of them. It takes any matrix, positive definite or not."""
    eigenvalues = np.linalg.eigvals(_omega_times(matrix))
    magnitudes = np.sort(np.abs(eigenvalues.imag), axis=-1)[..., ::-1]
    return 0.5 * (magnitudes[..., 0::2] + magnitudes[..., 1::2])


def localization_to_json_dict(result: el.LocalizationResult) -> dict:
    """A ``localize`` result as the JSON object the CLI prints for it."""
    return {
        "local_symplectic": matrix_to_json_dict(result.local_symplectic),
        "cm_final": matrix_to_json_dict(result.cm_final.matrix),
        "equivalent": result.equivalent.to_json_dict(),
        "residual": result.residual,
    }
