import dataclasses
import json
import math

import mpmath as mp
import numpy as np
import pytest

import entloc as el
from entloc.errors import InvalidArgumentError, LocalizationError
from entloc.experiments import traced_symmetric_spec
from entloc.oracle import SpecSampler, oracle_pt_log_negativity
from entloc.entanglement import NOT_A_STATE
from entloc.states import BisymmetricBatch, _assemble
from entloc.symplectic import TOL, _PointErrors, _symplectic_spectra
from oracle_helpers import (
    ScalarSampler,
    alpha_block_spec,
    beta_block_spec,
    cm_allclose,
    exhaustive_bipartition_scan,
    localization_to_json_dict,
    oracle_symplectic_spectrum,
    random_bona_fide_cm,
    random_symplectic,
)
import paper_formulas as pf


_split = el.ModeBipartition.contiguous


# ---------------------------------------------------------------------------
# Closed-form block spectra.
# ---------------------------------------------------------------------------


def test_block_spectrum_thermal_limit():
    spec = el.FullySymmetricSpec(4, 1.8)
    assert spec.nu_minus() == pytest.approx(1.8)
    assert spec.nu_plus() == pytest.approx(1.8)
    spectrum = el.symplectic_eigenvalues(el.fully_symmetric_cm(spec))
    assert spectrum.clustered() == [(pytest.approx(1.8), 4)]


def test_block_spectrum_matches_two_mode_closed_form():
    spec = el.FullySymmetricSpec(2, 1.6, 0.3, -0.25)
    nu_minus, nu_plus = pf.two_mode_symplectic_eigenvalues(el.fully_symmetric_cm(spec))
    assert sorted((spec.nu_minus(), spec.nu_plus())) == pytest.approx(
        [nu_minus, nu_plus], rel=1e-12
    )


def test_block_spectrum_matches_dense_oracle_with_multiplicities():
    spec = el.FullySymmetricSpec(5, 1.4, 0.2, -0.1)
    clusters = el.symplectic_eigenvalues(el.fully_symmetric_cm(spec)).clustered()
    assert len(clusters) == 2
    by_mult = {m: v for v, m in clusters}
    assert by_mult[4] == pytest.approx(spec.nu_minus(), rel=1e-9)
    assert by_mult[1] == pytest.approx(spec.nu_plus(), rel=1e-9)


def test_nu_plus_from_two_mode_collapses_at_two():
    assert pf.nu_plus_from_two_mode(2, 0.7, 1.1, 1.9) == pytest.approx(1.9, rel=1e-12)


def test_nu_plus_from_two_mode_thermal():
    for n in (2, 3, 7):
        assert pf.nu_plus_from_two_mode(n, 1.0 / 1.7, 1.7, 1.7) == pytest.approx(1.7, rel=1e-12)


def test_nu_plus_identity_random_specs():
    sampler = ScalarSampler(808, max_block=10)
    for _ in range(200):
        spec = sampler.fully_symmetric()
        two_mode = dataclasses.replace(spec, modes=2)
        via_two = pf.nu_plus_from_two_mode(
            spec.modes, 1.0 / spec.b, two_mode.nu_minus(), two_mode.nu_plus()
        )
        assert via_two == pytest.approx(spec.nu_plus(), rel=1e-10)


def test_nu_plus_identity_elevated_precision():
    # the same identity evaluated at 34 significant digits on a grid
    mp.mp.dps = 34
    rng = np.random.default_rng(515)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 12))
        b = float(rng.uniform(1.0, 3.0))
        z1 = float(rng.uniform(-0.8, 0.8))
        z2 = float(rng.uniform(-0.8, 0.8))
        try:
            el.FullySymmetricSpec(n, b, z1, z2)
        except InvalidArgumentError:
            continue
        checked += 1
        bb, zz1, zz2 = mp.mpf(b), mp.mpf(z1), mp.mpf(z2)
        nu_minus = mp.sqrt((bb - zz1) * (bb - zz2))
        nu_plus_2 = mp.sqrt((bb + zz1) * (bb + zz2))
        direct = mp.sqrt((bb + (n - 1) * zz1) * (bb + (n - 1) * zz2))
        via = mp.sqrt(
            -n * (n - 2) * bb**2 + mp.mpf(n - 1) / 2 * (n * nu_plus_2**2 + (n - 2) * nu_minus**2)
        )
        assert abs(via - direct) <= mp.mpf("1e-30") * max(1, direct)
        floats = pf.nu_plus_from_two_mode(n, 1.0 / b, float(nu_minus), float(nu_plus_2))
        assert floats == pytest.approx(float(direct), rel=1e-10)


def _spectrum_purity(spec) -> float:
    """The purity of a fully symmetric state from its block spectrum:
    (nu_minus^{n-1} nu_plus)^{-1}."""
    return 1.0 / (spec.nu_minus() ** (spec.modes - 1) * spec.nu_plus())


def test_fs_global_purity_pure_family():
    for modes in (2, 5, 9):
        spec = el.ghz_type_spec(modes, 1.7)
        assert _spectrum_purity(spec) == pytest.approx(1.0, abs=1e-9)
        assert el.purity(el.fully_symmetric_cm(spec)) == pytest.approx(1.0, abs=1e-9)


def test_fs_global_purity_thermal():
    spec = el.FullySymmetricSpec(4, 1.9)
    assert _spectrum_purity(spec) == pytest.approx(1.9**-4, rel=1e-12)
    assert el.purity(el.fully_symmetric_cm(spec)) == pytest.approx(1.9**-4, rel=1e-12)


def test_fs_global_purity_matches_determinant():
    sampler = ScalarSampler(99, max_block=8)
    for _ in range(25):
        spec = sampler.fully_symmetric()
        direct = el.purity(el.fully_symmetric_cm(spec))
        assert _spectrum_purity(spec) == pytest.approx(direct, rel=1e-8)


def test_global_delta_trivial_case():
    spec = el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0)
    assert pf.global_delta_bisym(spec) == pytest.approx(1.5**2 + 2.0**2)


def test_global_delta_matches_block_sum_oracle():
    for spec in SpecSampler(7, max_block=5).bisymmetric(count=25):
        assembled = el.delta_invariant(el.bisymmetric_cm(spec))
        assert pf.global_delta_bisym(spec) == pytest.approx(assembled, rel=1e-9)


def test_global_delta_fully_symmetric_split():
    spec = el.FullySymmetricSpec(6, 1.5, 0.25, -0.2)
    bspec = pf.fs_split_spec(spec, 3)
    assert pf.global_delta_bisym(bspec) == pytest.approx(
        el.delta_invariant(el.fully_symmetric_cm(spec)), rel=1e-9
    )


# ---------------------------------------------------------------------------
# Invariant route to the equivalent state.
# ---------------------------------------------------------------------------


def test_equivalent_uncorrelated_is_product():
    spec = el.BisymmetricSpec(2, 3, 1.4, 0.1, -0.1, 1.6, 0.2, -0.15, 0.0, 0.0)
    eq = pf.equivalent_two_mode(spec)
    m = eq.cm_eq.matrix
    assert np.all(m[:2, 2:] == 0.0)
    nu_a = alpha_block_spec(spec).nu_plus()
    nu_b = beta_block_spec(spec).nu_plus()
    assert eq.mu_eq == pytest.approx(1.0 / (nu_a * nu_b), rel=1e-10)
    assert el.equivalent_report(spec).log_negativity == 0.0
    assert el.equivalent_report(spec).separable is True


def _pure_or_thermal_block(size, b):
    """(b, z1, z2) of a pure fully symmetric block of ``size`` modes, or of
    the thermal diag(b, b) for a block of one mode."""
    if size == 1:
        return b, 0.0, 0.0
    block = traced_symmetric_spec(size, 0, b)
    return block.b, block.z1, block.z2


def _uncorrelated_products():
    """g = 0 products of two such blocks: sizes 1-5 each, and each block's
    b on 12 points of [1.05, 3], 3600 specs."""
    grid = np.linspace(1.05, 3.0, 12).tolist()
    return [
        el.BisymmetricSpec(m, n, *_pure_or_thermal_block(m, b_a), *_pure_or_thermal_block(n, b_b),
                           0.0, 0.0)
        for m in range(1, 6) for n in range(1, 6) for b_a in grid for b_b in grid
    ]


@pytest.mark.portable(reason="the exact zeros of uncorrelated products (E_N, N, EoF and the cross "
                             "block) come from a d - b c and elementwise numpy")
def test_products_of_uncorrelated_blocks_are_separable_with_no_entanglement():
    """The PT eigenvalues of a product are the blocks' nu_plus, which for a
    pure block is 1 up to the rounding of its parameters: each product
    reads separable with E_N, N and EoF exactly 0."""
    specs = _uncorrelated_products()
    reports = el.equivalent_report(specs)
    assert len(reports) == 3600
    assert all(r.separable is True for r in reports)
    assert {(r.log_negativity, r.negativity) for r in reports} == {(0.0, 0.0)}
    assert {r.eof for r in reports} == {None, 0.0}
    assert min(r.nu_tilde_min for r in reports) == 1.0


@pytest.mark.portable(reason="the exact zeros of uncorrelated products (E_N, N, EoF and the cross "
                             "block) come from a d - b c and elementwise numpy")
def test_products_of_uncorrelated_blocks_have_an_exactly_zero_cross_block():
    """|c_plus| + |c_minus| = 0 exactly when g = 0, and both are +0.0."""
    for spec in _uncorrelated_products()[::7]:
        cross = pf.equivalent_two_mode(spec).cm_eq.matrix[:2, 2:]
        assert not np.any(_bits(cross)), spec


def _nu_tilde_reference(spec):
    """nu~_minus of a standard-form spec's equivalent state from the 4x4
    invariants, to 50 digits: 2 nu~^2 = D - sqrt(D^2 - 4 det sigma), with
    D = det A' + det B' - 2 det C'."""
    with mp.workdps(50):
        m, n = mp.mpf(spec.m), mp.mpf(spec.n)
        a1, a2 = spec.a + (m - 1) * mp.mpf(spec.e1), spec.a + (m - 1) * mp.mpf(spec.e2)
        b1, b2 = spec.b + (n - 1) * mp.mpf(spec.z1), spec.b + (n - 1) * mp.mpf(spec.z2)
        c1, c2 = mp.sqrt(m * n) * spec.g1, mp.sqrt(m * n) * spec.g2
        det = (a1 * b1 - c1 * c1) * (a2 * b2 - c2 * c2)
        tilde = a1 * a2 + b1 * b2 - 2 * c1 * c2
        return mp.sqrt((tilde - mp.sqrt(tilde * tilde - 4 * det)) / 2)


@pytest.mark.parametrize("seed", [5, 26])
def test_equivalent_nu_tilde_of_entangled_draws_matches_a_50_digit_reference(seed):
    """Within 32 units of roundoff, relative; 11 seeds of 2000 draws gave
    at most 14."""
    specs = SpecSampler(seed).bisymmetric(count=2000)
    entangled = [(s, r) for s, r in zip(specs, el.equivalent_report(specs)) if not r.separable]
    assert len(entangled) > 100
    for spec, report in entangled:
        reference = _nu_tilde_reference(spec)
        assert abs(report.nu_tilde_min - reference) <= 32 * 2.0**-53 * reference, spec


def _traced_family_splits():
    specs = []
    for modes, q in ((20, 0), (20, 4), (8, 0), (30, 2)):
        for b in np.linspace(1.01, 30.0, 40).tolist():
            parent = traced_symmetric_spec(modes, q, b)
            specs += [pf.fs_split_spec(parent, k) for k in (1, modes // 2)]
    return specs


def test_separable_flags_agree_with_the_dense_pt_spectrum():
    """On 3000 sampler draws and the k = 1 and M/2 splits of four traced
    families, each invariant-route flag is the one the dense PT spectrum of
    the assembled matrix gives."""
    specs = SpecSampler(11).bisymmetric(count=3000) + _traced_family_splits()
    reports = el.equivalent_report(specs)
    groups = {}
    for index, spec in enumerate(specs):
        groups.setdefault((spec.m, spec.n), []).append(index)
    dense = np.empty(len(specs), dtype=bool)
    for (m, n), indices in groups.items():
        stack = el.bisymmetric_cm(BisymmetricBatch.of([specs[i] for i in indices]))
        signs = np.ones(2 * (m + n))
        signs[2 * m + 1 :: 2] = -1.0
        errors = _PointErrors(len(indices))
        nus = _symplectic_spectra(stack * np.outer(signs, signs), errors)
        assert errors.alive.all()
        dense[indices] = nus.min(axis=1) >= 1.0 - TOL.PPT
    flags = np.array([r.separable for r in reports])
    assert 400 < np.count_nonzero(~flags) < len(specs) - 400
    assert np.array_equal(flags, dense)
    assert all(map(_ppt_consistent, reports))


def _ppt_consistent(report) -> bool:
    """Whether a decisive report says separable exactly when E_N, N and
    its EoF, if any, are 0."""
    zero = report.log_negativity == 0.0 and report.negativity == 0.0 and report.eof in (None, 0.0)
    entangled = report.log_negativity > 0.0 and report.negativity > 0.0 and report.eof != 0.0
    return report.separable is True and zero or report.separable is False and entangled


# a = 1.5 and e = z = 0.1 inside a block of more than one mode, b such that
# b + (n-1) z = a + (m-1) e, and g1 = -g2 = g, so that the equivalent state
# is symmetric with nu~ = a + (m-1) e - sqrt(mn) g, here 1 + offset
@pytest.mark.portable(reason="the clamp of a PT eigenvalue within TOL.PPT of 1 and the separable "
                             "flag read from it are elementwise numpy, on both routes")
@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (1, 3)])
@pytest.mark.parametrize("offset, separable", [
    (-5e-10, False), (-2e-10, False), (-1.2e-10, False),
    (-0.8e-10, True), (-5e-11, True), (0.0, True), (5e-11, True),
], ids=["below-5e-10", "below-2e-10", "below-1.2e-10", "below-0.8e-10", "below-5e-11",
        "at-1", "above-5e-11"])
def test_ppt_band_decides_separable_and_zeros_alike(m, n, offset, separable):
    """A PT eigenvalue within TOL.PPT of 1 reads 1 and a state is separable
    exactly when E_N = N = EoF = 0, on the invariant and the dense route.
    Below the band the state is entangled with E_N > 0: before, nu~ in
    [1 - 1e-9, 1 - 1e-10) read separable beside E_N ~ 1 - nu~ > 0."""
    g = (1.5 + 0.1 * (m - 1) - (1.0 + offset)) / math.sqrt(m * n)
    spec = el.BisymmetricSpec(m, n, 1.5, *[0.1 * (m > 1)] * 2, 1.5 + 0.1 * (m - n),
                              *[0.1 * (n > 1)] * 2, g, -g)
    cm = el.bisymmetric_cm(spec)
    dense = el.log_negativity(cm, _split(m, n))
    # PPT decides two-block states: the dense route's decision is nu~ >= 1
    routes = [el.equivalent_report(spec), el.equivalent_report_from_cm(cm, m, n),
              dataclasses.replace(dense, separable=dense.nu_tilde_min >= 1.0)]
    for report in routes:
        assert abs(report.nu_tilde_min - (1.0 + offset)) < 1e-14 or report.nu_tilde_min == 1.0
        assert report.separable is separable, report
        assert _ppt_consistent(report), report
        if not separable:
            assert report.log_negativity == pytest.approx(-offset, rel=1e-4)


def test_c_minus_cancellation_stays_within_its_stated_bound():
    """At g2 = -g1 the radicand S + 2P = (c_plus + c_minus)^2 of the
    equivalent state cancels, so the invariant route knows c_minus only to
    about sqrt(eps S) (the bound ``TOL`` states); E_N, read from S and P,
    still matches the dense route within the suite's tolerances. The
    family: a = b, e = z inside blocks of more than one mode, whose exact
    cross block is sqrt(mn) diag(g, -g)."""
    eps = np.finfo(float).eps
    for m, n in [(1, 1), (2, 3), (5, 5), (1, 4), (4, 6)]:
        for g in [0.25000000025, 0.123456789, 0.05, 0.01]:
            for a, e in [(1.5, 0.1), (2.0, 0.3)]:
                spec = el.BisymmetricSpec(m, n, a, *[e * (m > 1)] * 2, a, *[e * (n > 1)] * 2, g, -g)
                matrix = pf.equivalent_two_mode(spec).cm_eq.matrix
                c_plus, c_minus = matrix[0, 2], matrix[1, 3]
                with mp.workdps(50):
                    error = abs(float(mp.mpf(c_minus) + mp.sqrt(m * n) * mp.mpf(g)))
                bound = math.sqrt(eps * (c_plus * c_plus + c_minus * c_minus))
                assert error <= bound, (m, n, g, a, e, error / bound)
                invariant = el.equivalent_report(spec).log_negativity
                dense = el.log_negativity(el.bisymmetric_cm(spec), _split(m, n)).log_negativity
                assert (abs(invariant - dense) <= TOL.ROUTE_ABS
                        or abs(invariant - dense) <= TOL.ROUTE_REL * max(invariant, dense))


def test_equivalent_cm_consistent_with_its_invariants():
    for spec in SpecSampler(13, max_block=6).bisymmetric(count=50):
        eq = pf.equivalent_two_mode(spec)
        assert el.purity(eq.cm_eq) == pytest.approx(eq.mu_eq, rel=1e-8)
        assert el.delta_invariant(eq.cm_eq) == pytest.approx(eq.delta_eq, rel=1e-8)


def test_equivalent_pure_parent_is_two_mode_squeezed():
    spec = el.ghz_type_spec(6, 1.5)
    eq = pf.equivalent_two_mode(pf.fs_split_spec(spec, 2))
    assert eq.mu_eq == pytest.approx(1.0, abs=1e-7)
    assert el.purity(eq.cm_eq) == pytest.approx(1.0, abs=1e-7)
    report = el.equivalent_report(pf.fs_split_spec(spec, 2))
    assert report.log_negativity > 0.0


def test_equivalent_nu_tilde_matches_pt_of_explicit_matrix():
    for spec in SpecSampler(17, max_block=6).bisymmetric(count=50):
        eq = pf.equivalent_two_mode(spec)
        from_invariants = pf.pt_two_mode_nu_tilde(eq.cm_eq)
        dense = np.sort(el.pt_spectrum(eq.cm_eq, _split(1, 1)).values)
        assert from_invariants == pytest.approx(tuple(dense), rel=1e-9)


def test_equivalent_purification_direction():
    for spec in SpecSampler(19, max_block=5).bisymmetric(count=50):
        eq = pf.equivalent_two_mode(spec)
        mu_parent = el.purity(el.bisymmetric_cm(spec))
        assert eq.mu_eq >= mu_parent - 1e-10
        nu_a = alpha_block_spec(spec).nu_minus() if spec.m > 1 else 1.0
        nu_b = beta_block_spec(spec).nu_minus() if spec.n > 1 else 1.0
        predicted = nu_a ** (spec.m - 1) * nu_b ** (spec.n - 1) * mu_parent
        assert eq.mu_eq == pytest.approx(predicted, rel=1e-8)
        if abs(nu_a - 1.0) <= 1e-8 and abs(nu_b - 1.0) <= 1e-8:
            assert eq.mu_eq == pytest.approx(mu_parent, rel=1e-8)


def test_equivalent_traced_parent_keeps_purity():
    # traced pure parents have nu_minus = 1: localization changes nothing
    parent = el.ghz_type_spec(10, 1.5)
    spec = dataclasses.replace(parent, modes=6)
    bspec = pf.fs_split_spec(spec, 3)
    eq = pf.equivalent_two_mode(bspec)
    mu_parent = el.purity(el.fully_symmetric_cm(spec))
    assert spec.nu_minus() == pytest.approx(1.0, abs=1e-9)
    assert eq.mu_eq == pytest.approx(mu_parent, rel=1e-8)


def test_equivalent_from_cm_matches_spec_route():
    for spec in SpecSampler(23, max_block=5).bisymmetric(count=20):
        eq_spec = pf.equivalent_two_mode(spec)
        eq_cm = pf.equivalent_two_mode(el.bisymmetric_cm(spec), spec.m, spec.n)
        assert np.allclose(eq_spec.cm_eq.matrix, eq_cm.cm_eq.matrix, atol=1e-10)


def _random_pattern_matrices(seed: int, per_split: int):
    """(m, n, matrix) of seeded random two-block matrices with diagonal
    pattern blocks, ``per_split`` for each split m | n of 2 to 6 modes:
    the diagonals of alpha and beta are |N(0, 2)|, those of eps, zeta and
    gamma N(0, 2). Most of them are no state."""
    rng = np.random.default_rng(seed)
    for total in range(2, 7):
        for m in range(1, total):
            diagonals = rng.normal(0.0, 2.0, (5, 2, per_split))
            diagonals[0:4:2] = np.abs(diagonals[0:4:2])
            for matrix in _assemble(m, total - m, diagonals):
                yield m, total - m, el.CovarianceMatrix(matrix)


def test_invariant_route_reports_a_matrix_exactly_when_it_is_a_state():
    """Over 2010 random pattern matrices, the invariant route gives a
    report exactly where ``is_bona_fide`` holds, with the dense route's
    E_N, and every other matrix fails with the dense route's error: the
    state is judged before any numerical check of the kernel or the
    report. Without that check, 143 of these non-states got a report, and
    judged after those checks, most failed with a negative radicand."""
    reports = not_states = 0
    for m, n, cm in _random_pattern_matrices(2024, 134):
        try:
            report = el.equivalent_report_from_cm(cm, m, n)
        except el.EntlocError as exc:
            assert not el.is_bona_fide(cm), (m, n, cm.matrix.tolist())
            assert (type(exc), str(exc)) == (InvalidArgumentError, NOT_A_STATE), (m, n)
            not_states += 1
            continue
        assert el.is_bona_fide(cm), (m, n, cm.matrix.tolist())
        dense = el.log_negativity(cm, _split(m, n)).log_negativity
        difference = abs(report.log_negativity - dense)
        assert (difference <= TOL.ROUTE_ABS
                or difference <= TOL.ROUTE_REL * max(report.log_negativity, dense)), (m, n)
        reports += 1
    # neither side of the rule is vacuous
    assert reports >= 10 and not_states >= 100, (reports, not_states)


# matrices that pass the invariant route's kernel and report but are no
# state; each read an exit-0 report before
NOT_STATES = {
    # every symplectic eigenvalue 0.5; it read E_N = 2 ln 2
    "half-vacuum": 0.5 * np.eye(4),
    # negative definite; it read the E_N of the state
    "negated-pure": -el.fully_symmetric_cm(el.ghz_type_spec(4, 1.5)).matrix,
    # positive definite, with a 4-mode pattern whose nu are 0.8 and 0.4
    "sub-vacuum-pattern": _assemble(4, 0, np.array([[0.5, 0.5], [0.1, 0.1]])[..., None])[0],
}


@pytest.mark.parametrize("name", sorted(NOT_STATES))
def test_invariant_route_rejects_a_matrix_that_is_no_state(name):
    """Each split of the matrix fails as the dense route fails it."""
    cm = el.CovarianceMatrix(NOT_STATES[name])
    ks = range(1, cm.modes // 2 + 1)
    errors = el.equivalent_report_from_cm(cm, ks, [cm.modes - k for k in ks])
    assert {(type(error), str(error)) for error in errors} == {(InvalidArgumentError, NOT_A_STATE)}
    with pytest.raises(InvalidArgumentError, match=f"^{NOT_A_STATE}$"):
        el.log_negativity(cm, _split(1, cm.modes - 1))
    assert not el.is_bona_fide(cm)


@pytest.mark.parametrize("scale", [1e50, 1e77, 1e80, 1e100, 1e150])
def test_invariant_route_reports_an_overflow_of_a_finite_matrix_as_an_overflow(scale):
    """A finite, physical matrix scaled past the route's float range fails
    with the overflow of its (nu_plus_a nu_plus_b)^4, a NumericalDomainError.
    From 1e80 on, the invariants themselves overflow first; that used to
    read as invalid input with "non-finite entries"."""
    cm = el.CovarianceMatrix(
        el.fully_symmetric_cm(el.FullySymmetricSpec(4, 1.6, 0.3, -0.2)).matrix * scale)
    with pytest.raises(el.NumericalDomainError, match=r"^overflow: the square of .* is out of "
                                                      r"float range$"):
        el.equivalent_report_from_cm(cm, 2, 2)


@pytest.mark.parametrize("size", [2_200_000_000, 3_100_000_000])
def test_invariant_route_block_sizes_past_int64_products(size):
    """2 m n (at m = n = 2.2e9) or m n (at 3.1e9) is past 2**63, where an
    int64 product wraps. The report is finite, and per mode within 1e-8 of
    the report at m = n = 2e9, whose 2 m n is below 2**63 (the wrapped
    product was 9% off at 2.2e9)."""
    fields = (2.4, 0.24, 0.3, 1.8, 0.35, 0.2, 0.03, -0.03)
    report = el.equivalent_report(el.BisymmetricSpec(size, size, *fields))
    below = el.equivalent_report(el.BisymmetricSpec(2_000_000_000, 2_000_000_000, *fields))
    assert report.separable is True and report.log_negativity == 0.0
    assert math.isfinite(report.nu_tilde_min)
    assert report.nu_tilde_min / size == pytest.approx(below.nu_tilde_min / 2e9, rel=1e-8)
    assert el.equivalent_report([el.BisymmetricSpec(size, size, *fields)]) == [report]


# ---------------------------------------------------------------------------
# Constructive route.
# ---------------------------------------------------------------------------


def test_localize_uncorrelated_blocks_fully_diagonal():
    spec = el.BisymmetricSpec(2, 2, 1.4, 0.1, -0.1, 1.6, 0.2, -0.15, 0.0, 0.0)
    result = el.localize(el.bisymmetric_cm(spec), 2, 2)
    off_diag = result.cm_final.matrix - np.diag(np.diag(result.cm_final.matrix))
    assert np.max(np.abs(off_diag)) <= 1e-10
    report = el.log_negativity(result.equivalent.cm_eq, _split(1, 1))
    assert report.separable is True


def test_localize_ghz_eight_modes():
    cm = el.fully_symmetric_cm(el.ghz_type_spec(8, 1.5))
    result = el.localize(cm, 4, 4)
    assert result.residual <= 1e-8 * np.max(np.abs(cm.matrix))
    en_eq = oracle_pt_log_negativity(result.equivalent.cm_eq, _split(1, 1))
    en_full = oracle_pt_log_negativity(cm, _split(4, 4))
    assert en_eq == pytest.approx(en_full, rel=1e-7)


def test_localize_spectrum_content():
    spec = el.BisymmetricSpec(3, 2, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25)
    cm = el.bisymmetric_cm(spec)
    result = el.localize(cm, 3, 2)
    final_spectrum = oracle_symplectic_spectrum(result.cm_final)
    expected = sorted(
        [alpha_block_spec(spec).nu_minus()] * 2
        + [beta_block_spec(spec).nu_minus()] * 1
        + list(oracle_symplectic_spectrum(result.equivalent.cm_eq)),
        reverse=True,
    )
    assert final_spectrum == pytest.approx(expected, rel=1e-7)
    # and the congruence preserves the parent spectrum
    assert final_spectrum == pytest.approx(oracle_symplectic_spectrum(cm), rel=1e-9)


def test_localize_transform_is_local_and_symplectic():
    spec = el.BisymmetricSpec(3, 4, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25)
    cm = el.bisymmetric_cm(spec)
    result = el.localize(cm, 3, 4)
    s = result.local_symplectic
    assert el.is_symplectic(s)
    assert np.all(s[: 2 * 3, 2 * 3 :] == 0.0)
    assert np.all(s[2 * 3 :, : 2 * 3] == 0.0)
    moved = pf.apply_symplectic(s, cm)
    assert cm_allclose(moved, result.cm_final, tol=1e-10)


def _non_standard_3_2():
    """A 3|2 state, and the same state seen through the same single-mode
    symplectic on every mode of a side: the pattern stays, the standard
    form goes."""
    spec = el.BisymmetricSpec(3, 2, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25)
    cm = el.bisymmetric_cm(spec)
    rng = np.random.default_rng(61)
    sa = random_symplectic(1, rng, strength=0.4)
    sb = random_symplectic(1, rng, strength=0.4)
    import scipy.linalg

    local = scipy.linalg.block_diag(*([sa] * 3 + [sb] * 2))
    return cm, pf.apply_symplectic(local, cm)


def test_localize_handles_non_standard_local_basis():
    cm, moved = _non_standard_3_2()
    result = el.localize(moved, 3, 2)
    assert result.residual <= 1e-8 * np.max(np.abs(moved.matrix))
    en_eq = oracle_pt_log_negativity(result.equivalent.cm_eq, _split(1, 1))
    en_full = oracle_pt_log_negativity(cm, _split(3, 2))
    assert en_eq == pytest.approx(en_full, rel=1e-7)


def test_localize_degenerate_thermal_blocks():
    # fully degenerate local spectra: correlations still concentrate
    spec = el.BisymmetricSpec(3, 3, 2.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.5, -0.5)
    cm = el.bisymmetric_cm(spec)
    result = el.localize(cm, 3, 3)
    assert result.residual <= 1e-10
    en_eq = oracle_pt_log_negativity(result.equivalent.cm_eq, _split(1, 1))
    en_full = oracle_pt_log_negativity(cm, _split(3, 3))
    assert en_eq == pytest.approx(en_full, rel=1e-9, abs=1e-12)


def test_localize_rejects_non_bisymmetric():
    rng = np.random.default_rng(67)
    cm = random_bona_fide_cm(4, rng)
    with pytest.raises(LocalizationError):
        el.localize(cm, 2, 2)


def _loop_pattern_deviation(matrix, m, n):
    """Reference pattern check, one 2x2 block at a time (cross blocks
    upper-right only, as the matrix is symmetric)."""

    def block(i, j):
        return matrix[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]

    worst = 0.0
    for i in range(m + n):
        for j in range(m + n):
            if i >= m > j:
                continue
            if (i < m) != (j < m):
                target = block(0, m)
            elif i < m:
                target = block(0, 0) if i == j else block(0, 1)
            else:
                target = block(m, m) if i == j else block(m, m + 1)
            worst = max(worst, float(np.max(np.abs(block(i, j) - target))))
    return worst


@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (3, 1), (3, 4)])
def test_localize_pattern_check_matches_loop_reference(m, n):
    rng = np.random.default_rng(71)
    base = np.array(el.fully_symmetric_cm(el.ghz_type_spec(m + n, 1.6)).matrix)
    for _ in range(40):
        matrix = base.copy()
        i, j = rng.integers(0, 2 * (m + n), size=2)
        bump = float(10.0 ** rng.uniform(-11, -6))
        matrix[i, j] += bump
        matrix[j, i] += bump if i != j else 0.0
        worst = _loop_pattern_deviation(matrix, m, n)
        if worst <= 1e-8:
            el.localize(el.CovarianceMatrix(matrix), m, n, tol_pattern=1e-8)
            continue
        with pytest.raises(LocalizationError) as excinfo:
            el.localize(el.CovarianceMatrix(matrix), m, n, tol_pattern=1e-8)
        assert f"pattern deviation {worst:.3e} " in str(excinfo.value)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
def test_localize_rejects_bad_tolerance(tol):
    cm = el.fully_symmetric_cm(el.ghz_type_spec(4, 1.4))
    with pytest.raises(InvalidArgumentError, match="finite number >= 0"):
        el.localize(cm, 2, 2, tol_pattern=tol)
    with pytest.raises(InvalidArgumentError, match="finite number >= 0"):
        el.localize([np.array([cm.matrix, cm.matrix])], [2], [2], tol_pattern=tol)
    with pytest.raises(InvalidArgumentError, match="finite number >= 0"):
        pf.equivalent_two_mode(cm, 2, 2, tol_pattern=tol)


@pytest.mark.parametrize("m, n", [(2.0, 2.0), (1.5, 2.5), (np.float64(2.0), 2), (True, 3), ("2", 2)],
                         ids=["float", "halves", "numpy float", "bool", "str"])
def test_block_sizes_that_are_not_integers_are_invalid(m, n):
    """A block size that is no int or numpy integer is invalid input named
    by its value, in every form; the list form of the report records it in
    place, beside a split that works. Before, such a size ended in a bare
    TypeError from a slice index (or passed as a bool)."""
    cm = el.fully_symmetric_cm(el.ghz_type_spec(4, 1.4))
    message = f"block size must be an integer, got {m!r}"
    for call in (lambda: el.localize(cm, m, n), lambda: el.localize([np.array([cm.matrix])], [m], [n]),
                 lambda: el.equivalent_report_from_cm(cm, m, n)):
        with pytest.raises(InvalidArgumentError) as excinfo:
            call()
        assert str(excinfo.value) == message
    error, report = el.equivalent_report_from_cm(cm, [m, 2], [n, 2])
    assert isinstance(error, InvalidArgumentError) and str(error) == message
    assert report == el.equivalent_report_from_cm(cm, np.int64(2), np.int64(2))


def _bits(value):
    return np.asarray(value, dtype=float).view(np.uint64)


def test_grouped_localize_and_oracle_equal_batches_of_one():
    """A stack per (m, n) shape gives every matrix the bits of its batch of
    one, for all 36 shapes of the sampler: the stacked LAPACK and BLAS
    calls must round as the per-matrix ones do."""
    specs = SpecSampler(2026, max_block=6).bisymmetric(count=2000)
    shapes = {}
    for spec in specs:
        shapes.setdefault((spec.m, spec.n), []).append(el.bisymmetric_cm(spec))
    assert len(shapes) == 36
    two_mode = _split(1, 1)
    for (m, n), cms in shapes.items():
        stack = np.array([cm.matrix for cm in cms])
        grouped = el.localize([stack], [m], [n])[0].results()
        brute = oracle_pt_log_negativity(stack, _split(m, n))
        reduced = oracle_pt_log_negativity(
            np.array([r.equivalent.cm_eq.matrix for r in grouped]), two_mode)
        assert len(grouped) == len(brute) == len(reduced) == len(cms)
        assert not any(isinstance(r, Exception) for r in [*grouped, *brute, *reduced])
        for cm, result, en_brute, en_reduced in zip(cms, grouped, brute, reduced):
            (alone,) = el.localize([cm.matrix[None]], [m], [n])[0].results()
            assert np.array_equal(_bits(result.local_symplectic), _bits(alone.local_symplectic))
            assert np.array_equal(_bits(result.cm_final.matrix), _bits(alone.cm_final.matrix))
            eq, eq_alone = result.equivalent, alone.equivalent
            assert np.array_equal(_bits(eq.cm_eq.matrix), _bits(eq_alone.cm_eq.matrix))
            assert _bits(eq.mu_eq) == _bits(eq_alone.mu_eq)
            assert _bits(eq.delta_eq) == _bits(eq_alone.delta_eq)
            assert _bits(result.residual) == _bits(alone.residual)
            assert _bits(en_brute) == _bits(oracle_pt_log_negativity(cm, _split(m, n)))
            assert _bits(en_reduced) == _bits(oracle_pt_log_negativity(eq_alone.cm_eq, two_mode))


def test_localize_batch_gives_the_failing_matrix_its_error():
    spec = el.BisymmetricSpec(3, 2, 1.6, 0.2, -0.15, 1.4, 0.1, -0.05, 0.3, -0.25)
    good = el.bisymmetric_cm(spec)
    broken = []
    for bump in (2e-3, 5e-3):
        matrix = np.array(good.matrix)
        matrix[2, 2] += bump
        broken.append(el.CovarianceMatrix(matrix))
    stack = np.array([good.matrix, broken[0].matrix, good.matrix, broken[1].matrix])
    [columns] = el.localize([stack], [3], [2])
    results = columns.results()
    assert [type(r) for r in results] == [
        el.LocalizationResult, LocalizationError, el.LocalizationResult, LocalizationError
    ]
    # each error is the one its matrix raises alone
    for error, cm, bump in ((results[1], broken[0], "2.000e-03"), (results[3], broken[1], "5.000e-03")):
        assert f"pattern deviation {bump}" in str(error)
        with pytest.raises(LocalizationError) as excinfo:
            el.localize(cm, 3, 2)
        assert str(excinfo.value) == str(error)
    alone = el.localize(good, 3, 2)
    assert np.array_equal(results[2].cm_final.matrix, alone.cm_final.matrix)
    # a matrix the split does not cover is invalid, alone and as a stack
    for call in (lambda: el.localize(pf.vacuum_cm(4), 3, 2),
                 lambda: el.localize([np.array([pf.vacuum_cm(4).matrix])], [3], [2])):
        with pytest.raises(InvalidArgumentError, match=r"split \(3, 2\) does not cover the 4-mode"):
            call()
    assert el.localize([np.empty((0, 10, 10))], [3], [2])[0].results() == []


def test_mode_mixing_is_the_kron_product_bit_for_bit():
    """O (x) I2 by broadcasting holds the entries of ``np.kron``, signed
    zeros included, for every count and position of the Householder mixing."""
    from entloc.localization import _householder_mixing, _mode_mixing_symplectic

    signed_zeros = 0
    for count in range(1, 13):
        for position in range(count):
            o = _householder_mixing(count, position)
            want = np.kron(o.T, np.eye(2))
            got = _mode_mixing_symplectic(o)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (count, position)
            signed_zeros += int(np.signbit(want[want == 0.0]).sum())
    assert signed_zeros > 0


def _rotation_test_blocks():
    """Random blocks, at unit scale, scaled by one power of ten from 1e-150
    to 1e150 each, and with each entry so scaled; then blocks that are
    zero, diagonal, rank one, of negative determinant, or whose entries
    span 1e-150 .. 1e150."""
    rng = np.random.default_rng(2024)
    random = rng.standard_normal((3, 400, 2, 2))
    random[1] *= 10.0 ** rng.uniform(-150, 150, size=(400, 1, 1))
    random[2] *= 10.0 ** rng.uniform(-150, 150, size=(400, 2, 2))
    special = [
        np.zeros((2, 2)), np.eye(2), -np.eye(2), np.diag([3.0, 2.0]), np.diag([2.0, 3.0]),
        np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]), np.diag([-3.0, 2.0]), np.diag([0.0, -5.0]),
        np.ones((2, 2)), np.outer([1.0, 2.0], [3.0, -1.0]), np.outer([0.0, 1.0], [1.0, 0.0]),
        [[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]], [[1.0, 2.0], [3.0, -4.0]],
        [[1e150, 1e-150], [0.0, 1.0]], [[1.0, 1e-150], [0.0, 1.0]], [[1e-150, 1e150], [-1e150, 1e-150]],
        np.diag([1.0, -1.0]) + 1e-150, [[1e150, -1e-150], [1e-150, -1e150]],
    ]
    return np.concatenate([random.reshape(-1, 2, 2), np.array(special, dtype=float)])


@pytest.mark.portable(reason="the rotations are elementwise IEEE arithmetic (+, -, *, /, sqrt, "
                             "abs, fmax, copysign), and the checks are bounds computed the same way")
def test_boundary_rotations_diagonalize_each_block():
    """The closed-form rotations of ``localize``'s stage 3: each diag(r1,
    r2) holds a pair of rotations, det +1, with r1^T x r2 = diag(d1, d2), d1 >= |d2|
    and d1 >= 0 up to a few eps ||x||, and r2[0, 0] >= 0 exactly. Each
    block gets the bits it gets alone."""
    from entloc.localization import _boundary_rotations

    x = _rotation_test_blocks()
    rot = _boundary_rotations(x)
    assert not rot[:, :2, 2:].any() and not rot[:, 2:, :2].any()
    r1, r2 = rot[:, :2, :2], rot[:, 2:, 2:]
    eps = np.finfo(float).eps
    for r in (r1, r2):
        assert np.isfinite(r).all()
        assert np.array_equal(r[:, 0, 0], r[:, 1, 1]) and np.array_equal(r[:, 0, 1], -r[:, 1, 0])
        assert np.abs(r[:, 0, 0] ** 2 + r[:, 1, 0] ** 2 - 1.0).max() <= 4 * eps
    assert (r2[:, 0, 0] >= 0.0).all()
    # r1^T x r2, entry by entry
    c1, s1, c2, s2 = r1[:, 0, 0], r1[:, 1, 0], r2[:, 0, 0], r2[:, 1, 0]
    a, b, c, d = x[:, 0, 0], x[:, 0, 1], x[:, 1, 0], x[:, 1, 1]
    left = np.array([[c1 * a + s1 * c, c1 * b + s1 * d], [c1 * c - s1 * a, c1 * d - s1 * b]])
    y = np.array([[left[i, 0] * c2 + left[i, 1] * s2, left[i, 1] * c2 - left[i, 0] * s2]
                  for i in range(2)])
    bound = 4 * eps * np.sqrt((x * x).sum(axis=(1, 2)))  # ||x||_F >= ||x||_2
    assert (np.abs(y[0, 1]) <= bound).all() and (np.abs(y[1, 0]) <= bound).all()
    assert (y[0, 0] >= np.abs(y[1, 1]) - bound).all() and (y[0, 0] >= -bound).all()
    for k in range(0, len(x), 7):
        assert np.array_equal(_bits(rot[k]), _bits(_boundary_rotations(x[k : k + 1])[0])), k


def test_localize_rejects_bad_split():
    cm = el.fully_symmetric_cm(el.ghz_type_spec(6, 1.4))
    with pytest.raises(InvalidArgumentError):
        el.localize(cm, 2, 3)


def test_localize_matches_invariant_route():
    for spec in SpecSampler(29, max_block=6).bisymmetric(count=40):
        eq_inv = pf.equivalent_two_mode(spec)
        result = el.localize(el.bisymmetric_cm(spec), spec.m, spec.n)
        assert np.allclose(
            eq_inv.cm_eq.matrix, result.equivalent.cm_eq.matrix, atol=1e-7
        )
        assert result.equivalent.mu_eq == pytest.approx(eq_inv.mu_eq, rel=1e-8)


def test_localization_result_json_shape():
    result = el.localize(el.fully_symmetric_cm(el.ghz_type_spec(4, 1.3)), 2, 2)
    obj = localization_to_json_dict(result)
    assert set(obj) == {"local_symplectic", "cm_final", "equivalent", "residual"}
    assert set(obj["equivalent"]) == {"cm_eq", "mu_eq", "delta_eq"}
    assert len(obj["cm_final"]["entries"]) == 64


# ---------------------------------------------------------------------------
# The reported skeleton: cm_final and cm_eq hold +0.0 off it.
# ---------------------------------------------------------------------------


def _skeleton(modes, m):
    """The diagonal and the diagonal cross block of modes m-1 and m."""
    pattern = np.eye(2 * modes, dtype=bool)
    row, col = 2 * (m - 1), 2 * m
    for offset in (0, 1):
        pattern[row + offset, col + offset] = pattern[col + offset, row + offset] = True
    return pattern


def _golden_cm():
    """The 24-mode input of the matrix-file goldens."""
    from test_matrix_goldens import ALPHA, EPS, MODES

    return el.CovarianceMatrix(np.array(
        [[(ALPHA if i // 2 == j // 2 else EPS)[i % 2][j % 2] for j in range(2 * MODES)]
         for i in range(2 * MODES)]
    ))


def _sampler_stacks(seed):
    """(stack, m, n) per shape of 300 ``verify`` sampler draws."""
    shapes = {}
    for spec in SpecSampler(seed, max_block=6).bisymmetric(count=300):
        shapes.setdefault((spec.m, spec.n), []).append(spec)
    return [(el.bisymmetric_cm(BisymmetricBatch.of(specs)), m, n)
            for (m, n), specs in shapes.items()]


def _skeleton_cases():
    yield "golden 12|12", np.array([_golden_cm().matrix]), 12, 12
    yield "ghz 4|4", np.array([el.fully_symmetric_cm(el.ghz_type_spec(8, 1.5)).matrix]), 4, 4
    yield "non-standard 3|2", np.array([_non_standard_3_2()[1].matrix]), 3, 2
    for seed in (1, 7):
        for stack, m, n in _sampler_stacks(seed):
            yield f"sampler seed {seed} {m}|{n}", stack, m, n


def test_localize_reports_cm_final_and_cm_eq_on_their_skeleton():
    """Every entry off the skeleton is +0.0 (bits zero), on the paper's
    states, in a non-standard local basis and on the sampler's draws; the
    boundary block of cm_final is cm_eq, and the noise that was dropped
    is within the tolerance the residual was checked against."""
    checked = 0
    for name, stack, m, n in _skeleton_cases():
        for matrix, result in zip(stack, el.localize([stack], [m], [n])[0].results()):
            final, eq = result.cm_final.matrix, result.equivalent.cm_eq.matrix
            assert not np.any(_bits(final)[~_skeleton(m + n, m)]), name
            assert not np.any(_bits(eq)[~_skeleton(2, 1)]), name
            boundary = slice(2 * (m - 1), 2 * m + 2)
            assert np.array_equal(_bits(final[boundary, boundary]), _bits(eq)), name
            assert result.residual <= 1e-8 * max(1.0, np.max(np.abs(matrix))), name
            checked += 1
    assert checked > 300


# The golden input at 12|12, first recorded from the tree before the
# projection: the values the projection must not move, the sha256 of the
# old cm_final and cm_eq with their off-skeleton entries set to +0.0, and
# the largest magnitude among those old off-skeleton entries. The values
# and digests were recorded again when every 2x2 determinant came to be
# a d - b c and the invariant route came to read the cross block from
# det C' and the adjugate trace: mu_eq, delta_eq and E_N 6|18 moved by at
# most 2.9e-15 relative, 920 of the 2304 entries of the local symplectic
# by at most 1.2e-14 and 48 of cm_final by at most 1.0e-15; the residual
# kept its bits. They were recorded again when the boundary rotations
# came to be taken in closed form: mu_eq moved by 11 ulps, 6 entries of
# cm_final (and of cm_eq) by at most 2 ulps, and the 96 nonzero entries
# of the boundary columns of the local symplectic changed sign (the
# rotation pair (-r1, -r2) in place of (r1, r2)) and their magnitudes by
# at most 32 ulps; the residual, delta_eq and both E_N kept their bits.
GOLDEN_KEPT = {
    "residual": "5.313737248484793e-15",
    "mu_eq": "0.348626968122116",
    "delta_eq": "9.22769230769222",
    "report E_N 6|18": "0.9260528622243129",
    "report E_N 12|12": "1.048043175606261",
}
GOLDEN_LOCAL_SYMPLECTIC = "570f1bf28157b5c5f60a5638a53ef9efc8bcf09d351654e86436e7364b7c8fc1"
GOLDEN_ON_SKELETON = {
    "cm_final": "696816fb856ea3e56bec7103094c6793cc76b2d2437aa54a5f861adff5ed3327",
    "cm_eq": "1f2bee277ae80230c4d9a61824af99a22a1eb7a29640f4b1dcdc024ff5558f5f",
}
GOLDEN_LARGEST_DROPPED = 4.210816372907315e-15


def _sha256(matrix):
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()


def test_localize_golden_keeps_its_values_and_drops_only_noise():
    """The digests depend on numpy's LAPACK and BLAS, as the matrix-file
    goldens do (recorded with numpy 2.4 on x86-64)."""
    cm = _golden_cm()
    result = el.localize(cm, 12, 12)
    eq = result.equivalent
    kept = {
        "residual": repr(result.residual),
        "mu_eq": repr(eq.mu_eq),
        "delta_eq": repr(eq.delta_eq),
        "report E_N 6|18": repr(el.equivalent_report_from_cm(cm, 6, 18).log_negativity),
        "report E_N 12|12": repr(el.equivalent_report_from_cm(cm, 12, 12).log_negativity),
    }
    assert kept == GOLDEN_KEPT
    assert _sha256(result.local_symplectic) == GOLDEN_LOCAL_SYMPLECTIC
    # on the skeleton every bit is the old one, and each entry that moved
    # (to +0.0) was at most the residual in magnitude
    on_skeleton = {"cm_final": _sha256(result.cm_final.matrix), "cm_eq": _sha256(eq.cm_eq.matrix)}
    assert on_skeleton == GOLDEN_ON_SKELETON
    assert GOLDEN_LARGEST_DROPPED <= result.residual


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_skeleton_projection_keeps_non_finite_entries(value):
    """A non-finite entry off the skeleton and outside the boundary block
    passes the residual check (nan compares false; inf does against the
    infinite default tolerance of a stack holding inf), and must still fail
    the covariance check of cm_final: the projection may not zero it. In
    place in a stack, and alone."""
    from entloc.localization import _skeleton_results
    from entloc.symplectic import _PointErrors

    result = el.localize(_non_standard_3_2()[1], 3, 2)
    good = np.array(result.cm_final.matrix)
    bad = good.copy()
    bad[0, 1] = bad[1, 0] = bad[0, 8] = bad[8, 0] = value
    final = np.array([good, bad, good])
    local = np.array([result.local_symplectic] * 3)
    tol = 1e-8 * np.fmax(np.abs(final).max(axis=(1, 2)), 1.0)
    with np.errstate(all="ignore"):  # as in localize
        [stacked] = _skeleton_results([final], [local], [3], [tol], _PointErrors(3))
        [alone] = _skeleton_results([bad[None]], [local[:1]], [3], [tol[1:2]], _PointErrors(1))
        stacked, alone = stacked.results(), alone.results()
    for error in (stacked[1], alone[0]):
        assert isinstance(error, InvalidArgumentError)
        assert str(error) == "covariance matrix has non-finite entries"
    for kept in (stacked[0], stacked[2]):
        assert np.array_equal(_bits(kept.cm_final.matrix), _bits(result.cm_final.matrix))


# ---------------------------------------------------------------------------
# Separability decisions.
# ---------------------------------------------------------------------------


def test_separability_agreement_including_separable_cases():
    sampler = ScalarSampler(31, max_block=4)
    seen_separable = 0
    for i in range(60):
        spec = sampler.separable_bisymmetric() if i % 2 else sampler.bisymmetric()
        report = el.equivalent_report(spec)
        cm = el.bisymmetric_cm(spec)
        part = _split(spec.m, spec.n)
        full_pt_min = el.pt_spectrum(cm, part).min
        assert report.separable == (full_pt_min >= 1.0 - TOL.PPT)
        seen_separable += int(report.separable)
    assert seen_separable > 5


def test_classically_correlated_states_stay_separable():
    for g in (0.1, 0.3, 0.5):
        spec = el.BisymmetricSpec(2, 2, 2.0, 0.1, 0.1, 2.0, 0.1, 0.1, g, g)
        report = el.equivalent_report(spec)
        assert report.separable is True
        assert report.log_negativity == 0.0


# ---------------------------------------------------------------------------
# Block entanglement and the optimal split.
# ---------------------------------------------------------------------------


def test_block_log_negativity_side_symmetric():
    spec = el.ghz_type_spec(7, 1.4)
    for k in (1, 2, 3):
        left = el.block_log_negativity(spec, k).log_negativity
        right = el.block_log_negativity(spec, 7 - k).log_negativity
        assert left == pytest.approx(right, rel=1e-10)


def test_block_log_negativity_vacuum_b_one():
    spec = el.ghz_type_spec(8, 1.0)
    for k in range(1, 8):
        assert el.block_log_negativity(spec, k).log_negativity == 0.0


def test_block_log_negativity_hierarchy_matches_oracle():
    spec = el.ghz_type_spec(12, 1.5)
    cm = el.fully_symmetric_cm(spec)
    for k in range(1, 7):
        closed = el.block_log_negativity(spec, k).log_negativity
        brute = oracle_pt_log_negativity(cm, _split(k, 12 - k))
        assert closed == pytest.approx(brute, rel=1e-7)


def test_block_log_negativity_eof_on_balanced_split():
    spec = el.ghz_type_spec(10, 1.5)
    report = el.block_log_negativity(spec, 5)
    assert report.eof is not None and report.eof > 0.0


def test_block_log_negativity_and_ole_scan_report_the_defined_splits():
    """Both read the split batch; each report has the bits of the report
    of the split spec built from the definition."""
    for spec in (el.ghz_type_spec(9, 1.7), el.FullySymmetricSpec(6, 2.0, 0.4, -0.3)):
        expected = [el.equivalent_report(pf.fs_split_spec(spec, k)) for k in range(1, spec.modes)]
        got = [el.block_log_negativity(spec, k) for k in range(1, spec.modes)]
        assert repr(got) == repr(expected)
        scan = el.ole_scan(spec)
        assert [k for k, _ in scan] == list(range(1, spec.modes // 2 + 1))
        assert repr([report for _, report in scan]) == repr(expected[: spec.modes // 2])


@pytest.mark.portable(reason="the split batch is elementwise numpy: no LAPACK, no exponential or "
                             "logarithm")
@pytest.mark.parametrize("k", [0, 4, 2**70, 2.5], ids=["zero", "M", "past-int64", "fraction"])
def test_split_batch_range_check_reaches_block_log_negativity(k):
    """A split size that is no integer in 1 .. M-1, one past int64
    included, raises the split batch's range error."""
    with pytest.raises(InvalidArgumentError) as info:
        el.block_log_negativity(el.FullySymmetricSpec(4, 1.5, 0.1, 0.1), k)
    assert str(info.value) == f"split {k} | {4 - k} out of range for a 4-mode parent"


def test_matrix_splits_that_all_fail_run_no_kernel(monkeypatch):
    """Splits of a matrix that all fail their checks keep their errors in
    place, and the kernel does not run."""
    def forbidden(*args):
        raise AssertionError("the kernel ran on a batch with no valid split")

    monkeypatch.setattr(el.localization, "_equivalent_from_blocks", forbidden)
    # a 2 | 3 two-block state: its 1 | 4 split is no two-block pattern
    cm = el.bisymmetric_cm(el.BisymmetricSpec(2, 3, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25))
    errors = el.equivalent_report_from_cm(cm, [1, 0, 1], [4, 5, 1])
    assert [type(error) for error in errors] == [
        LocalizationError, InvalidArgumentError, InvalidArgumentError]
    assert [str(error) for error in errors[1:]] == [
        "block sizes must be >= 1, got (0, 5)", "split (1, 1) does not cover the 5-mode input"]
    # a ragged sequence of sizes, which numpy makes no array of, is a
    # sequence of splits too: before, it ended in a bare ValueError
    errors = el.equivalent_report_from_cm(cm, [1, [2]], [3, 2])
    assert [type(error) for error in errors] == [InvalidArgumentError, InvalidArgumentError]
    assert [str(error) for error in errors] == [
        "split (1, 3) does not cover the 5-mode input", "block size must be an integer, got [2]"]
    with pytest.raises(LocalizationError, match="not block-permutation invariant"):
        el.equivalent_report_from_cm(cm, 1, 4)


def _best_split(state):
    """The (k, report) of the ``ole`` command: the first split of the scan
    with the largest log-negativity."""
    return max(el.ole_scan(state), key=lambda item: item[1].log_negativity)


def test_ole_even_modes_balanced():
    for modes, b in ((6, 1.3), (10, 1.5), (14, 2.0)):
        spec = el.ghz_type_spec(modes, b)
        k_star, report = _best_split(spec)
        assert k_star == modes // 2
        assert report.log_negativity > 0.0


def test_ole_odd_modes_near_balanced():
    spec = el.ghz_type_spec(9, 1.5)
    k_star, _ = _best_split(spec)
    assert k_star == 4


def test_ole_vacuum_tie_breaks_to_smallest():
    spec = el.ghz_type_spec(8, 1.0)
    k_star, report = _best_split(spec)
    assert k_star == 1
    assert report.log_negativity == 0.0


def test_ole_accepts_covariance_matrix_input():
    spec = el.ghz_type_spec(8, 1.5)
    from_spec = _best_split(spec)
    from_cm = _best_split(el.fully_symmetric_cm(spec))
    assert from_cm[0] == from_spec[0] == 4
    assert from_cm[1].log_negativity == pytest.approx(from_spec[1].log_negativity, rel=1e-10)


def test_ole_matches_exhaustive_oracle_scan():
    spec = el.ghz_type_spec(10, 1.6)
    cm = el.fully_symmetric_cm(spec)
    scan = exhaustive_bipartition_scan(cm)
    k_star, report = _best_split(spec)
    best_oracle = max(scan, key=lambda kv: kv[1])
    assert k_star == best_oracle[0]
    assert report.log_negativity == pytest.approx(best_oracle[1], rel=1e-7)


# ---------------------------------------------------------------------------
# The pattern bound of a matrix's split scan.
# ---------------------------------------------------------------------------


def _pattern_matrix(m, n, alpha, eps, beta, zeta, gamma) -> np.ndarray:
    """The m | n two-block matrix of the 2x2 pattern blocks."""
    total = m + n
    grid = np.empty((total, total, 2, 2))
    grid[:m, :m], grid[m:, m:], grid[:m, m:], grid[m:, :m] = eps, zeta, gamma, np.transpose(gamma)
    grid[range(m), range(m)], grid[range(m, total), range(m, total)] = alpha, beta
    return grid.transpose(0, 2, 1, 3).reshape(2 * total, 2 * total)


def _symmetric_in_local_basis(modes: int, rng) -> np.ndarray:
    """A fully symmetric state, with every nu at least 1.5, seen through
    one x-p-correlating single-mode symplectic on every mode, each entry
    pair then moved by up to 2**-51 of itself: its blocks are equal only to
    within rounding, so that a split that read a block other than its own
    would show."""
    pure = traced_symmetric_spec(modes, 2, 1.7)
    spec = el.FullySymmetricSpec(modes, pure.b + 0.5, pure.z1, pure.z2)
    rotations = [np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
                 for t in rng.uniform(0.0, np.pi, size=2)]
    local = rotations[0] @ np.diag([np.exp(0.4), np.exp(-0.4)]) @ rotations[1]
    big = np.kron(np.eye(modes), local)
    matrix = big.T @ el.fully_symmetric_cm(spec).matrix @ big
    matrix = 0.5 * (matrix + matrix.T)
    noise = rng.uniform(-1.0, 1.0, size=matrix.shape)
    return matrix * (1.0 + (noise + noise.T) * 2.0**-52)


def _scan_json(cm) -> str:
    return json.dumps([(k, report.to_json_dict()) for k, report in el.ole_scan(cm)])


def _counted_pattern_checks(monkeypatch) -> list:
    """Patch ``_pattern_check`` to count its calls, in the list returned."""
    calls, check = [], el.localization._pattern_check
    monkeypatch.setattr(el.localization, "_pattern_check",
                        lambda *args: calls.append(args[1:3]) or check(*args))
    return calls


@pytest.mark.portable(reason="both paths hand the kernel the same blocks, so they agree with any "
                             "numpy build; the bound is elementwise subtraction and a maximum")
@pytest.mark.parametrize("modes", [2, 3, 4, 12, 48, 200])
def test_ole_scan_of_a_symmetric_matrix_takes_one_bound_and_matches_the_per_split_path(
        monkeypatch, modes):
    """A fully symmetric matrix's scan of more than one split reads every
    split's blocks after one bound, with no per-split pattern check, and
    gives the JSON of the path that checks each split (a scan of one split,
    M = 2 and 3, takes that path itself)."""
    cm = el.CovarianceMatrix(_symmetric_in_local_basis(modes, np.random.default_rng(modes)))
    tol = TOL.PATTERN * max(1.0, float(np.abs(cm.matrix).max()))
    assert 0.0 < 4.0 * el.localization._pattern_spread(cm.matrix) <= tol
    calls = _counted_pattern_checks(monkeypatch)
    bounded = _scan_json(cm)
    assert len(calls) == (1 if modes < 4 else 0)
    monkeypatch.setattr(el.localization, "_pattern_spread", lambda matrix: math.inf)
    assert _scan_json(cm) == bounded
    assert len(calls) == (1 if modes < 4 else 0) + modes // 2


@pytest.mark.portable(reason="the bound and each pattern check are elementwise IEEE subtraction "
                             "and a maximum; the messages print their values")
@pytest.mark.parametrize("fraction, bounded", [(0.125, True), (0.5, False), (2.0, False)],
                         ids=["tol/8", "tol/2", "2tol"])
def test_a_moved_entry_pair_takes_the_bound_or_each_split_its_own_check(
        monkeypatch, fraction, bounded):
    """The x-p entry pair of mode 0's diagonal block, moved by tol/8, stays
    within the bound; by tol/2, past it, so each split takes its own check
    and passes; by 2 tol, split 1 | 11 (where mode 0 is a block alone)
    passes and every other split fails with the message of its own check."""
    modes = 12
    matrix = _symmetric_in_local_basis(modes, np.random.default_rng(5))
    tol = TOL.PATTERN * max(1.0, float(np.abs(matrix).max()))
    matrix[0, 1] = matrix[1, 0] = matrix[0, 1] + fraction * tol
    cm = el.CovarianceMatrix(matrix)
    assert TOL.PATTERN * max(1.0, float(np.abs(matrix).max())) == tol
    assert (4.0 * el.localization._pattern_spread(matrix) <= tol) == bounded
    ks = list(range(1, modes // 2 + 1))
    calls = _counted_pattern_checks(monkeypatch)
    scan = el.equivalent_report_from_cm(cm, ks, [modes - k for k in ks])
    assert len(calls) == (0 if bounded else len(ks))
    for k, result in zip(ks, scan):
        alone = el.equivalent_report_from_cm(cm, [k], [modes - k])[0]
        if fraction < 1.0 or k == 1:
            assert result == alone and not isinstance(result, Exception), k
            continue
        worst = _loop_pattern_deviation(matrix, k, modes - k)
        assert worst > tol
        message = (f"input is not block-permutation invariant: pattern deviation {worst:.3e} "
                   f"exceeds tolerance {tol:.3e}")
        assert isinstance(result, LocalizationError) and str(result) == str(alone) == message, k


@pytest.mark.portable(reason="the failing splits fail their elementwise pattern checks, and the "
                             "one that passes is compared with its own single-split call")
def test_a_two_block_matrix_keeps_each_split_error_in_place(monkeypatch):
    """A 3 | 3 two-block state is past the bound, so each split of its scan
    takes its own check: 1 | 5 and 2 | 4 fail in place with their own
    messages, 3 | 3 gets its report, and ``ole_scan`` raises 1 | 5's."""
    cm = el.CovarianceMatrix(_pattern_matrix(3, 3, *map(np.array, (
        [[2.5, 0.25], [0.25, 2.0]], [[0.5, 0.125], [0.125, 0.25]], [[3.0, -0.5], [-0.5, 2.5]],
        [[0.75, 0.0], [0.0, 0.5]], [[0.25, 0.125], [0.0625, 0.25]]))))
    calls = _counted_pattern_checks(monkeypatch)
    scan = el.equivalent_report_from_cm(cm, [1, 2, 3], [5, 4, 3])
    assert calls == [(1, 5), (2, 4), (3, 3)]
    alone = [el.equivalent_report_from_cm(cm, [k], [6 - k])[0] for k in (1, 2, 3)]
    assert [type(result) for result in scan] == [LocalizationError, LocalizationError,
                                                 el.EntanglementReport]
    assert [str(result) for result in scan[:2]] == [str(result) for result in alone[:2]]
    assert scan[2] == alone[2]
    with pytest.raises(LocalizationError) as excinfo:
        el.ole_scan(cm)
    assert str(excinfo.value) == str(scan[0])
