"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion; each line is printed only after every assertion in the
criterion has held.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import entloc as el
from entloc.experiments import traced_symmetric_spec
from entloc.oracle import SpecSampler
from oracle_helpers import (
    ScalarSampler,
    alpha_block_spec,
    beta_block_spec,
    oracle_symplectic_spectrum,
    random_bona_fide_cm,
    random_symplectic,
    swapped,
)


def _split(m, n):
    return el.ModeBipartition(tuple(range(m)), tuple(range(m, m + n)))


def _report(line):
    print(f"PASS {line}")


def test_criterion_1_oracle_equivalence():
    """E_N via invariants, constructive reduction, and brute force agree
    pairwise on 500 seeded random two-block specs (blocks up to 6 modes)."""
    started = time.monotonic()
    reports, summary, _ = __import__("entloc.oracle", fromlist=["x"]).run_oracle_suite(
        cases=500, seed=4242, max_block=6
    )
    elapsed = time.monotonic() - started
    failed = ~reports.passed
    assert summary["cases"] == 500
    assert not failed.any(), (f"{failed.sum()} comparisons disagree; "
                              f"worst {reports.rel_diff[failed].max()}")
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _report(
        f"criterion 1: oracle equivalence on 500 specs ({summary['comparisons']} comparisons, "
        f"worst rel diff {summary['worst_rel_diff']:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_2_degeneracy_theorem():
    """Spectra carry the predicted degenerate eigenvalues: (n-1, 1) for
    fully symmetric states, >= m-1 and >= n-1 for two-block states."""
    sampler = ScalarSampler(1001, max_block=10)
    for _ in range(200):
        spec = sampler.fully_symmetric()
        nus = oracle_symplectic_spectrum(el.fully_symmetric_cm(spec))
        block = el.fs_block_spectrum(spec)
        tol = 1e-8 * max(1.0, block.nu_plus)
        near_minus = int(np.sum(np.abs(nus - block.nu_minus) <= tol))
        near_plus = int(np.sum(np.abs(nus - block.nu_plus) <= tol))
        assert near_minus >= spec.modes - 1
        assert near_plus >= 1
        assert len(nus) == spec.modes

    for spec in SpecSampler(1002, max_block=6).bisymmetric(count=200):
        nus = oracle_symplectic_spectrum(el.bisymmetric_cm(spec))
        tol = 1e-8 * max(1.0, float(nus[0]))
        if spec.m > 1:
            nu_a = alpha_block_spec(spec).nu_minus()
            assert int(np.sum(np.abs(nus - nu_a) <= tol)) >= spec.m - 1
        if spec.n > 1:
            nu_b = beta_block_spec(spec).nu_minus()
            assert int(np.sum(np.abs(nus - nu_b) <= tol)) >= spec.n - 1
    _report("criterion 2: degeneracy multiplicities on 200 + 200 random spectra")


def test_criterion_3_localization_structure():
    """The constructive reduction leaves nothing outside the target pattern
    and reproduces the purification identity."""
    for spec in SpecSampler(1003, max_block=6).bisymmetric(count=100):
        cm = el.bisymmetric_cm(spec)
        scale = float(np.max(np.abs(cm.matrix)))
        result = el.localize(cm, spec.m, spec.n)
        assert result.residual <= 1e-8 * max(1.0, scale)
        mu_parent = el.purity(cm)
        nu_a = alpha_block_spec(spec).nu_minus() if spec.m > 1 else 1.0
        nu_b = beta_block_spec(spec).nu_minus() if spec.n > 1 else 1.0
        predicted = nu_a ** (spec.m - 1) * nu_b ** (spec.n - 1) * mu_parent
        assert result.equivalent.mu_eq == pytest.approx(predicted, rel=1e-8)
    _report("criterion 3: localization pattern and purification identity on 100 specs")


def test_criterion_4_pure_state_theorem():
    """Pure symmetric states stay pure under reduction: the equivalent
    two-mode state is a squeezed vacuum up to local operations."""
    for modes in range(2, 21):
        for b in (1.0, 1.2, 1.7, 2.4, 3.0):
            spec = el.ghz_type_spec(modes, b)
            assert el.purity(el.fully_symmetric_cm(spec)) == pytest.approx(1.0, abs=1e-8)
            for m in range(1, modes):
                report = el.block_log_negativity(spec, m)
                eq = el.equivalent_two_mode_invariants(
                    el.localization._fs_split_spec(spec, m)
                )
                assert eq.mu_eq == pytest.approx(1.0, abs=1e-7)
                assert el.purity(eq.cm_eq) == pytest.approx(1.0, abs=1e-7)
                if b > 1.0:
                    assert report.log_negativity > 0.0
                else:
                    assert report.log_negativity == 0.0
    _report("criterion 4: pure-state reduction (M = 2..20, b <= 3, all splits)")


def test_criterion_5_ppt_decision_agreement():
    """The equivalent-state separability decision equals the full
    reflected-spectrum decision, including on separable constructions."""
    sampler = ScalarSampler(1005, max_block=5)
    rng = np.random.default_rng(1006)
    cases = []
    for i in range(150):
        cases.append(sampler.separable_bisymmetric() if i % 2 else sampler.bisymmetric())
    for _ in range(50):
        # guaranteed-entangled draws: splits of pure symmetric states
        modes = int(rng.integers(3, 9))
        k = int(rng.integers(1, modes))
        spec = el.ghz_type_spec(modes, float(rng.uniform(1.05, 2.5)))
        cases.append(el.localization._fs_split_spec(spec, k))

    disagreements = 0
    separable_seen = entangled_seen = 0
    for spec in cases:
        report = el.equivalent_report(spec)
        full_min = el.pt_spectrum(el.bisymmetric_cm(spec), _split(spec.m, spec.n)).min
        full_decision = full_min >= 1.0 - 1e-9
        disagreements += int(report.separable != full_decision)
        separable_seen += int(full_decision)
        entangled_seen += int(not full_decision)
    assert disagreements == 0
    assert separable_seen >= 20 and entangled_seen >= 20
    _report(
        f"criterion 5: PPT decisions agree on {len(cases)} cases "
        f"({separable_seen} separable, {entangled_seen} entangled, 0 disagreements)"
    )


def test_criterion_6_hierarchy_properties():
    """Block entanglement at 20 modes: strictly increasing in the block
    size, mixed below pure, and finite in the infinite-squeezing limit."""
    modes = 20
    for b in (1.2, 1.5, 2.0, 3.0):
        pure = [
            el.block_log_negativity(el.ghz_type_spec(modes, b), k).log_negativity
            for k in range(1, 11)
        ]
        mixed = [
            el.block_log_negativity(traced_symmetric_spec(modes, 4, b), k).log_negativity
            for k in range(1, 11)
        ]
        assert all(pure[i] < pure[i + 1] for i in range(9))
        assert all(mixed[i] < mixed[i + 1] for i in range(9))
        assert all(m < p for m, p in zip(mixed, pure))

    for k in range(1, 11):
        m100 = el.block_log_negativity(traced_symmetric_spec(modes, 4, 100.0), k).log_negativity
        m1000 = el.block_log_negativity(traced_symmetric_spec(modes, 4, 1000.0), k).log_negativity
        assert abs(m1000 - m100) / m100 < 0.05
        p100 = el.block_log_negativity(el.ghz_type_spec(modes, 100.0), k).log_negativity
        p1000 = el.block_log_negativity(el.ghz_type_spec(modes, 1000.0), k).log_negativity
        assert p1000 > p100 + 0.5

    grid = np.linspace(1.01, 3.0, 40)
    for k in (1, 5, 10):
        values = [
            el.block_log_negativity(el.ghz_type_spec(modes, float(b)), k).log_negativity
            for b in grid
        ]
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
    _report("criterion 6: hierarchy monotonicity, pure/mixed ordering, saturation")


def test_criterion_7_scaling_properties():
    """Entanglement of formation at fixed squeezing: the balanced split
    grows with n while the pairwise entanglement decays."""
    b = 1.5
    for q in (0, 4):
        nn, pairwise = [], []
        for n in range(1, 16):
            spec = traced_symmetric_spec(2 * n, q, b)
            nn.append(el.block_log_negativity(spec, n).eof)
            two = spec if spec.modes == 2 else dataclasses.replace(spec, modes=2)
            pairwise.append(el.block_log_negativity(two, 1).eof)
        assert all(v is not None for v in nn)
        assert all(nn[i] < nn[i + 1] for i in range(14))
        assert all(pairwise[i] > pairwise[i + 1] for i in range(14))
        assert pairwise[-1] < 0.05
        assert nn[-1] > nn[0]
    _report("criterion 7: scaling trends for pure and traced families, n = 1..15")


def test_criterion_8_scalar_formula_cross_checks():
    """The block-spectrum identity, the formation function, and the
    two-mode closed form hold at tight tolerances."""
    rng = np.random.default_rng(1008)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 12))
        b = float(rng.uniform(1.0, 3.0))
        z1 = float(rng.uniform(-0.8, 0.8))
        z2 = float(rng.uniform(-0.8, 0.8))
        try:
            spec = el.FullySymmetricSpec(n, b, z1, z2)
        except el.InvalidArgumentError:
            continue
        checked += 1
        block = el.fs_block_spectrum(spec)
        two = el.fs_block_spectrum(dataclasses.replace(spec, modes=2))
        via = el.nu_plus_from_two_mode(n, 1.0 / b, two.nu_minus, two.nu_plus)
        assert via == pytest.approx(block.nu_plus, rel=1e-10)

    assert el.eof_symmetric(1.0) == 0.0
    xs = np.linspace(0.02, 1.0, 500)
    values = [el.eof_symmetric(float(x)) for x in xs]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))

    rng = np.random.default_rng(1009)
    for _ in range(1000):
        cm = random_bona_fide_cm(2, rng)
        closed = el.two_mode_symplectic_eigenvalues(cm)
        dense = np.sort(oracle_symplectic_spectrum(cm))
        assert closed == pytest.approx(tuple(dense), rel=1e-10)
    _report("criterion 8: scalar formula cross-checks (1000-point grids)")


def test_criterion_9_round_trip_and_invariance():
    """Normal-form reconstruction, invariant preservation, and
    transposition side-independence."""
    rng = np.random.default_rng(1010)
    for modes in (1, 2, 4, 8, 12, 16, 20, 24):
        cm = random_bona_fide_cm(modes, rng)
        s, spectrum = el.williamson(cm)
        d = np.diag(np.repeat(spectrum.values, 2))
        residual = np.max(np.abs(s.T @ d @ s - cm.matrix)) / max(1.0, np.max(np.abs(cm.matrix)))
        assert residual <= 1e-8

    for _ in range(100):
        modes = int(rng.integers(1, 5))
        cm = random_bona_fide_cm(modes, rng)
        s = random_symplectic(modes, rng)
        moved = el.apply_symplectic(s, cm)
        assert el.delta_invariant(moved) == pytest.approx(
            el.delta_invariant(cm), rel=1e-8, abs=1e-8
        )
        assert np.linalg.det(moved.matrix) == pytest.approx(
            np.linalg.det(cm.matrix), rel=1e-8
        )

    for _ in range(20):
        modes = int(rng.integers(2, 7))
        cut = int(rng.integers(1, modes))
        cm = random_bona_fide_cm(modes, rng)
        part = _split(cut, modes - cut)
        one = el.pt_spectrum(cm, part).values
        other = el.pt_spectrum(cm, swapped(part)).values
        assert one == pytest.approx(other, rel=1e-9, abs=1e-9)
    _report("criterion 9: round trips and invariances (N up to 24, 100 symplectics)")
