import math

import mpmath as mp
import numpy as np
import pytest

import entloc as el
from entloc.errors import InvalidArgumentError
from entloc.oracle import oracle_pt_log_negativity
from oracle_helpers import (
    alpha_block_spec,
    beta_block_spec,
    random_bona_fide_cm,
    random_local_symplectic,
    swapped,
)


def _split(m, n):
    return el.ModeBipartition(tuple(range(m)), tuple(range(m, m + n)))


def test_bipartition_validation():
    with pytest.raises(InvalidArgumentError):
        el.ModeBipartition((), (0,))
    with pytest.raises(InvalidArgumentError):
        el.ModeBipartition((0, 1), (1,))
    with pytest.raises(InvalidArgumentError):
        el.ModeBipartition((0, 0), (1,))
    part = _split(1, 1)
    with pytest.raises(InvalidArgumentError):
        part.validate_for(el.vacuum_cm(3))


def test_partial_transpose_flips_momentum_covariances():
    cm = el.two_mode_squeezed(0.6)
    pt = el.partial_transpose(cm, _split(1, 1))
    expected = np.array(cm.matrix)
    expected[3, :] *= -1
    expected[:, 3] *= -1
    assert np.array_equal(pt.matrix, expected)


def test_partial_transpose_of_product_stays_physical():
    cm = el.thermal_cm([1.5, 2.5])
    pt = el.partial_transpose(cm, _split(1, 1))
    assert el.is_bona_fide(pt)


def test_pt_spectrum_side_independent():
    rng = np.random.default_rng(31)
    cm = random_bona_fide_cm(4, rng)
    part = _split(2, 2)
    a = el.pt_spectrum(cm, part).values
    b = el.pt_spectrum(cm, swapped(part)).values
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_pt_spectrum_vacuum_trivial():
    values = el.pt_spectrum(el.vacuum_cm(3), _split(1, 2)).values
    assert values == pytest.approx([1.0, 1.0, 1.0])


def test_pt_two_mode_invariant_route_matches_dense():
    rng = np.random.default_rng(32)
    for _ in range(50):
        cm = random_bona_fide_cm(2, rng)
        closed = el.pt_two_mode_nu_tilde(cm)
        dense = np.sort(el.pt_spectrum(cm, _split(1, 1)).values)
        assert closed == pytest.approx(tuple(dense), rel=1e-10)


def test_bisymmetric_pt_keeps_degenerate_locals():
    spec = el.BisymmetricSpec(3, 4, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25)
    cm = el.bisymmetric_cm(spec)
    pt_values = el.pt_spectrum(cm, _split(3, 4)).values
    nu_a = alpha_block_spec(spec).nu_minus()
    nu_b = beta_block_spec(spec).nu_minus()
    # the local degenerate eigenvalues survive transposition untouched
    assert sum(1 for v in pt_values if abs(v - nu_a) < 1e-7) >= 2
    assert sum(1 for v in pt_values if abs(v - nu_b) < 1e-7) >= 3


def test_log_negativity_vacuum():
    report = el.log_negativity(el.vacuum_cm(2), _split(1, 1))
    assert report.log_negativity == 0.0
    assert report.negativity == 0.0
    assert report.separable is True


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 1.75])
def test_log_negativity_two_mode_squeezed(r):
    report = el.log_negativity(el.two_mode_squeezed(r), _split(1, 1))
    assert report.log_negativity == pytest.approx(2.0 * r, abs=1e-9)
    assert report.nu_tilde_min == pytest.approx(math.exp(-2.0 * r), rel=1e-9)
    assert report.negativity == pytest.approx(0.5 * (math.exp(2.0 * r) - 1.0), rel=1e-9)
    assert report.separable is False
    # symmetric two-mode state: entanglement of formation present
    assert report.eof is not None and report.eof > 0.0


def test_log_negativity_matches_two_mode_closed_form():
    rng = np.random.default_rng(33)
    for _ in range(25):
        cm = random_bona_fide_cm(2, rng)
        report = el.log_negativity(cm, _split(1, 1))
        nu_minus, _ = el.pt_two_mode_nu_tilde(cm)
        assert report.log_negativity == pytest.approx(max(0.0, -math.log(nu_minus)), abs=1e-9)


def test_log_negativity_rejects_unphysical_input():
    cm = el.CovarianceMatrix(np.diag([0.5, 0.5, 1.0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        el.log_negativity(cm, _split(1, 1))


def test_log_negativity_undecided_for_general_two_by_two():
    rng = np.random.default_rng(34)
    cm = random_bona_fide_cm(4, rng)
    report = el.log_negativity(cm, _split(2, 2))
    assert report.separable is None
    report2 = el.log_negativity(cm, _split(2, 2), ppt_decidable=True)
    assert report2.separable is not None


def test_log_negativity_one_by_n_is_decidable():
    rng = np.random.default_rng(35)
    cm = random_bona_fide_cm(3, rng)
    report = el.log_negativity(cm, _split(1, 2))
    assert report.separable is not None


def test_log_negativity_local_unitary_invariance():
    rng = np.random.default_rng(36)
    cm = random_bona_fide_cm(5, rng)
    part = _split(2, 3)
    local = random_local_symplectic(2, 3, rng)
    moved = el.apply_symplectic(local, cm)
    before = el.log_negativity(cm, part).log_negativity
    after = el.log_negativity(moved, part).log_negativity
    assert after == pytest.approx(before, rel=1e-8, abs=1e-8)


def test_ghz_block_hierarchy_increasing():
    cm = el.ghz_type_pure(20, 1.5)
    values = []
    for k in range(1, 11):
        part = _split(k, 20 - k)
        values.append(el.log_negativity(cm, part, ppt_decidable=True).log_negativity)
    assert all(values[i] < values[i + 1] for i in range(9))


def test_eof_symmetric_separable_boundary():
    assert el.eof_symmetric(1.0) == 0.0


def test_eof_symmetric_is_zero_past_the_separable_boundary():
    # h(x) = h(1/x), so only the clamp to 0 keeps separable states at zero
    assert el.eof_symmetric(0.5) > 0.3
    for nu in (np.nextafter(1.0, 2.0), 1.0 + 1e-10, 2.0, 1e200, math.inf):
        assert el.eof_symmetric(float(nu)) == 0.0


def test_eof_symmetric_monotone_decreasing():
    xs = np.linspace(0.05, 1.0, 200)
    hs = [el.eof_symmetric(x) for x in xs]
    assert all(hs[i] > hs[i + 1] for i in range(len(hs) - 1))


def test_eof_symmetric_frozen_value():
    # arbitrary-precision reference evaluation of h(e^{-2})
    assert el.eof_symmetric(math.exp(-2.0)) == pytest.approx(1.6198220928977023, rel=1e-12)


def test_eof_symmetric_high_precision_grid():
    # elevated-precision reference on a dense grid
    mp.mp.dps = 34

    def h_ref(x):
        x = mp.mpf(x)
        plus = (1 + x) ** 2 / (4 * x)
        minus = (1 - x) ** 2 / (4 * x)
        term = plus * mp.log(plus)
        if minus > 0:
            term -= minus * mp.log(minus)
        return float(term)

    for x in np.linspace(0.01, 0.999, 1000):
        assert el.eof_symmetric(float(x)) == pytest.approx(h_ref(float(x)), rel=1e-12, abs=1e-13)


def test_eof_symmetric_rejects_nonpositive():
    with pytest.raises(InvalidArgumentError):
        el.eof_symmetric(0.0)
    with pytest.raises(InvalidArgumentError):
        el.eof_symmetric(-0.3)


def test_symmetric_condition_balanced_split():
    spec = el.ghz_type_spec(10, 1.5)
    bspec = el.BisymmetricSpec(
        5, 5, spec.b, spec.z1, spec.z2, spec.b, spec.z1, spec.z2, spec.z1, spec.z2
    )
    assert el.symmetric_condition(bspec)


def test_symmetric_condition_unbalanced_mixed_split():
    # mixed 10-mode state, 2 x 8 split: sides differ
    import dataclasses

    parent = el.ghz_type_spec(14, 1.5)
    spec = dataclasses.replace(parent, modes=10)
    bspec = el.BisymmetricSpec(
        2, 8, spec.b, spec.z1, spec.z2, spec.b, spec.z1, spec.z2, spec.z1, spec.z2
    )
    assert not el.symmetric_condition(bspec)


def test_symmetric_condition_equal_blocks():
    spec = el.BisymmetricSpec(2, 2, 1.4, 0.2, -0.1, 1.4, 0.2, -0.1, 0.15, -0.1)
    assert el.symmetric_condition(spec)


def test_report_json_field_names():
    report = el.log_negativity(el.two_mode_squeezed(0.5), _split(1, 1))
    obj = report.to_json_dict()
    assert set(obj) == {"nu_tilde_min", "log_negativity", "negativity", "eof", "separable"}


def test_en_and_eof_same_ordering():
    # the two measures rank symmetric states identically
    reports = [
        el.log_negativity(el.two_mode_squeezed(r), _split(1, 1))
        for r in (0.2, 0.5, 0.9, 1.4)
    ]
    for first, second in zip(reports, reports[1:]):
        assert (second.log_negativity - first.log_negativity) > 0
        assert (second.eof - first.eof) > 0


def test_oracle_log_negativity_agrees_on_multimode():
    rng = np.random.default_rng(37)
    for _ in range(10):
        cm = random_bona_fide_cm(4, rng)
        part = _split(2, 2)
        mine = el.log_negativity(cm, part).log_negativity
        brute = oracle_pt_log_negativity(cm, part)
        assert mine == pytest.approx(brute, rel=1e-10, abs=1e-12)
