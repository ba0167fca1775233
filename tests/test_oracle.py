import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entloc as el
from entloc.cli import main
from entloc.oracle import (
    SpecSampler,
    SuiteReports,
    _compared,
    oracle_pt_log_negativity,
    reports_to_csv_text,
    run_oracle_suite,
    summarize_reports,
)
from oracle_helpers import ScalarSampler, exhaustive_bipartition_scan, oracle_spectrum_multiplicities


def _split(m, n):
    return el.ModeBipartition(tuple(range(m)), tuple(range(m, m + n)))


def test_oracle_vacuum_zero():
    assert oracle_pt_log_negativity(el.vacuum_cm(3), _split(1, 2)) == 0.0


def test_oracle_two_mode_squeezed_analytic():
    assert oracle_pt_log_negativity(el.two_mode_squeezed(0.5), _split(1, 1)) == pytest.approx(
        1.0, abs=1e-9
    )


def test_oracle_multiplicities_fully_symmetric():
    spec = el.FullySymmetricSpec(6, 1.5, 0.25, -0.2)
    clusters = oracle_spectrum_multiplicities(el.fully_symmetric_cm(spec))
    assert sorted(m for _, m in clusters) == [1, 5]


def test_oracle_multiplicities_thermal_distinct():
    clusters = oracle_spectrum_multiplicities(el.thermal_cm([1.1, 1.9, 2.7]))
    assert [m for _, m in clusters] == [1, 1, 1]


def test_oracle_multiplicities_bisymmetric():
    spec = el.BisymmetricSpec(3, 4, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25)
    clusters = oracle_spectrum_multiplicities(el.bisymmetric_cm(spec))
    mult = sorted(m for _, m in clusters)
    assert mult[-1] >= 3 and mult[-2] >= 2


def test_exhaustive_scan_vacuum_all_zero():
    scan = exhaustive_bipartition_scan(el.ghz_type_pure(8, 1.0))
    assert [en for _, en in scan] == [0.0] * 4


@pytest.mark.parametrize("b", [1.2, 1.5, 2.0])
def test_exhaustive_scan_monotone_pure(b):
    scan = exhaustive_bipartition_scan(el.ghz_type_pure(20, b))
    values = [en for _, en in scan]
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))


def test_exhaustive_scan_monotone_mixed():
    import dataclasses

    parent = el.ghz_type_spec(24, 1.5)
    spec = dataclasses.replace(parent, modes=20)
    scan = exhaustive_bipartition_scan(el.fully_symmetric_cm(spec))
    values = [en for _, en in scan]
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))


def test_exhaustive_scan_rejects_large_input():
    from entloc.errors import InvalidArgumentError

    with pytest.raises(InvalidArgumentError):
        exhaustive_bipartition_scan(el.vacuum_cm(31))


def test_sampler_deterministic():
    a = SpecSampler(2024)
    b = SpecSampler(2024)
    for _ in range(10):
        assert a.bisymmetric() == b.bisymmetric()


def test_sampler_tracks_rejections():
    sampler = SpecSampler(5)
    for _ in range(20):
        sampler.bisymmetric()
    assert sampler.accepted == 20
    assert sampler.attempts >= 20
    assert 0.0 <= sampler.rejection_rate < 1.0


def test_sampler_rejects_block_bounds_before_drawing():
    with pytest.raises(el.InvalidArgumentError, match="max_block must be at least 1, got 0"):
        SpecSampler(1, max_block=0)
    sampler = SpecSampler(1, max_block=1)
    assert sampler.bisymmetric().m == 1
    assert {(spec.m, spec.n) for spec in sampler.bisymmetric(count=20)} == {(1, 1)}


def test_separable_sampler_produces_separable_states():
    sampler = ScalarSampler(6)
    for _ in range(10):
        spec = sampler.separable_bisymmetric()
        report = el.equivalent_report(spec)
        assert report.separable is True


def _one_case(closed_form, brute_force, shape=(2, 3)):
    """The reports of one case whose three comparisons pair these values."""
    closed_form, brute_force = np.array(closed_form), np.array(brute_force)
    return SuiteReports([shape], closed_form, brute_force, *_compared(closed_form, brute_force))


def test_report_compare_pass_and_fail():
    reports = _one_case([1.0, 1.0, 0.0], [1.0 + 1e-9, 1.1, 1e-10])
    assert reports.passed.tolist() == [True, False, True]


def test_suite_small_run_all_pass():
    reports, summary, rejection_rate = run_oracle_suite(cases=20, seed=314)
    assert summary["cases"] == 20
    assert summary["comparisons"] == 60
    assert summary["passes"] == 60
    assert summary["worst_rel_diff"] <= 1e-7
    assert summary["seed"] == 314
    assert 0.0 <= rejection_rate < 1.0


def test_suite_outputs(tmp_path, capsys):
    reports, summary, _ = run_oracle_suite(cases=3, seed=1)
    lines = reports_to_csv_text(reports).splitlines()
    assert lines[0] == "quantity,closed_form,brute_force,abs_diff,rel_diff,pass"
    assert len(lines) == 1 + len(reports) == 10
    csv_path = tmp_path / "cases.csv"
    assert main(["verify", "--cases", "3", "--seed", "1", "--out", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines() == lines
    assert json.loads(capsys.readouterr().out)["passes"] == summary["passes"] == 9


def test_csv_text_shape():
    text = reports_to_csv_text(_one_case([1.0, 2.0, 0.5], [1.0, 2.0, 0.5]))
    assert text.endswith("\n")
    assert text.splitlines()[1:] == [
        "case0000_m2n3_invariant_vs_brute,1,1,0,0,true",
        "case0000_m2n3_constructive_vs_brute,2,2,0,0,true",
        "case0000_m2n3_invariant_vs_constructive,0.5,0.5,0,0,true",
    ]


def test_summary_shape():
    summary = summarize_reports(_one_case([2.0, 2.0, 1.0], [2.0, 2.0, 1.5]), seed=9)
    assert summary == {
        "cases": 1,
        "comparisons": 3,
        "passes": 2,
        "worst_rel_diff": 0.5 / 1.5,
        "seed": 9,
    }


def _suite_with_failures(monkeypatch, invariant=(), pattern=(), spectrum=(), cases=40, seed=11):
    """run_oracle_suite(cases, seed) with failures forced on chosen cases:
    an invariant-route error, an assembled matrix whose mode-1 block breaks
    the pattern by 1e-3 * (1 + case), or a non-finite dense spectrum of
    the case's brute-force matrix. The suite assembles one shape group per
    ``bisymmetric_cm`` call. Returns the error the suite raises."""
    import entloc.localization
    import entloc.oracle
    import entloc.states

    specs = SpecSampler(seed).bisymmetric(count=cases)
    real_report = entloc.localization.equivalent_report
    real_cm = entloc.states.bisymmetric_cm
    real_spectrum = entloc.oracle._dense_symplectic_spectrum
    marks = [specs[i].a for i in spectrum]

    def report(batch):
        out = real_report(batch)
        return out._replace(errors=[
            el.InconsistentInvariantsError(f"forced case {i}") if i in invariant else error
            for i, error in enumerate(out.errors)
        ])

    def assemble(group):
        cms = real_cm(group)
        for k, spec in enumerate(group):
            case = specs.index(spec)
            if case in pattern:
                matrix = np.array(cms[k].matrix)
                matrix[2, 2] += 1e-3 * (1 + case)
                cms[k] = el.CovarianceMatrix(matrix)
        return cms

    def dense(matrix):
        nus = np.array(real_spectrum(matrix))
        nus[np.isin(matrix[..., 0, 0], marks)] = np.nan
        return nus

    monkeypatch.setattr(entloc.localization, "equivalent_report", report)
    monkeypatch.setattr(entloc.states, "bisymmetric_cm", assemble)
    monkeypatch.setattr(entloc.oracle, "_dense_symplectic_spectrum", dense)
    with pytest.raises(el.EntlocError) as excinfo:
        run_oracle_suite(cases=cases, seed=seed)
    monkeypatch.undo()
    return excinfo.value


def test_suite_raises_first_failing_case_in_order(monkeypatch):
    """The first failing case in case order raises, whatever shape group
    it sits in; within a case the invariant route goes first, then
    localize, then the dense oracle."""
    specs = SpecSampler(11).bisymmetric(count=40)
    shapes = [(s.m, s.n) for s in specs]
    first_seen = {shape: shapes.index(shape) for shape in shapes}
    # i < j with j's shape group met first; both can break the pattern (m >= 2)
    i, j = next((i, j) for j in range(len(specs)) for i in range(j)
                if specs[i].m >= 2 and specs[j].m >= 2
                and first_seen[shapes[j]] < first_seen[shapes[i]])

    error = _suite_with_failures(monkeypatch, invariant=(j,), pattern=(j,), spectrum=(i,))
    assert isinstance(error, el.NumericalDomainError)
    error = _suite_with_failures(monkeypatch, pattern=(i,), spectrum=(j,))
    assert isinstance(error, el.LocalizationError)
    assert f"pattern deviation {1e-3 * (1 + i):.3e}" in str(error)
    error = _suite_with_failures(monkeypatch, pattern=(i, j))
    assert f"pattern deviation {1e-3 * (1 + i):.3e}" in str(error)
    error = _suite_with_failures(monkeypatch, invariant=(j, i), pattern=(j,))
    assert str(error) == f"forced case {i}"
    error = _suite_with_failures(monkeypatch, invariant=(i,), pattern=(i,), spectrum=(i,))
    assert str(error) == f"forced case {i}"
    error = _suite_with_failures(monkeypatch, pattern=(i,), spectrum=(i,))
    assert isinstance(error, el.LocalizationError)


# ---------------------------------------------------------------------------
# The stacked oracle against the definition, one matrix at a time.
# ---------------------------------------------------------------------------


def _dense_omega(modes):
    omega = np.zeros((2 * modes, 2 * modes))
    omega[0::2, 1::2] = np.eye(modes)
    omega[1::2, 0::2] = -np.eye(modes)
    return omega


def _definition_log_negativity(matrix, side_b):
    """max(0, -sum ln nu) over the sub-unit symplectic eigenvalues nu of
    the matrix with the momenta of ``side_b`` mirrored: the dense Omega
    times the mirrored matrix, its eigenvalues' |Im| sorted and paired,
    and one ``math.log`` per value; a non-finite spectrum is None."""
    signs = np.ones(len(matrix))
    signs[[2 * k + 1 for k in side_b]] = -1.0
    mirrored = matrix * np.outer(signs, signs)
    eigenvalues = np.linalg.eigvals(_dense_omega(len(matrix) // 2) @ mirrored)
    magnitudes = np.sort(np.abs(eigenvalues.imag))[::-1]
    nus = (0.5 * (magnitudes[0::2] + magnitudes[1::2])).tolist()
    if not all(map(math.isfinite, nus)):
        return None
    return max(0.0, -sum(math.log(nu) for nu in nus if nu < 1.0))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_stacked_oracle_is_the_definition_per_matrix_bit_for_bit():
    """Every (m, n) shape group of a seeded draw, and the stack of all
    their reduced two-mode matrices, as ``verify`` runs them."""
    groups = {}
    for spec in SpecSampler(31).bisymmetric(count=600):
        groups.setdefault((spec.m, spec.n), []).append(spec)
    assert len(groups) == 36
    reduced = []
    for (m, n), specs in groups.items():
        cms = el.bisymmetric_cm(specs)
        part = _split(m, n)
        want = [_definition_log_negativity(cm.matrix, part.side_b) for cm in cms]
        assert np.array_equal(_bits(oracle_pt_log_negativity(cms, part)), _bits(want)), (m, n)
        reduced += [result.equivalent.cm_eq for result in el.localize(cms, m, n)]
    got = oracle_pt_log_negativity(reduced, _split(1, 1))
    want = [_definition_log_negativity(cm.matrix, (1,)) for cm in reduced]
    assert np.array_equal(_bits(got), _bits(want))
    assert 0 < sum(value > 0.0 for value in want) < len(want)


def test_signed_row_swap_is_the_omega_matmul_bit_for_bit():
    """Omega @ x as a signed row swap gives the matmul's bits, +0.0 where
    x holds -0.0 included, on mirrored states and on random stacks with
    signed zeros, from 1 to 12 modes."""
    from entloc.oracle import _mirror_momenta, _omega_times

    rng = np.random.default_rng(8)
    for modes in range(1, 13):
        stack = rng.normal(size=(5, 2 * modes, 2 * modes))
        stack[rng.random(stack.shape) < 0.3] = 0.0
        stack[rng.random(stack.shape) < 0.3] *= -0.0
        cm = el.ghz_type_pure(modes, 1.3).matrix if modes > 1 else np.eye(2)
        mirrored = _mirror_momenta(np.array([cm, cm]), range(modes // 2, modes))
        for matrices in (stack, mirrored, stack[0]):
            want = _dense_omega(modes) @ matrices
            assert np.array_equal(_bits(_omega_times(matrices)), _bits(want)), modes
    assert np.signbit(mirrored[mirrored == 0.0]).any()


def test_log_negativity_columns_are_the_per_row_sum():
    """Rows with several sub-unit values, which ``verify`` never meets,
    sum as Python's ``sum`` does; a non-finite row gets its error in place
    and no ``math.log`` call."""
    from entloc.oracle import _log_negativities

    rng = np.random.default_rng(12)
    nus = rng.uniform(0.02, 2.5, size=(400, 6))
    nus[::7, 2] = 1.0
    nus[3, 4], nus[5, 1], nus[9] = math.nan, math.inf, 0.3
    nus[11, 0:2] = (math.nan, 0.0)  # skipped for its nan, so its zero is never logged
    got = _log_negativities(nus)
    for k, row in enumerate(nus.tolist()):
        if all(map(math.isfinite, row)):
            want = max(0.0, -sum(math.log(nu) for nu in row if nu < 1.0))
            assert _bits(got[k]) == _bits(want), k
        else:
            assert isinstance(got[k], el.NumericalDomainError), k
    assert sum(int((row < 1.0).sum()) > 1 for row in nus) > 100


def test_a_zero_symplectic_eigenvalue_is_a_numerical_error_in_place():
    """``math.log`` takes no 0.0: a spectrum holding one is the matrix's
    ``NumericalDomainError``, raised for one matrix and kept in place in a
    stack, as a non-finite spectrum is."""
    zero = el.CovarianceMatrix(np.zeros((4, 4)))
    with pytest.raises(el.NumericalDomainError, match="zero symplectic eigenvalue") as alone:
        oracle_pt_log_negativity(zero, _split(1, 1))
    got = oracle_pt_log_negativity([el.vacuum_cm(2), zero, el.two_mode_squeezed(0.5)], _split(1, 1))
    assert got[0] == 0.0 and got[2] == pytest.approx(1.0, abs=1e-9)
    assert type(got[1]) is el.NumericalDomainError and str(got[1]) == str(alone.value)


def test_a_split_that_does_not_cover_the_modes_is_invalid():
    for cm, part in ((el.vacuum_cm(1), _split(1, 1)), (el.vacuum_cm(3), _split(1, 1))):
        with pytest.raises(el.InvalidArgumentError, match="bipartition covers modes"):
            oracle_pt_log_negativity(cm, part)
        with pytest.raises(el.InvalidArgumentError, match="bipartition covers modes"):
            oracle_pt_log_negativity([cm, cm], part)


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e3, -1e3]) | st.floats(-1e3, 1e3)


@st.composite
def _symmetric_matrices(draw):
    """2 to 4 finite symmetric 2N x 2N matrices of one N in 1..3, and a
    contiguous split of 1 to 3 modes, which may not cover them."""
    modes = draw(st.integers(1, 3))
    size = 2 * modes
    matrices = []
    for _ in range(draw(st.integers(2, 4))):
        upper = np.triu(np.array(draw(st.lists(_ENTRIES, min_size=size * size,
                                                max_size=size * size))).reshape(size, size))
        matrices.append(upper + np.triu(upper, 1).T)
    m = draw(st.integers(1, 2))
    return matrices, _split(m, draw(st.integers(1, 3 - m)))


def _outcome(call):
    try:
        return call()
    except el.EntlocError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(_symmetric_matrices())
def test_oracle_gives_every_finite_symmetric_matrix_a_value_or_an_entloc_error(drawn):
    """On any finite symmetric matrix and contiguous split the oracle gives
    a finite value >= 0 or raises an ``EntlocError``, and the stacked call
    gives each matrix that value, or that error's type and message, in
    place."""
    matrices, part = drawn
    cms = [el.CovarianceMatrix(matrix) for matrix in matrices]
    alone = [_outcome(lambda: oracle_pt_log_negativity(cm, part)) for cm in cms]
    for value in alone:
        assert isinstance(value, tuple) or (type(value) is float and 0.0 <= value < math.inf)
    stacked = _outcome(lambda: oracle_pt_log_negativity(cms, part))
    if isinstance(stacked, tuple):  # a split that does not cover the modes
        assert all(value == stacked for value in alone)
        return
    assert [value if type(value) is float else (type(value), str(value)) for value in stacked] \
        == alone
