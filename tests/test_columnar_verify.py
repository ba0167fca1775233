"""The columnar cross-check suite against the per-case code it replaced.

``verify`` draws its specs a screened block of attempts at a time,
assembles and checks the matrices of each mode count m + n, in any mix
of shapes (m, n), as one stack, splits each matrix of it at its own m
for the brute force, and builds the ``localize`` results of each shape's
slice from stacked checks and invariants. The stacked covariance check
must give each matrix the constructor's result or error, in place, the
stacked assembly, brute force and reduction must give each matrix the
bits of its own, and the command's output must keep its bytes.
"""

import csv
import hashlib
import io
import json
import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entloc as el
from entloc.cli import main
from entloc.errors import InvalidArgumentError, NumericalDomainError
from entloc.oracle import (
    ROUTE_PAIRS,
    SpecSampler,
    SuiteReports,
    _compared,
    _mirror_second_blocks,
    _stack_log_negativities,
    oracle_pt_log_negativity,
    reports_to_csv_text,
    run_oracle_suite,
    summarize_reports,
)
from entloc.states import SPEC_PARAMETERS, BisymmetricBatch, bisymmetric_batch
from entloc.symplectic import TOL, _PointErrors, _symmetrized
from oracle_helpers import bits

# sha256 of `verify --cases 300 --seed 4242 --out PATH`: the CSV and stdout,
# recorded when every 2x2 determinant came to be a d - b c and the
# invariant route came to read the cross block from det C' and the
# adjugate trace; the CSVs again when the dense spectrum of a matrix with
# no x-p entry came to be the singular values of its x-p block (numpy 2.4
# with its bundled OpenBLAS on x86-64; another LAPACK build may round the
# dense values, and so these bytes, differently)
VERIFY_300_CSV_SHA256 = "e32a6f241f4e44b4200a156afd83dfe574c3588ecc95c1b5a79a51e56d8ffe43"
VERIFY_300_STDOUT_SHA256 = "40b24ebcc6eb8ea6d34d1d36331d3f71cc1fb510e4435fe9cd1253181edd6853"
# the same of `verify --cases 1000 --seed 7 --out PATH`, recorded with them
VERIFY_1000_CSV_SHA256 = "3216ab6f4ce8a132582ddc570091a1b236abc03f61e66a62fe4f09c4912911f4"
VERIFY_1000_STDOUT_SHA256 = "f36472a21bd04680bd1fe96da1283fbca0b403e7a9243469a7f6e49ccfdbadbb"


# sha256 of the CSV of `verify --cases 2000 --seed S --out PATH` and the
# exact worst_rel_diff it prints, recorded before the suite came to
# assemble one stack per mode count; at 2000 cases every one of the 36
# shapes shares its mode count's stack with larger groups than at 1000
VERIFY_2000_PINS = {
    1: ("5046f7ee54975fb4b89b83d4fb2ff6674faa2d8a3b7c7d39df27f131ed70a97e", 2.0545362163440628e-13),
    7: ("d8b0a946f7e835f2aa6262ed0112f87610ef63ed693c39758fe15fb2eec1108b", 2.4927085106314175e-13),
    4242: ("e45e82f48f64c71777a6e27881301769292956da068e75f4295aee58b2d58e7a", 2.484791285689188e-13),
}


def _verify_digests(tmp_path, capsys, cases, seed):
    """sha256 of the CSV and of stdout of `verify --cases N --seed S --out PATH`."""
    out = tmp_path / "cases.csv"
    assert main(["verify", "--cases", str(cases), "--seed", str(seed), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    return hashlib.sha256(out.read_bytes()).hexdigest(), hashlib.sha256(stdout.encode()).hexdigest()


def test_verify_output_bytes(tmp_path, capsys):
    digests = _verify_digests(tmp_path, capsys, 300, 4242)
    assert digests == (VERIFY_300_CSV_SHA256, VERIFY_300_STDOUT_SHA256)


def test_verify_1000_case_output_bytes(tmp_path, capsys):
    digests = _verify_digests(tmp_path, capsys, 1000, 7)
    assert digests == (VERIFY_1000_CSV_SHA256, VERIFY_1000_STDOUT_SHA256)


@pytest.mark.parametrize("seed", sorted(VERIFY_2000_PINS))
def test_verify_2000_case_output_bytes(tmp_path, capsys, seed):
    out = tmp_path / "cases.csv"
    assert main(["verify", "--cases", "2000", "--seed", str(seed), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["cases"], summary["passes"]) == (2000, 6000)
    got = (hashlib.sha256(out.read_bytes()).hexdigest(), summary["worst_rel_diff"])
    assert got == VERIFY_2000_PINS[seed]


# ---------------------------------------------------------------------------
# The stacked covariance check.
# ---------------------------------------------------------------------------


def _constructor_check(matrix):
    """The ``CovarianceMatrix`` check as one matrix at a time made it,
    kept here as the reference: the symmetrized matrix, or the error."""
    m = np.array(matrix, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        symmetric = 0.5 * (m + m.T)
        skew = float(np.max(np.abs(m - m.T)))
    if not np.all(np.isfinite(symmetric)):
        return InvalidArgumentError("covariance matrix has non-finite entries")
    if skew > TOL.ASYMMETRY * max(1.0, float(np.max(np.abs(m)))):
        return InvalidArgumentError(
            f"matrix is asymmetric beyond tolerance: max |s_ij - s_ji| = {skew:.3e}"
        )
    return symmetric


def _bad_and_good_matrices():
    base = np.array(el.bisymmetric_cm(
        el.BisymmetricSpec(2, 1, 1.6, 0.2, -0.15, 1.4, 0.0, 0.0, 0.3, -0.25)).matrix)

    def edited(*entries):
        matrix = base.copy()
        for (i, j), value in entries:
            matrix[i, j] = value
        return matrix

    return {
        "good": base,
        "nan": edited(((1, 1), math.nan)),
        "inf off the diagonal": edited(((0, 3), math.inf)),
        "-inf on both sides": edited(((2, 4), -math.inf), ((4, 2), -math.inf)),
        "asymmetric": edited(((0, 2), base[0, 2] + 1e-6)),
        "asymmetric within tolerance": edited(((0, 2), base[0, 2] + 1e-12)),
        "symmetrization overflow": edited(((0, 5), 1e308), ((5, 0), 1e308)),
        "difference overflow": edited(((0, 5), 1e308), ((5, 0), -1e308)),
        "large scale, small skew": edited(((0, 0), 1e12), ((1, 3), 1e-4)),
        "large scale, large skew": edited(((0, 0), 1e12), ((1, 3), 1e4)),
        # the largest entry in magnitude is negative
        "large negative scale, small skew": edited(((0, 1), -1e12), ((1, 0), -1e12), ((1, 3), 1.0)),
        "large negative scale, large skew": edited(((0, 1), -1e12), ((1, 0), -1e12), ((1, 3), 1e4)),
        "non-finite and asymmetric": edited(((0, 2), 5.0), ((3, 3), math.nan)),
        "asymmetric, then non-finite in the other half": edited(((0, 2), 5.0), ((5, 5), math.nan)),
        "-0.0 entries": edited(((0, 1), -0.0), ((1, 0), -0.0)),
    }


def test_stacked_check_gives_each_matrix_the_constructor_result_in_place():
    cases = _bad_and_good_matrices()
    names = list(cases) * 2  # every case twice, the good matrix between failures
    stack = np.array([cases[name] for name in names])
    errors = _PointErrors(len(stack))
    checked = _symmetrized(stack, errors)
    assert not checked.flags.writeable
    failures = set()
    for k, name in enumerate(names):
        want = _constructor_check(stack[k])
        if isinstance(want, Exception):
            failures.add(name)
            assert not errors.alive[k], name
            assert type(errors.errors[k]) is InvalidArgumentError, name
            assert str(errors.errors[k]) == str(want), name
            with pytest.raises(InvalidArgumentError) as excinfo:
                el.CovarianceMatrix(stack[k])
            assert str(excinfo.value) == str(want)
        else:
            assert errors.alive[k] and errors.errors[k] is None, name
            assert np.array_equal(bits(checked[k]), bits(want)), name
            assert np.array_equal(bits(el.CovarianceMatrix(stack[k]).matrix), bits(want))
    assert failures == {
        "nan", "inf off the diagonal", "-inf on both sides", "asymmetric",
        "symmetrization overflow", "difference overflow", "large scale, large skew",
        "large negative scale, large skew",
        "non-finite and asymmetric", "asymmetric, then non-finite in the other half",
    }
    assert "non-finite" in str(errors.errors[names.index("non-finite and asymmetric")])
    assert "= 1.000e-06" in str(errors.errors[names.index("asymmetric")])
    assert "= inf" in str(errors.errors[names.index("difference overflow")])


def test_checked_stack_matrices_are_read_only_views():
    spec = el.BisymmetricSpec(2, 2, 1.5, 0.1, -0.1, 1.5, 0.1, -0.1, 0.2, -0.2)
    stack = el.bisymmetric_cm(BisymmetricBatch.of([spec, spec]))
    assert stack.shape == (2, 8, 8)
    for matrix in (*stack, el.bisymmetric_cm(spec).matrix):
        with pytest.raises(ValueError):
            matrix[0, 0] = 2.0


# ---------------------------------------------------------------------------
# Stacked assembly and stacked localize results.
# ---------------------------------------------------------------------------


def _loop_assembled(m, n, alpha, eps, beta, zeta, gamma):
    """Reference assembly, one 2x2 block at a time, from block diagonals."""
    total = m + n
    out = np.zeros((2 * total, 2 * total))
    for i in range(total):
        for j in range(total):
            if (i < m) != (j < m):
                diagonal = gamma
            elif i < m:
                diagonal = alpha if i == j else eps
            else:
                diagonal = beta if i == j else zeta
            out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = np.diag(diagonal)
    return out


def test_stacked_assembly_matches_loop_assembly_bit_for_bit():
    sampler = SpecSampler(31)
    groups = {}
    for spec in sampler.bisymmetric(count=600):
        groups.setdefault((spec.m, spec.n), []).append(spec)
    # signed zeros must survive the copy
    groups[(2, 3)].append(el.BisymmetricSpec(2, 3, 1.5, -0.0, 0.1, 1.5, 0.0, -0.0, -0.0, 0.2))
    assert len(groups) == 36
    for (m, n), specs in groups.items():
        stack = el.bisymmetric_cm(BisymmetricBatch.of(specs))
        assert len(stack) == len(specs)
        for spec, matrix in zip(specs, stack):
            want = _loop_assembled(
                m, n, (spec.a, spec.a), (spec.e1, spec.e2), (spec.b, spec.b),
                (spec.z1, spec.z2), (spec.g1, spec.g2),
            )
            assert np.array_equal(bits(matrix), bits(want))
            assert np.array_equal(bits(el.bisymmetric_cm(spec).matrix), bits(want))
    for modes in (1, 2, 5, 12):
        spec = el.ghz_type_spec(modes, 1.7) if modes > 1 else el.FullySymmetricSpec(1, 1.7)
        want = _loop_assembled(modes, 0, (spec.b, spec.b), (spec.z1, spec.z2), None, None, None)
        assert np.array_equal(bits(el.fully_symmetric_cm(spec).matrix), bits(want))


def _one_size_mixes(seed=31, count=600):
    """The specs of ``count`` sampled ones by mode count m + n, each list
    shuffled, so that its shapes (m, n) are interleaved; a signed-zero
    spec joins mode count 5."""
    mixes = {}
    for spec in SpecSampler(seed).bisymmetric(count=count):
        mixes.setdefault(spec.total_modes, []).append(spec)
    mixes[5].append(el.BisymmetricSpec(2, 3, 1.5, -0.0, 0.1, 1.5, 0.0, -0.0, -0.0, 0.2))
    shuffle = random.Random(seed)
    for specs in mixes.values():
        shuffle.shuffle(specs)
    return mixes


def test_stacked_assembly_of_one_mode_count_gives_each_shape_its_bits():
    """A batch of one mode count in any mix of shapes is one stack whose
    matrices have the bits of their shape's own batch and of their spec."""
    mixes = _one_size_mixes()
    assert sorted(mixes) == list(range(2, 13))
    for total, specs in mixes.items():
        stack = el.bisymmetric_cm(BisymmetricBatch.of(specs))
        assert stack.shape == (len(specs), 2 * total, 2 * total) and not stack.flags.writeable
        shapes = {(spec.m, spec.n) for spec in specs}
        assert len(shapes) == min(total - 1, 13 - total), total  # every shape of block sizes 1..6
        for shape in shapes:
            rows = [k for k, spec in enumerate(specs) if (spec.m, spec.n) == shape]
            alone = el.bisymmetric_cm(BisymmetricBatch.of([specs[k] for k in rows]))
            assert np.array_equal(bits(stack[rows]), bits(alone)), shape
        for spec, matrix in zip(specs, stack):
            assert np.array_equal(bits(matrix), bits(el.bisymmetric_cm(spec).matrix))


def test_stacked_assembly_needs_one_shape_and_raises_the_first_failure():
    one = el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 1.5, 0.0, 0.0, 0.2, -0.2)
    two = el.BisymmetricSpec(2, 1, 1.5, 0.1, 0.1, 1.5, 0.0, 0.0, 0.2, -0.2)
    with pytest.raises(InvalidArgumentError, match="one mode count"):
        el.bisymmetric_cm(BisymmetricBatch.of([one, two]))
    # parameters whose matrix would overflow in the symmetrization overflow
    # the spectrum check to nan first: no valid spec, alone or in a batch
    huge = (2, 1, 1e308, 0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError) as alone:
        el.BisymmetricSpec(*huge)
    fields = (two.m, two.n, *(getattr(two, name) for name in SPEC_PARAMETERS))
    with pytest.raises(InvalidArgumentError) as grouped:
        el.bisymmetric_cm(bisymmetric_batch(*np.array([fields, huge, fields]).T))
    assert str(grouped.value) == str(alone.value) == (
        "parameters too large for the spectrum check: the smallest symplectic eigenvalue is nan")


def test_stacked_assembly_names_mixed_mode_counts_and_raises_the_first_failure_of_a_mix():
    one = el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 1.5, 0.0, 0.0, 0.2, -0.2)
    two = el.BisymmetricSpec(2, 1, 1.5, 0.1, 0.1, 1.5, 0.0, 0.0, 0.2, -0.2)
    three = el.BisymmetricSpec(1, 2, 1.5, 0.0, 0.0, 1.5, 0.1, 0.1, 0.2, -0.2)
    with pytest.raises(InvalidArgumentError, match=r"got shapes \[\(1, 1\), \(1, 2\), \(2, 1\)\] "
                                                   r"of mode counts \[2, 3\]"):
        el.bisymmetric_cm(BisymmetricBatch.of([two, three, one]))
    assert el.bisymmetric_cm(BisymmetricBatch.of([two, three])).shape == (2, 6, 6)
    # in a mix of shapes, the first failing point raises its error: point
    # 1, a 2 | 1 spec with b = 0.5 < 1, or point 2, a 1 | 2 spec whose
    # matrix would overflow and whose spectrum check overflows to nan
    columns = [[2, 2, 1], [1, 1, 2], [1.5, 1.5, 1e308], [0.1, 0.1, 0.0], [0.1, 0.1, 0.0],
               [1.5, 0.5, 1e308], [0.0] * 3, [0.0] * 3, [0.2] * 3, [-0.2] * 3]
    mixed = bisymmetric_batch(*map(np.array, columns))
    assert mixed.errors.alive.tolist() == [True, False, False]
    for order, first in (([0, 1, 2], 1), ([2, 1, 0], 2), ([0, 2, 1], 2)):
        with pytest.raises(InvalidArgumentError) as excinfo:
            el.bisymmetric_cm(mixed.take(np.array(order)))
        assert str(excinfo.value) == str(mixed.errors.errors[first])


def test_localize_stack_gives_a_failing_purity_its_place():
    """A matrix that passes the pattern and residual checks but has a
    negative determinant fails at its purity, in place, with the error
    it raises alone."""
    good = el.bisymmetric_cm(el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 1.5, 0.0, 0.0, 0.4, -0.4))
    bad = el.CovarianceMatrix(np.array(
        [[1.0, 0, 2.0, 0], [0, 1.0, 0, 0.5], [2.0, 0, 1.0, 0], [0, 0.5, 0, 1.0]]))
    [columns] = el.localize([np.array([good.matrix, bad.matrix, good.matrix])], [1], [1])
    results = columns.results()
    assert [type(r) for r in results] == [
        el.LocalizationResult, NumericalDomainError, el.LocalizationResult
    ]
    with pytest.raises(NumericalDomainError) as excinfo:
        el.localize(bad, 1, 1)
    assert str(results[1]) == str(excinfo.value) == "covariance determinant must be positive"
    alone = el.localize(good, 1, 1)
    for result in (results[0], results[2]):
        assert np.array_equal(bits(result.cm_final.matrix), bits(alone.cm_final.matrix))
        assert bits(result.equivalent.mu_eq) == bits(alone.equivalent.mu_eq)
        assert bits(result.equivalent.delta_eq) == bits(alone.equivalent.delta_eq)
        assert not result.cm_final.matrix.flags.writeable
        assert not result.equivalent.cm_eq.matrix.flags.writeable


# ---------------------------------------------------------------------------
# Comparison columns and the reports built from them.
# ---------------------------------------------------------------------------


class Compared(NamedTuple):
    quantity: str
    closed_form: float
    brute_force: float
    abs_diff: float
    rel_diff: float
    passed: bool


def _scalar_compare(quantity, closed_form, brute_force, rel_tol=1e-7, abs_tol=1e-9):
    """One comparison as one pair at a time made it, kept here as the
    reference."""
    abs_diff = abs(closed_form - brute_force)
    denom = max(abs(closed_form), abs(brute_force))
    rel_diff = abs_diff / denom if denom > 0.0 else 0.0
    passed = abs_diff <= abs_tol or rel_diff <= rel_tol
    return Compared(quantity, closed_form, brute_force, abs_diff, rel_diff, passed)


def _csv_reference(reports):
    """The per-comparison CSV as ``csv.writer`` wrote it, row by row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["quantity", "closed_form", "brute_force", "abs_diff", "rel_diff", "pass"])
    for r in reports:
        writer.writerow([r.quantity, f"{r.closed_form:.17g}", f"{r.brute_force:.17g}",
                         f"{r.abs_diff:.6g}", f"{r.rel_diff:.6g}", str(r.passed).lower()])
    return buffer.getvalue()


def _summary_reference(reports, cases, seed):
    return {
        "cases": cases,
        "comparisons": len(reports),
        "passes": sum(r.passed for r in reports),
        "worst_rel_diff": max((r.rel_diff for r in reports), default=0.0),
        "seed": seed,
    }


def _rows(reports):
    """Each comparison of a ``SuiteReports`` read from its columns."""
    columns = (reports.closed_form, reports.brute_force, reports.abs_diff, reports.rel_diff)
    return [Compared(reports.quantity(i), *(float(column[i]) for column in columns),
                     bool(reports.passed[i])) for i in range(len(reports))]


values = st.floats() | st.sampled_from([0.0, -0.0, 1e-9, 1e-300, 5e-324, 1e308, math.nan])
block_sizes = st.tuples(st.integers(1, 6), st.integers(1, 6))
route_pairs = st.lists(st.tuples(values, values), min_size=3, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(block_sizes, route_pairs), max_size=3))
def test_comparison_columns_equal_the_scalar_compare(cases):
    """Column comparisons, and the labels, CSV and summary made from them,
    give each pair the scalar results, nan and inf included."""
    want = []
    for case, ((m, n), case_pairs) in enumerate(cases):
        for (route, _, _), (x, y) in zip(ROUTE_PAIRS, case_pairs):
            want.append(_scalar_compare(f"case{case:04d}_m{m}n{n}_{route}", x, y))
    pairs = [pair for _, case_pairs in cases for pair in case_pairs]
    closed_form, brute_force = np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
    got = SuiteReports([shape for shape, _ in cases], closed_form, brute_force,
                       *_compared(closed_form, brute_force))
    assert repr(_rows(got)) == repr(want)
    assert reports_to_csv_text(got) == _csv_reference(want)
    summary = summarize_reports(got, seed=3)
    assert repr(summary) == repr(_summary_reference(want, len(cases), 3))


def _per_case_reports(cases, seed):
    """The suite's reports as the per-case code made them: every route on
    one spec at a time."""
    split = el.ModeBipartition((0,), (1,))
    reports = []
    for index, spec in enumerate(SpecSampler(seed).bisymmetric(count=cases)):
        m, n = spec.m, spec.n
        cm = el.bisymmetric_cm(spec)
        invariant = el.equivalent_report(spec).log_negativity
        constructive = oracle_pt_log_negativity(el.localize(cm, m, n).equivalent.cm_eq, split)
        part = el.ModeBipartition(tuple(range(m)), tuple(range(m, m + n)))
        brute = oracle_pt_log_negativity(cm, part)
        label = f"case{index:04d}_m{m}n{n}"
        reports += [
            _scalar_compare(f"{label}_invariant_vs_brute", invariant, brute),
            _scalar_compare(f"{label}_constructive_vs_brute", constructive, brute),
            _scalar_compare(f"{label}_invariant_vs_constructive", invariant, constructive),
        ]
    return reports


def test_suite_reports_are_the_per_case_reports():
    reports, summary, _ = run_oracle_suite(cases=80, seed=23)
    want = _per_case_reports(80, 23)
    assert isinstance(reports, SuiteReports) and len(reports) == 240
    assert repr(_rows(reports)) == repr(want)
    assert reports_to_csv_text(reports) == _csv_reference(want)
    assert summary == _summary_reference(want, 80, 23)


def test_brute_force_column_is_the_oracle_of_each_shape_stack():
    """Route (c) runs on the checked stack of each mode count, shapes
    mixed: its column holds, bit for bit, what the public oracle gives
    the stack of each (m, n) shape alone."""
    cases, seed = 600, 31
    reports, _, _ = run_oracle_suite(cases=cases, seed=seed)
    # the first pair of each case compares route (a) with route (c)
    assert ROUTE_PAIRS[0][1:] == (0, 2)
    brute = reports.brute_force[:: len(ROUTE_PAIRS)]
    batch = BisymmetricBatch.of(SpecSampler(seed).bisymmetric(count=cases))
    shapes = {}
    for index, shape in enumerate(zip(batch.m.tolist(), batch.n.tolist())):
        shapes.setdefault(shape, []).append(index)
    assert len(shapes) == 36
    for (m, n), indices in shapes.items():
        stack = el.bisymmetric_cm(batch.take(np.array(indices)))
        want = oracle_pt_log_negativity(stack, el.ModeBipartition.contiguous(m, n))
        assert np.array_equal(bits(brute[indices]), bits(want)), (m, n)


def test_brute_force_splits_each_matrix_of_a_mode_count_stack_at_its_own_m():
    """Route (c) mirrors each matrix of a mode count's stack, shapes
    mixed, at its own split: each value has the bits of the public oracle
    on that matrix and split, and a matrix with no Cholesky factor fails
    in place with the oracle's error."""
    for total, specs in _one_size_mixes().items():
        stack = np.array(el.bisymmetric_cm(BisymmetricBatch.of(specs)))
        broken = len(specs) // 2
        stack[broken] = -np.eye(2 * total)  # symmetric and finite, not positive definite
        m = np.array([spec.m for spec in specs])
        values = _stack_log_negativities(_mirror_second_blocks(stack, m), _PointErrors(len(specs)))
        assert len(values) == len(specs)
        for k, (spec, matrix, value) in enumerate(zip(specs, stack, values)):
            cm, part = el.CovarianceMatrix(matrix), el.ModeBipartition.contiguous(spec.m, spec.n)
            if k == broken:
                with pytest.raises(NumericalDomainError) as excinfo:
                    oracle_pt_log_negativity(cm, part)
                assert type(value) is NumericalDomainError and str(value) == str(excinfo.value)
            else:
                assert bits(value) == bits(oracle_pt_log_negativity(cm, part)), (total, k)
