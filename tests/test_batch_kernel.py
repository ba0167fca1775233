"""The invariant route evaluated as one batch: every point of a batch gets
the bits and the error of its own single-point evaluation."""

import math

import numpy as np
import pytest

import entloc as el
import entloc.experiments as exp
from entloc.errors import InvalidArgumentError, LocalizationError, NumericalDomainError
from entloc.experiments import (
    HIERARCHY_COLUMNS,
    SCALING_COLUMNS,
    SweepConfig,
    render_table,
    run_hierarchy,
    run_scaling,
    traced_symmetric_spec,
)
from entloc.localization import _fs_split_spec
from entloc.oracle import SpecSampler
from entloc.states import BisymmetricBatch
from oracle_helpers import ScalarSampler

# valid specs on which the invariant route itself fails: an overflowing
# square (NumericalDomainError) and an overflowing determinant that leaves
# the equivalent state non-finite (InvalidArgumentError)
OVERFLOWING = el.BisymmetricSpec(2, 2, 1e100, 0.0, 0.0, 1e100, 0.0, 0.0, 0.0, 0.0)
NON_FINITE = el.BisymmetricSpec(2, 2, 1e78, 0.0, 0.0, 1e78, 0.0, 0.0, 0.0, 0.0)


def _same(a, b):
    # == on the dataclass misses -0.0 against 0.0; repr does not
    return a == b and repr(a) == repr(b)


def _traced_splits():
    specs = []
    for modes in (2, 3, 6, 11):
        for q in (0, 1, 4):
            for b in (1.0, 1.3, 2.0, 7.5):
                parent = traced_symmetric_spec(modes, q, b)
                specs += [_fs_split_spec(parent, k) for k in range(1, modes)]
    return specs


def test_batch_matches_single_calls():
    sampler = SpecSampler(2024)
    specs = sampler.bisymmetric(count=2000)
    separable = ScalarSampler(sampler.rng)  # the draws that follow on one stream
    specs += [separable.separable_bisymmetric() for _ in range(200)]
    specs += _traced_splits()
    batch = el.equivalent_report(specs)
    assert len(batch) == len(specs)
    assert any(r.separable for r in batch) and any(not r.separable for r in batch)
    assert any(r.eof is not None for r in batch)
    for spec, report in zip(specs, batch):
        assert _same(report, el.equivalent_report(spec))


def _local_basis(matrix, m, n, rng):
    """The same random single-mode symplectic on every mode of each block."""

    def single():
        r, t = rng.uniform(-0.6, 0.6), rng.uniform(0.0, math.pi)
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s], [s, c]]) @ np.diag([math.exp(r), math.exp(-r)])

    s = np.zeros_like(matrix)
    s[: 2 * m, : 2 * m] = np.kron(np.eye(m), single())
    s[2 * m :, 2 * m :] = np.kron(np.eye(n), single())
    out = s.T @ matrix @ s
    return el.CovarianceMatrix(0.5 * (out + out.T))


def test_batch_from_cm_matches_single_calls_in_local_bases():
    rng = np.random.default_rng(7)
    for spec in SpecSampler(8, max_block=4).bisymmetric(count=40):
        cm = _local_basis(el.bisymmetric_cm(spec).matrix, spec.m, spec.n, rng)
        [batch] = el.equivalent_report_from_cm(cm, [spec.m], [spec.n])
        assert _same(batch, el.equivalent_report_from_cm(cm, spec.m, spec.n))
        assert batch.log_negativity == pytest.approx(
            el.equivalent_report(spec).log_negativity, rel=1e-9, abs=1e-12
        )
    for modes, q, b in ((6, 0, 1.5), (9, 3, 2.2), (12, 1, 1.0)):
        spec = traced_symmetric_spec(modes, q, b)
        cm = _local_basis(el.fully_symmetric_cm(spec).matrix, modes, 0, rng)
        ks = list(range(1, modes))
        batch = el.equivalent_report_from_cm(cm, ks, [modes - k for k in ks])
        for k, report in zip(ks, batch):
            assert _same(report, el.equivalent_report_from_cm(cm, k, modes - k))


def test_sweep_cells_are_never_negative_zero():
    hierarchy = run_hierarchy(
        SweepConfig(modes=12, b_grid=(1.0, 1.0 + 1e-12, 1.2, 2.5), trace_out=(0, 3))
    )
    scaling = run_scaling(
        SweepConfig(b=1.0, n_range=(1, 2, 5), trace_out=(0, 2))
    )
    text = render_table(hierarchy, HIERARCHY_COLUMNS, "csv") + render_table(
        scaling, SCALING_COLUMNS, "csv"
    )
    cells = [cell for line in text.splitlines() for cell in line.split(",")]
    assert "0" in cells
    assert not [cell for cell in cells if cell.startswith("-0") and float(cell) == 0.0]


def _error_of(spec):
    with pytest.raises(Exception) as info:
        el.equivalent_report(spec)
    return info.value


@pytest.mark.parametrize(
    "failing", [(OVERFLOWING, NON_FINITE), (NON_FINITE, OVERFLOWING)], ids=["numerical", "invalid"]
)
def test_batch_keeps_each_failing_spec_error_in_place(failing):
    ok = SpecSampler(3).bisymmetric()
    results = el.equivalent_report([ok, failing[0], ok, failing[1]])
    assert _same(results[0], el.equivalent_report(ok)) and _same(results[2], results[0])
    for result, spec in zip(results[1::2], failing):
        expected = _error_of(spec)  # a single spec raises
        assert type(result) is type(expected) and str(result) == str(expected)

    columns = el.equivalent_report(BisymmetricBatch.of([ok, *failing]))
    assert columns.errors[0] is None
    for error, result in zip(columns.errors[1:], results[1::2]):
        assert type(error) is type(result) and str(error) == str(result)


def star_matrix():
    """An 8x8 matrix with the 1|3 two-block pattern that is not positive
    definite: identity diagonal and a diag(1, 1) cross block from mode 0
    to each of modes 1-3. Its 2|2 split fails the pattern check."""
    matrix = np.eye(8)
    for mode in (1, 2, 3):
        matrix[0:2, 2 * mode : 2 * mode + 2] = matrix[2 * mode : 2 * mode + 2, 0:2] = np.eye(2)
    return el.CovarianceMatrix(matrix)


def test_cm_batch_keeps_each_failing_split_error_in_place():
    cm = star_matrix()
    radicand, pattern = el.equivalent_report_from_cm(cm, [1, 2], [3, 2])
    assert isinstance(radicand, NumericalDomainError) and "negative radicand" in str(radicand)
    assert isinstance(pattern, LocalizationError)
    assert "not block-permutation invariant" in str(pattern)
    swapped = el.equivalent_report_from_cm(cm, [2, 1], [2, 3])
    assert [type(error) for error in swapped] == [LocalizationError, NumericalDomainError]
    assert [str(error) for error in swapped] == [str(pattern), str(radicand)]
    for m, n, error in ((1, 3, radicand), (2, 2, pattern)):
        with pytest.raises(type(error)) as info:
            el.equivalent_report_from_cm(cm, m, n)
        assert str(info.value) == str(error)
    # the split-size scan raises the first failing split, k = 1
    with pytest.raises(NumericalDomainError, match="negative radicand"):
        el.optimal_localizable_entanglement(cm)


# a 2 | 3 two-block state: its 1 | 4 split fails the pattern check
TWO_THREE = el.BisymmetricSpec(2, 3, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25)


def test_cm_batch_keeps_one_failing_split_at_its_index():
    """One split that fails its pattern check keeps that error at its
    index, and the other splits get the reports of their single calls;
    the split-size scan raises that error."""
    cm = el.bisymmetric_cm(TWO_THREE)
    first, failed, last = el.equivalent_report_from_cm(cm, [2, 1, 2], [3, 4, 3])
    single = el.equivalent_report_from_cm(cm, 2, 3)
    assert _same(first, single) and _same(last, single)
    with pytest.raises(LocalizationError) as info:
        el.equivalent_report_from_cm(cm, 1, 4)
    assert type(failed) is LocalizationError and str(failed) == str(info.value)
    with pytest.raises(LocalizationError) as info:
        el.optimal_localizable_entanglement(cm)
    assert str(info.value) == str(failed)


def test_error_items_keep_their_place():
    ok = SpecSampler(3).bisymmetric()
    err = InvalidArgumentError("could not build this spec")
    first, middle, last = el.equivalent_report([ok, err, ok])
    assert middle is err
    assert _same(first, el.equivalent_report(ok)) and _same(last, first)
    results = el.equivalent_report([ok, err, OVERFLOWING])
    assert results[1] is err and isinstance(results[2], NumericalDomainError)
    assert el.equivalent_report([err]) == [err]


def test_kernel_error_classes():
    assert isinstance(_error_of(OVERFLOWING), NumericalDomainError)
    assert "overflow" in str(_error_of(OVERFLOWING))
    assert isinstance(_error_of(NON_FINITE), InvalidArgumentError)


def test_sweep_rows_take_the_error_of_their_own_point(monkeypatch):
    original = exp._fs_split_batch

    def crafted(failing):
        # the split batch with the point (k, b) = (2, 1.5) replaced by ``failing``
        def split(modes, k, b, z1, z2, errors):
            batch = original(modes, k, b, z1, z2, errors)
            point = (k == 2) & (b == 1.5)
            assert np.count_nonzero(point) == 1
            spec = BisymmetricBatch.of([failing])
            return batch._replace(
                m=np.where(point, spec.m, batch.m),
                n=np.where(point, spec.n, batch.n),
                diagonals=np.where(point, spec.diagonals, batch.diagonals),
            )

        return split

    cfg = SweepConfig(modes=6, b_grid=(1.2, 1.5), trace_out=(0,))
    clean = run_hierarchy(cfg)

    monkeypatch.setattr(exp, "_fs_split_batch", crafted(NON_FINITE))
    rows = run_hierarchy(cfg)
    assert [r["status"] for r in rows].count("unphysical") == 1
    assert [r for r in rows if r["status"] == "ok"] == [
        r for r in clean if (r["k"], r["b"]) != (2, 1.5)
    ]

    monkeypatch.setattr(exp, "_fs_split_batch", crafted(OVERFLOWING))
    rows = run_hierarchy(cfg)
    assert [r["status"] for r in rows].count("numerical") == 1
    assert [r for r in rows if r["status"] != "numerical"] == [
        r for r in clean if (r["k"], r["b"]) != (2, 1.5)
    ]


def test_hierarchy_validates_each_parent_once_and_calls_the_kernel_once(monkeypatch):
    calls = {"parent": 0, "kernel": 0}
    parent, kernel = exp.traced_symmetric_spec, exp.equivalent_report

    def counted_parent(*args):
        calls["parent"] += 1
        return parent(*args)

    def counted_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(exp, "traced_symmetric_spec", counted_parent)
    monkeypatch.setattr(exp, "equivalent_report", counted_kernel)
    rows = run_hierarchy(SweepConfig(modes=20, b_grid=(1.0, 1.5, 2.0), trace_out=(0, 4)))
    assert len(rows) == 2 * 10 * 3
    assert calls == {"parent": 2 * 3, "kernel": 1}


def test_squares_and_exp_round_like_python_floats():
    from entloc.symplectic import _PointErrors, _squares

    rng = np.random.default_rng(11)
    values = np.exp(rng.uniform(-20.0, 20.0, 20_000)) * rng.choice([-1.0, 1.0], 20_000)
    errors = _PointErrors(len(values))
    squares = _squares(values, errors)
    assert squares.tolist() == [v**2 for v in values.tolist()]
    assert errors.alive.all()

    reports = el.equivalent_report(_traced_splits())
    assert sum(r.log_negativity > 0.0 for r in reports) > 100
    for r in reports:
        assert r.negativity == 0.5 * (math.exp(r.log_negativity) - 1.0)


def test_squares_record_overflow():
    from entloc.symplectic import _PointErrors, _squares

    errors = _PointErrors(3)
    squares = _squares(np.array([2.0, 1e200, math.inf]), errors)
    assert squares.tolist() == [4.0, math.inf, math.inf]
    assert errors.alive.tolist() == [True, False, True]
    assert isinstance(errors.errors[1], NumericalDomainError)


def _eof_closed_form(x):
    """The symmetric-state EoF written out on one Python float."""
    if x >= 1.0:
        return 0.0
    plus = (1.0 + x) ** 2 / (4.0 * x)
    minus = (1.0 - x) ** 2 / (4.0 * x)
    return max(0.0, plus * math.log(plus) - minus * math.log(minus))


def test_eof_column_has_the_bits_of_the_closed_form():
    from entloc.entanglement import _eof_columns
    from entloc.symplectic import _PointErrors

    one = 1.0
    values = np.concatenate([
        np.logspace(-300.0, 3.0, 40_000),
        [one, np.nextafter(one, 0.0), np.nextafter(one, 2.0), one + 1e-10],
    ])
    errors = _PointErrors(len(values))
    with np.errstate(all="ignore"):
        column = _eof_columns(values, errors)
    expected = np.array([_eof_closed_form(x) for x in values.tolist()])
    assert errors.alive.all()
    assert np.array_equal(column.view(np.uint64), expected.view(np.uint64))
    assert np.count_nonzero(column) > 2000
    assert column[-4:].tolist() == [0.0, expected[-3], 0.0, 0.0] and expected[-3] > 0.0
    assert [el.eof_symmetric(x) for x in values[::997].tolist()] == column[::997].tolist()


def test_eof_column_keeps_each_error_in_place():
    from entloc.entanglement import _eof_columns
    from entloc.symplectic import _PointErrors

    failing = {1: (InvalidArgumentError, 0.0), 3: (InvalidArgumentError, -0.3),
               4: (InvalidArgumentError, math.nan), 6: (NumericalDomainError, 1e-308),
               7: (NumericalDomainError, 5e-324)}
    values = np.array([0.5, 0.0, 2.0, -0.3, math.nan, 0.01, 1e-308, 5e-324, 1.0])
    errors = _PointErrors(len(values))
    with np.errstate(all="ignore"):
        column = _eof_columns(values, errors)
    assert [i for i, error in enumerate(errors.errors) if error is not None] == sorted(failing)
    for i, (kind, value) in failing.items():
        assert type(errors.errors[i]) is kind
        with pytest.raises(kind) as excinfo:
            el.eof_symmetric(value)
        assert str(excinfo.value) == str(errors.errors[i])
    alive = errors.alive.nonzero()[0]
    assert column[alive].tolist() == [_eof_closed_form(x) for x in values[alive].tolist()]


def test_report_columns_take_eof_errors_of_symmetric_points_only():
    from entloc.entanglement import _pt_pair_columns
    from entloc.symplectic import _PointErrors

    nu_minus = np.array([0.0, 0.0, 0.5, 1e-308, 1e-308, 0.5, 2.0])
    symmetric = np.array([False, True, True, False, True, False, True])
    errors = _PointErrors(len(nu_minus))
    with np.errstate(all="ignore"):
        columns = _pt_pair_columns(nu_minus, nu_minus + 1.0, symmetric, errors)
    kinds = [None if error is None else type(error) for error in columns.errors]
    assert kinds == [None, InvalidArgumentError, None, None, NumericalDomainError, None, None]
    alive = [0, 2, 3, 5, 6]
    assert columns.eof_missing[alive].tolist() == [True, False, True, True, False]
    assert columns.eof[[2, 6]].tolist() == [el.eof_symmetric(0.5), 0.0]
