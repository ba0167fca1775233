"""Columnar sweeps against the per-point code they replace.

A sweep validates its splits as one ``BisymmetricBatch``, reads report
columns from one call of the invariant route and renders one column at
a time. Every row must equal the per-point evaluation bit for bit, the
CSV the per-cell formula, the JSON ``json.dumps(rows, indent=2)``, and
the batch validator must reject exactly what ``BisymmetricSpec`` rejects,
with the same error.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entloc as el
from entloc.errors import InvalidArgumentError, NumericalDomainError
from entloc.experiments import (
    HIERARCHY_COLUMNS,
    SCALING_COLUMNS,
    SweepConfig,
    render_table,
    run_hierarchy,
    SweepRows,
    run_scaling,
    traced_symmetric_spec,
)
from entloc.localization import _fs_split_batch, _fs_split_spec
from entloc.oracle import SpecSampler
from entloc.states import SPEC_PARAMETERS, bisymmetric_batch
from entloc.symplectic import _PointErrors, _Rejections

FIELDS = ("m", "n") + SPEC_PARAMETERS
# b values where rows turn unphysical (1e3 at larger M, 1e200) or
# numerical (1e76), beside the separable boundary b = 1
SPECIAL_B = [1.0, 1.0 + 1e-12, 1e3, 1e76, 1e200]


def format_cell(value) -> str:
    """The CSV text of one cell, as the per-cell writer made it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def csv_reference(rows, columns) -> str:
    lines = [",".join(columns)]
    lines += [",".join(format_cell(row.get(c)) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def json_reference(rows, columns) -> str:
    return json.dumps([{c: row.get(c) for c in columns} for row in rows], indent=2) + "\n"


def _status(fn, *args):
    """(status, result) of one per-point evaluation."""
    try:
        return "ok", fn(*args)
    except InvalidArgumentError:
        return "unphysical", None
    except NumericalDomainError:
        return "numerical", None


def _split_report(modes, q, b, k):
    return el.equivalent_report(_fs_split_spec(traced_symmetric_spec(modes, q, b), k))


def _pair_reports(n, q, b):
    spec = traced_symmetric_spec(2 * n, q, b)
    nn = el.equivalent_report(_fs_split_spec(spec, n))
    pair = el.equivalent_report(_fs_split_spec(dataclasses.replace(spec, modes=2), 1))
    return nn, pair


@st.composite
def sweep_configs(draw):
    modes = draw(st.integers(2, 12))
    ks = draw(st.lists(st.integers(1, modes - 1), min_size=1, max_size=4, unique=True))
    grid = [1.0, 1.0 + 1e-12] + draw(
        st.lists(st.floats(1.0, 40.0) | st.sampled_from(SPECIAL_B), max_size=3)
    )
    qs = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    b = draw(st.floats(1.0, 40.0) | st.sampled_from(SPECIAL_B))
    n_range = tuple(range(1, draw(st.integers(1, 5)) + 1))
    return SweepConfig(modes=modes, k_values=tuple(ks), b_grid=tuple(draw(st.permutations(grid))),
                       b=b, n_range=n_range, trace_out=tuple(qs))


@settings(max_examples=40, deadline=None)
@given(sweep_configs())
def test_sweep_rows_and_texts_equal_the_per_point_code(cfg):
    rows = run_hierarchy(cfg)
    expected = []
    for q in cfg.trace_out:
        for k in cfg.k_values:
            for b in cfg.b_grid:
                status, report = _status(_split_report, cfg.modes, q, b, k)
                row = {"m": k, "n": cfg.modes - k, "k": k, "b": b, "q": q,
                       "nu_tilde": None, "E_N": None, "N": None, "E_F": None, "separable": None}
                if report is not None:
                    row.update(nu_tilde=report.nu_tilde_min, E_N=report.log_negativity,
                               N=report.negativity, E_F=report.eof, separable=report.separable)
                expected.append({**row, "status": status})
    assert repr(list(rows)) == repr(expected)
    assert render_table(rows, HIERARCHY_COLUMNS, "csv") == csv_reference(expected, HIERARCHY_COLUMNS)
    assert render_table(rows, HIERARCHY_COLUMNS, "json") == json_reference(expected, HIERARCHY_COLUMNS)

    rows = run_scaling(cfg)
    expected = []
    for q in cfg.trace_out:
        for n in cfg.n_range:
            status, reports = _status(_pair_reports, n, q, cfg.b)
            row = {"q": q, "n": n, "b": cfg.b, "E_F_1x1": None, "E_F_nxn": None}
            if reports is not None:
                row.update(E_F_1x1=reports[1].eof, E_F_nxn=reports[0].eof)
            expected.append({**row, "status": status})
    assert repr(list(rows)) == repr(expected)
    assert render_table(rows, SCALING_COLUMNS, "csv") == csv_reference(expected, SCALING_COLUMNS)
    assert render_table(rows, SCALING_COLUMNS, "json") == json_reference(expected, SCALING_COLUMNS)


cells = (st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1e16, 1e-5])
         | st.integers() | st.booleans() | st.none() | st.text(max_size=6)
         | st.lists(st.floats(allow_nan=False) | st.integers(), max_size=3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from("abcd"), cells, max_size=4), max_size=6),
       st.lists(st.sampled_from("abcde"), max_size=5, unique=True))
def test_render_table_of_any_rows_equals_the_per_cell_formulas(rows, columns):
    """Plain row dicts, with columns of one type, mixed types, lists and
    absent cells, render as the per-cell CSV and the stdlib JSON."""
    if all(not isinstance(row.get(c), list) for row in rows for c in columns):
        assert render_table(rows, columns, "csv") == csv_reference(rows, columns)
    assert render_table(rows, columns, "json") == json_reference(rows, columns)


def _long_columns(count):
    """Columns of ``count`` cells, each of one type: floats drawn from a
    pool with repeats, signed zeros, subnormals, 1e16 and non-finite
    values, with and without None holes; ints, strings and bools."""
    rng = np.random.default_rng(16)
    specials = [0.0, -0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e-5, 0.1, 1.0 / 3.0,
                math.nan, math.inf, -math.inf]
    spread = (rng.normal(size=count) * 10.0 ** rng.integers(-30, 30, size=count)).tolist()
    pool = specials + spread[: count // 2]
    floats = [pool[i] for i in rng.integers(0, len(pool), size=count)]
    holes = rng.random(count) < 0.1
    return {
        "x": [None if hole else value for value, hole in zip(spread, holes)],
        "y": floats,
        "k": rng.integers(-5, 2**40, size=count).tolist()[: count // 3] * 3 + [7] * (count % 3),
        "s": [("ok", "unphysical", "numerical", 'q"')[i] for i in rng.integers(0, 4, size=count)],
        "f": [None if hole else bool(i) for hole, i in zip(holes, rng.integers(0, 2, size=count))],
    }


@pytest.mark.parametrize("count", [2000, 2401])
def test_render_table_of_long_columns_equals_the_per_cell_formulas(count):
    """Columns as long as a paper sweep's render as the per-cell CSV and the
    stdlib JSON, whether they are held as columns or come as row dicts."""
    columns = _long_columns(count)
    rows = SweepRows(columns)
    names = ["k", "x", "y", "s", "f", "absent"]
    assert len(rows) == count and len(set(map(repr, columns["y"]))) > count // 3
    for table in (rows, list(rows)):
        assert render_table(table, names, "csv") == csv_reference(rows, names)
        assert render_table(table, names, "json") == json_reference(rows, names)


def _outcome(error):
    """What a check leaves of a rejection: class, message, offending value."""
    if error is None:
        return None
    return type(error), str(error), repr(getattr(error, "offending_value", None))


def _scalar_outcome(params):
    try:
        el.BisymmetricSpec(**params)
    except InvalidArgumentError as exc:
        return _outcome(exc)
    return None


def _sampler_draws(count):
    """The parameters of the first ``count`` attempts of
    ``SpecSampler(4242).bisymmetric``, those it rejects included.

    Every attempt draws the same values whatever is decided about it, so
    the attempts are replayed from the seed, one ``rng.uniform`` call per
    parameter as the sampler drew them before its draws went into blocks.
    The accepted ones must be the specs the sampler returns.
    """
    sampler = SpecSampler(4242)
    rng = np.random.default_rng(4242)
    draws = []
    for _ in range(count):
        m, n = (int(rng.integers(1, sampler.max_block + 1)) for _ in range(2))
        a = float(rng.uniform(*sampler.b_box))
        e1, e2 = (float(rng.uniform(*sampler.corr_box)) if m > 1 else 0.0 for _ in range(2))
        b = float(rng.uniform(*sampler.b_box))
        z1, z2 = (float(rng.uniform(*sampler.corr_box)) if n > 1 else 0.0 for _ in range(2))
        g1, g2 = (float(rng.uniform(*sampler.cross_box)) for _ in range(2))
        draws.append(dict(m=m, n=n, a=a, e1=e1, e2=e2, b=b, z1=z1, z2=z2, g1=g1, g2=g2))
    accepted = [p for p in draws if _scalar_outcome(p) is None]
    specs = sampler.bisymmetric(count=len(accepted))
    assert [dataclasses.asdict(spec) for spec in specs] == accepted
    assert sampler.attempts <= count
    return draws


def _traced_split_params():
    params = []
    for modes in range(2, 51):
        for q in (0, 1, 4):
            for b in (1.0, 1.0 + 1e-12, 3.0, 1e3):
                status, parent = _status(traced_symmetric_spec, modes, q, b)
                for k in range(1, modes) if parent is not None else ():
                    rest = modes - k
                    params.append(dict(
                        m=k, n=rest, a=parent.b,
                        e1=parent.z1 if k > 1 else 0.0, e2=parent.z2 if k > 1 else 0.0,
                        b=parent.b,
                        z1=parent.z1 if rest > 1 else 0.0, z2=parent.z2 if rest > 1 else 0.0,
                        g1=parent.z1, g2=parent.z2,
                    ))
    return params


# one point per rejection branch the sampler and the traced splits miss
EDGE_PARAMS = [
    dict(m=0, n=2, a=1.5, e1=0.0, e2=0.0, b=1.5, z1=0.1, z2=0.1, g1=0.0, g2=0.0),
    dict(m=2, n=2, a=math.nan, e1=0.1, e2=math.inf, b=1.5, z1=0.0, z2=0.0, g1=-math.inf, g2=0.0),
    dict(m=1, n=2, a=1.5, e1=0.1, e2=0.0, b=1.5, z1=0.0, z2=0.0, g1=0.0, g2=0.0),
    dict(m=2, n=1, a=1.5, e1=0.0, e2=0.0, b=1.5, z1=0.0, z2=-0.2, g1=0.0, g2=0.0),
    dict(m=2, n=2, a=0.5, e1=0.0, e2=0.0, b=1.5, z1=0.0, z2=0.0, g1=0.0, g2=0.0),
    dict(m=2, n=2, a=1e200, e1=0.0, e2=0.0, b=1e200, z1=0.0, z2=0.0, g1=1e200, g2=0.0),
    dict(m=2, n=2, a=1e100, e1=0.0, e2=0.0, b=1e100, z1=0.0, z2=0.0, g1=0.0, g2=0.0),
    dict(m=2, n=2, a=1e78, e1=0.0, e2=0.0, b=1.0, z1=0.0, z2=0.0, g1=0.0, g2=0.0),
    dict(m=3, n=4, a=1.5, e1=-0.0, e2=0.0, b=2.0, z1=0.3, z2=-0.3, g1=0.2, g2=-0.1),
]


def test_batch_validation_gives_the_scalar_decision_and_error():
    points = _sampler_draws(20_000) + _traced_split_params() + EDGE_PARAMS
    columns = [np.array([p[f] for p in points]) for f in FIELDS]
    errors = bisymmetric_batch(*columns).errors
    expected = [_scalar_outcome(p) for p in points]
    rejected = sum(outcome is not None for outcome in expected)
    assert 1000 < rejected < len(points) - 1000
    assert list(map(_outcome, errors.errors)) == expected
    assert errors.alive.tolist() == [outcome is None for outcome in expected]
    # the sampler's screen keeps the decisions and builds no error
    screen = bisymmetric_batch(*columns, errors=_Rejections(len(points))).errors
    assert screen.alive.tolist() == errors.alive.tolist()
    assert screen.errors == [None] * len(points)


def test_batch_validation_of_block_sizes_whose_product_passes_2_63():
    """An int64 product m n wraps past 2**63; the batch check still gives
    each point the scalar decision and error. The first point is a draw of
    ``SpecSampler(0, max_block=2**32 - 1)`` that the batch once accepted."""
    points = [dict(m=3457402175, n=4212655702, a=2.3710839689613894, e1=0.24073484202850604,
                   e2=0.30151476891350404, b=1.7778428479582076, z1=-0.5838455919641421,
                   z2=0.3543813443105308, g1=0.030425186970871043, g2=-0.2277097493292532)]
    for m in (2**32 - 1, 3457402175, 2**31 + 1):
        for g in (0.0, 0.03, 0.5):
            points.append(dict(m=m, n=4212655702, a=2.4, e1=0.24, e2=0.3, b=1.8, z1=0.35,
                               z2=0.2, g1=g, g2=-g))
    columns = [np.array([p[f] for p in points]) for f in FIELDS]
    expected = [_scalar_outcome(p) for p in points]
    assert expected[0] is not None and None in expected
    assert list(map(_outcome, bisymmetric_batch(*columns).errors.errors)) == expected


def test_split_batch_validates_as_the_split_spec():
    points, parents = [], []
    for modes in (2, 3, 6, 8, 10, 20, 50):
        for q in (0, 1, 4):
            for b in (1.0, 1.0 + 1e-12, 3.0, 1e3, 1e76):
                status, parent = _status(traced_symmetric_spec, modes, q, b)
                for k in range(1, modes) if parent is not None else ():
                    points.append(_status(_fs_split_spec, parent, k))
                    parents.append((modes, k, parent.b, parent.z1, parent.z2))
    modes, k, b, z1, z2 = (np.array(column) for column in zip(*parents))
    batch = _fs_split_batch(modes, k, b, z1, z2, _PointErrors(len(k)))
    for i, (status, spec) in enumerate(points):
        assert batch.errors.alive[i] == (status == "ok")
        if spec is not None:
            (a, _), (e1, e2), (b, _), (z1, z2), (g1, g2) = batch.diagonals[:, :, i]
            got = (batch.m[i], batch.n[i], a, e1, e2, b, z1, z2, g1, g2)
            assert got == tuple(getattr(spec, f) for f in FIELDS)
    assert any(status != "ok" for status, _ in points)


@pytest.mark.parametrize("params", EDGE_PARAMS, ids=range(len(EDGE_PARAMS)))
def test_batch_of_one_edge_point(params):
    errors = bisymmetric_batch(*([params[f]] for f in FIELDS)).errors
    assert _outcome(errors.errors[0]) == _scalar_outcome(params)


def test_empty_sequences_and_tables():
    assert el.equivalent_report([]) == []
    assert el.equivalent_report_from_cm(el.vacuum_cm(2), [], []) == []
    empty = bisymmetric_batch(*([] for _ in FIELDS))
    assert len(el.equivalent_report(empty).errors) == 0
    assert render_table([], HIERARCHY_COLUMNS, "csv") == ",".join(HIERARCHY_COLUMNS) + "\n"
    assert render_table([], HIERARCHY_COLUMNS, "json") == "[]\n"
