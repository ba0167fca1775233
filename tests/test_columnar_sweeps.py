"""Columnar sweeps against the per-point code they replace.

A sweep validates its splits as one ``BisymmetricBatch``, reads report
columns from one call of the invariant route and renders one column at
a time, the columns of the grid's axes once per grid value. Every row
must equal the per-point evaluation bit for bit, the CSV the per-cell
formula, the JSON ``json.dumps(rows, indent=2)``, and the batch
validator must reject exactly what ``BisymmetricSpec`` rejects, with the
same error.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from entloc.experiments import _Axis
from entloc.localization import _fs_split_batch
from entloc.states import SPEC_PARAMETERS, bisymmetric_batch
from entloc.symplectic import _Rejections
import paper_formulas as pf

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
    return el.equivalent_report(pf.fs_split_spec(traced_symmetric_spec(modes, q, b), k))


def _pair_reports(n, q, b):
    spec = traced_symmetric_spec(2 * n, q, b)
    nn = el.equivalent_report(pf.fs_split_spec(spec, n))
    pair = el.equivalent_report(pf.fs_split_spec(dataclasses.replace(spec, modes=2), 1))
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
    stdlib JSON."""
    columns = _long_columns(count)
    rows = SweepRows(columns)
    names = ["k", "x", "y", "s", "f", "absent"]
    assert len(rows) == count and len(set(map(repr, columns["y"]))) > count // 3
    assert render_table(rows, names, "csv") == csv_reference(rows, names)
    assert render_table(rows, names, "json") == json_reference(rows, names)


@st.composite
def grid_configs(draw):
    """Small sweep configs whose axes repeat and come out of order: split
    sizes, q and n values drawn with repeats, and a grid of one point or
    many, with 1e76 and 1e200 among its points."""
    modes = draw(st.integers(2, 9))
    point = st.floats(1.0, 40.0) | st.sampled_from([1.0, 1.5, 1e76, 1e200])
    grid = draw(st.lists(point, min_size=1, max_size=1) | st.lists(point, min_size=2, max_size=12))
    return SweepConfig(
        modes=modes,
        k_values=tuple(draw(st.lists(st.integers(1, modes - 1), min_size=1, max_size=5))),
        b_grid=tuple(grid), b=draw(point),
        n_range=tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))),
        trace_out=tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))),
    )


# its hierarchy has ok, numerical and unphysical rows, its scaling
# numerical and unphysical ones
EDGE_SWEEP = SweepConfig(modes=6, k_values=(4, 1, 2, 4), b_grid=(1e76, 1.5, 1e200, 1.5), b=1e76,
                         n_range=(4, 1, 2, 1), trace_out=(4, 0, 4))
# reordered subsets of each sweep's columns, with a column no row has
SUBSETS = {"hierarchy": ("b", "status", "absent", "q", "k", "E_N", "n", "m"),
           "scaling": ("n", "absent", "E_F_nxn", "b", "q")}


def _grid_columns(cfg):
    """The axis columns of both sweeps, built cell by cell in row order."""
    hierarchy = {"m": [], "n": [], "k": [], "b": [], "q": []}
    for q in cfg.trace_out:
        for k in cfg.k_values:
            for b in cfg.b_grid:
                for name, cell in zip(hierarchy, (k, cfg.modes - k, k, b, q)):
                    hierarchy[name].append(cell)
    scaling = {"q": [], "n": [], "b": []}
    for q in cfg.trace_out:
        for n in cfg.n_range:
            for name, cell in zip(scaling, (q, n, cfg.b)):
                scaling[name].append(cell)
    return hierarchy, scaling


@pytest.mark.portable(reason="compares two renders of the same Python values in one process")
@settings(max_examples=60, deadline=None)
@given(grid_configs())
@example(EDGE_SWEEP)
@example(SweepConfig(modes=2, b_grid=(1.0,), b=1.0, n_range=(1,), trace_out=(0,)))
def test_grid_rendering_is_the_per_cell_rendering(cfg):
    """A sweep's axis columns, formatted once per grid value, render as
    the per-cell CSV and the stdlib JSON of the same rows, and each axis
    reads as its cells built one by one."""
    sweeps = {"hierarchy": (run_hierarchy(cfg), HIERARCHY_COLUMNS),
              "scaling": (run_scaling(cfg), SCALING_COLUMNS)}
    for (name, (rows, names)), axes in zip(sweeps.items(), _grid_columns(cfg)):
        assert list(rows.columns) == list(names)
        assert {column for column, cells in rows.columns.items() if isinstance(cells, _Axis)} == set(axes)
        assert repr({column: list(rows.columns[column]) for column in axes}) == repr(axes)
        for columns in (names, SUBSETS[name]):
            assert render_table(rows, columns, "csv") == csv_reference(rows, columns)
            assert render_table(rows, columns, "json") == json_reference(rows, columns)
    if cfg is EDGE_SWEEP:
        statuses = [set(rows.columns["status"]) for rows, _ in sweeps.values()]
        assert statuses == [{"ok", "numerical", "unphysical"}, {"numerical", "unphysical"}]


@pytest.mark.portable(reason="indexes Python lists and the axis arithmetic; no floating point")
@settings(max_examples=40, deadline=None)
@given(grid_configs())
@example(EDGE_SWEEP)
def test_sweep_rows_index_as_the_per_cell_lists(cfg):
    """Every index, negative ones included, and every slice of a sweep's
    rows and of each of its axis columns reads the cells built one by
    one; an index past either end raises IndexError."""
    for rows, axes in zip((run_hierarchy(cfg), run_scaling(cfg)), _grid_columns(cfg)):
        cells = {name: list(column) if name in axes else column for name, column in rows.columns.items()}
        assert cells == {**cells, **axes}
        expected = [dict(zip(cells, row)) for row in zip(*cells.values())]
        size = len(expected)
        assert len(rows) == size and rows == expected
        for i in range(-size, size):
            assert rows[i] == expected[i]
            assert all(rows.columns[name][i] == axes[name][i] for name in axes)
        for bounds in [(None, None, None), (1, -1, None), (-3, None, None), (None, None, -2),
                       (size + 5, -size - 5, -3), (2, 2, None)]:
            assert rows[slice(*bounds)] == expected[slice(*bounds)]
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                rows[i]
            for name in axes:
                with pytest.raises(IndexError):
                    rows.columns[name][i]


@pytest.mark.portable(reason="ghz_type_spec and FullySymmetricSpec are Python float arithmetic "
                             "and math.sqrt, which IEEE arithmetic rounds the same everywhere")
@settings(max_examples=300, deadline=None)
@given(st.integers(2, 200), st.integers(0, 200), st.floats(0.0, 300.0))
@example(2, 0, 0.0)
@example(4, 0, 76.5)
@example(2, 198, 300.0)
def test_a_pure_parent_traced_to_any_modes_stays_valid(modes, q, exponent):
    """Wherever the pure (modes+q)-mode parent is valid, so is the state
    left after tracing q modes off it: the sweeps split the parent
    directly, without building the traced spec."""
    b = 10.0 ** exponent
    try:
        parent = el.ghz_type_spec(modes + q, b)
    except InvalidArgumentError:
        return
    traced = el.FullySymmetricSpec(modes, parent.b, parent.z1, parent.z2)
    assert (traced.b, traced.z1, traced.z2) == (parent.b, parent.z1, parent.z2)


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


def _random_points(count):
    """``count`` points drawn as columns from one seeded generator over the
    sampler's default boxes, block sizes 1..6: about a third are valid
    specs. Most blocks of one mode get zero correlations, as a valid
    spec's are; the others keep theirs, which the constructor rejects."""
    rng = np.random.default_rng(4242)
    m, n = rng.integers(1, 7, size=(2, count))
    a, b = rng.uniform(1.0, 3.0, size=(2, count))
    e1, e2, z1, z2 = rng.uniform(-0.8, 0.8, size=(4, count))
    g1, g2 = rng.uniform(-0.6, 0.6, size=(2, count))
    for size, pair in ((m, (e1, e2)), (n, (z1, z2))):
        zeroed = (size == 1) & (rng.random(count) < 0.9)
        for column in pair:
            column[zeroed] = 0.0
    columns = (m, n, a, e1, e2, b, z1, z2, g1, g2)
    return [dict(zip(FIELDS, values)) for values in zip(*(c.tolist() for c in columns))]


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


# one point per rejection branch the random points and the traced splits miss
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
    # a positivity factor (det X = inf - inf) and the core eigenvalue (inf /
    # inf) overflow to nan, which ``min`` passes over: both used to pass
    dict(m=1, n=1, a=1e200, e1=0.0, e2=0.0, b=1e200, z1=0.0, z2=0.0, g1=1e200, g2=0.0),
    dict(m=2, n=2, a=1e160, e1=1e159, e2=1e159, b=1e160, z1=1e159, z2=1e159, g1=1e150, g2=1e150),
]


def test_batch_validation_gives_the_scalar_decision_and_error():
    points = _random_points(20_000) + _traced_split_params() + EDGE_PARAMS
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
    too_large = "parameters too large for the spectrum check: "
    assert expected[-2:] == [(InvalidArgumentError, too_large + "the smallest symplectic "
                                                               "eigenvalue is nan", "None")] * 2


# points whose X P entries give a p - s that glibc's pow(p - s, 2) rounds
# 1 ulp away from (p - s) * (p - s), and whose smallest symplectic
# eigenvalue moves with it; the first three are unphysical, so their
# offending_value shows which square the check took
SQUARE_PARAMS = [
    dict(m=3, n=1, a=1.6282707792505553, e1=-0.2177020430554848, e2=-0.6758856545572214,
         b=1.9153401130183132, z1=0.0, z2=0.0, g1=-0.06943537467583161, g2=0.30903958993534186),
    dict(m=1, n=6, a=2.088587904669404, e1=0.0, e2=0.0, b=1.2558433241675486,
         z1=-0.13053174847218207, z2=0.0693695548013018, g1=-0.40786997102920997,
         g2=0.25423975807024),
    dict(m=1, n=4, a=1.0451868350604783, e1=0.0, e2=0.0, b=2.6201159912471583,
         z1=0.08787390114761762, z2=-0.019735054564681165, g1=-0.16580008262301377,
         g2=-0.49172481274394436),
    dict(m=2, n=1, a=2.4771315513934145, e1=0.2412866198034065, e2=0.6644829066370546,
         b=1.2624936979198202, z1=0.0, z2=0.0, g1=0.1648020841651543, g2=-0.30754768988642744),
    dict(m=1, n=6, a=1.6992045667637226, e1=0.0, e2=0.0, b=2.773660553610072,
         z1=-0.10289549176186052, z2=0.594041498087166, g1=0.03521143605612176,
         g2=-0.04833353042453892),
]


@pytest.mark.portable(reason="the batch and the scalar spectrum checks square p - s by one "
                             "multiply, which IEEE arithmetic rounds the same everywhere")
def test_batch_and_scalar_checks_square_p_minus_s_alike():
    """Both checks square p - s by one multiply: they agree where the C
    library's pow would round differently, and at the overflow boundary,
    where p - s = a^2 - 1 and the square of the largest a below is finite."""
    below = 1.1579208923731618e+77
    boundary = [dict(m=1, n=1, a=a, e1=0.0, e2=0.0, b=1.0, z1=0.0, z2=0.0, g1=0.0, g2=0.0)
                for a in (below, math.nextafter(below, math.inf))]
    points = SQUARE_PARAMS + boundary
    columns = [np.array([p[f] for p in points]) for f in FIELDS]
    expected = [_scalar_outcome(p) for p in points]
    assert list(map(_outcome, bisymmetric_batch(*columns).errors.errors)) == expected
    assert [outcome[2] for outcome in expected[:3]] == [
        "0.3850890928623137", "0.44644540974050956", "0.7620403754723003"
    ]
    assert expected[3:6] == [None] * 3
    assert expected[6] == (
        InvalidArgumentError,
        "parameters too large for the spectrum check: (1.340781e+154 - 1.000000e+00)^2 overflows",
        "None",
    )


def test_batch_validation_of_block_sizes_whose_product_passes_2_63():
    """An int64 product m n wraps past 2**63; the batch check still gives
    each point the scalar decision and error. The first point, with block
    sizes near 2**32, is one the batch once accepted."""
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


def _split_outcome(parent, k):
    """The split spec from the definition, or the type and message of the
    error its validation raises."""
    try:
        return pf.fs_split_spec(parent, k)
    except el.EntlocError as exc:
        return type(exc), str(exc)


@pytest.mark.portable(reason="the split batch is elementwise numpy: no LAPACK, no exponential or "
                             "logarithm")
def test_split_batch_validates_as_the_split_spec():
    """Each point of the split batch, k | modes-k of the pure (modes+q)-mode
    parent, holds the parameters of the split of the traced state built
    from the definition, or the error its validation raises."""
    parents, traced, index, ks = [], [], [], []
    for modes in (2, 3, 6, 8, 10, 20, 50):
        for q in (0, 1, 4):
            for b in (1.0, 1.0 + 1e-12, 3.0, 1e3, 1e76):
                status, parent = _status(traced_symmetric_spec, modes, q, b)
                if parent is not None:
                    index += [len(parents)] * (modes - 1)
                    ks += range(1, modes)
                    parents.append(el.ghz_type_spec(modes + q, b))
                    traced.append(parent)
    index, ks = np.array(index), np.array(ks)
    batch = _fs_split_batch(parents, index, ks, np.array([traced[i].modes for i in index]) - ks)
    outcomes = [_split_outcome(traced[i], k) for i, k in zip(index.tolist(), ks.tolist())]
    for i, outcome in enumerate(outcomes):
        error = batch.errors.errors[i]
        if isinstance(outcome, tuple):
            assert (type(error), str(error)) == outcome
        else:
            assert error is None
            (a, _), (e1, e2), (b, _), (z1, z2), (g1, g2) = batch.diagonals[:, :, i]
            got = (batch.m[i], batch.n[i], a, e1, e2, b, z1, z2, g1, g2)
            assert got == tuple(getattr(outcome, f) for f in FIELDS)
    assert any(isinstance(outcome, tuple) for outcome in outcomes)


@pytest.mark.portable(reason="the split batch is elementwise numpy: no LAPACK, no exponential or "
                             "logarithm")
def test_split_batch_fails_a_point_with_its_parent_error_or_its_range():
    """A point whose parent is an error fails with that error object; a
    split k | rest with k or rest below 1, or more than the parent's M
    modes, fails with its range message."""
    failed = InvalidArgumentError("could not build this parent")
    parents = [failed, el.FullySymmetricSpec(4, 1.5, 0.1, 0.1)]
    batch = _fs_split_batch(parents, np.array([0, 1, 1, 1, 0, 1, 1]),
                            np.array([2, 0, 4, 2, 0, 2, 1]), np.array([2, 4, 0, 2, 4, 3, 2]))
    errors = batch.errors.errors
    assert errors[0] is failed and errors[4] is failed and errors[3] is None and errors[6] is None
    assert [str(error) for error in errors[1:3] + errors[5:6]] == [
        "split 0 | 4 out of range for a 4-mode parent", "split 4 | 0 out of range for a 4-mode parent",
        "split 2 | 3 out of range for a 4-mode parent"]
    assert all(type(error) is InvalidArgumentError for error in errors[1:3] + errors[5:6])
    # a split of fewer modes than the parent's is the split of the traced state
    (b, _), (e1, e2), _, (z1, z2), (g1, g2) = batch.diagonals[:, :, 6]
    assert (batch.m[6], batch.n[6], b, e1, e2, z1, z2, g1, g2) == (1, 2, 1.5, 0.0, 0.0, 0.1, 0.1, 0.1, 0.1)


@pytest.mark.parametrize("params", EDGE_PARAMS, ids=range(len(EDGE_PARAMS)))
def test_batch_of_one_edge_point(params):
    errors = bisymmetric_batch(*([params[f]] for f in FIELDS)).errors
    assert _outcome(errors.errors[0]) == _scalar_outcome(params)


def test_empty_sequences_and_tables():
    assert el.equivalent_report([]) == []
    assert el.equivalent_report_from_cm(pf.vacuum_cm(2), [], []) == []
    empty = bisymmetric_batch(*([] for _ in FIELDS))
    assert len(el.equivalent_report(empty).errors) == 0
    assert render_table(SweepRows({}), HIERARCHY_COLUMNS, "csv") == ",".join(HIERARCHY_COLUMNS) + "\n"
    assert render_table(SweepRows({}), HIERARCHY_COLUMNS, "json") == "[]\n"


# ---------------------------------------------------------------------------
# Relations between splits of one pure parent, which need no oracle.
# ---------------------------------------------------------------------------

RELATION_PARENTS = (3, 4, 6, 9, 16, 25, 40)
# b - 1 log-spaced from 1e-9 to 1e4 - 1: b from 1 + 1e-9 to 1e4
RELATION_B = (1.0 + np.geomspace(1e-9, 1e4 - 1.0, 40)).tolist()


@pytest.fixture(scope="module")
def parent_splits():
    """E_N of every k | r split (k + r <= P) of each pure parent
    ``ghz_type_spec(P, b)``, from one split batch and one call of the
    invariant route, as {(P, b, k, r): E_N}. A parent that
    ``ghz_type_spec`` rejects is skipped, and so is a split that the
    batch rejects as unphysical within rounding: both are the pure
    family's known rejection at large M b. Any other failure fails."""
    parents, index, ks, rs = [], [], [], []
    for modes in RELATION_PARENTS:
        for b in RELATION_B:
            try:
                parents.append(el.ghz_type_spec(modes, b))
            except el.EntlocError as exc:
                assert str(exc).startswith("unphysical parameters"), exc
                continue
            for k in range(1, modes):
                index += [len(parents) - 1] * (modes - k)
                ks += [k] * (modes - k)
                rs += range(1, modes - k + 1)
    columns = el.equivalent_report(_fs_split_batch(parents, np.array(index), np.array(ks),
                                                   np.array(rs)))
    values = {}
    for i, k, r, value, error in zip(index, ks, rs, columns.log_negativity.tolist(),
                                     columns.errors):
        if error is None:
            values[parents[i].modes, parents[i].b, k, r] = value
        else:
            assert str(error).startswith("unphysical parameters"), error
    assert len(values) >= 46_656
    return values


def test_split_entanglement_grows_with_either_block(parent_splits):
    """E_N(k | r) <= E_N(k+1 | r) and E_N(k | r) <= E_N(k | r+1), exactly:
    the smaller split is a partial trace of the larger one, a local
    operation, and E_N is an LOCC monotone (Vidal and Werner, PRA 65,
    032314 (2002)). No tolerance: none of the 85,340 neighbour pairs
    decreases."""
    pairs, decreases = 0, []
    for (modes, b, k, r), value in parent_splits.items():
        for larger in ((modes, b, k + 1, r), (modes, b, k, r + 1)):
            if larger in parent_splits:
                pairs += 1
                if parent_splits[larger] < value:
                    decreases.append(((modes, b, k, r), larger, value, parent_splits[larger]))
    assert pairs >= 85_340
    assert decreases == []


SWAP_SCALE = 32.0  # measured: 10.3, at P = 40, b = 101, 6 | 11
SWAP_FLOOR = 4 * np.finfo(float).eps  # measured: 0.5 eps, at b = 1 + 2e-9 where E_N ~ 1.5e-5


def test_split_entanglement_is_symmetric_under_block_swap(parent_splits):
    """E_N(k | r) = E_N(r | k) to the invariant route's own rounding: the
    gap is at most SWAP_SCALE b^2 eps E_N + SWAP_FLOOR. The relative gap
    grows as b^2 eps, from 5e-15 at b near 1.5 to 2e-7 at b = 1e4; where
    E_N is tiny (b = 1 + 1e-9) only the floor holds it."""
    eps = np.finfo(float).eps
    compared, over = 0, []
    for (modes, b, k, r), value in parent_splits.items():
        swapped = parent_splits.get((modes, b, r, k))
        if swapped is None or k >= r:
            continue
        compared += 1
        bound = SWAP_SCALE * b * b * eps * max(value, swapped) + SWAP_FLOOR
        if not abs(value - swapped) <= bound:
            over.append(((modes, b, k, r), value, swapped, bound))
    assert compared >= 22_389
    assert over == []
