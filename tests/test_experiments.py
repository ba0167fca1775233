import json

import pytest

import entloc as el
from entloc.errors import InvalidArgumentError
from entloc.experiments import (
    HIERARCHY_COLUMNS,
    SCALING_COLUMNS,
    SweepConfig,
    default_b_grid,
    parse_b_grid,
    render_table,
    run_hierarchy,
    run_scaling,
    traced_symmetric_spec,
)
from oracle_helpers import cm_allclose


def test_default_b_grid_endpoints():
    grid = default_b_grid(1.0, 3.0, 81)
    assert len(grid) == 81
    assert grid[0] == 1.0
    assert grid[-1] == pytest.approx(3.0)


def test_parse_b_grid():
    assert parse_b_grid("1:2:3") == pytest.approx((1.0, 1.5, 2.0))
    with pytest.raises(InvalidArgumentError):
        parse_b_grid("nope")


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        SweepConfig(b_grid=(0.5,))
    with pytest.raises(InvalidArgumentError):
        SweepConfig(trace_out=())
    with pytest.raises(InvalidArgumentError):
        SweepConfig(b=0.8)


def test_traced_spec_matches_partial_trace():
    spec = traced_symmetric_spec(6, 4, 1.5)
    parent = el.ghz_type_pure(10, 1.5)
    reduced = el.partial_trace(parent, range(6))
    assert cm_allclose(reduced, el.fully_symmetric_cm(spec))


def test_hierarchy_rows_structure_and_values():
    cfg = SweepConfig(modes=8, b_grid=(1.0, 1.5), trace_out=(0, 4), jobs=1)
    rows = run_hierarchy(cfg)
    assert len(rows) == 2 * 4 * 2  # q x k x b
    assert all(set(HIERARCHY_COLUMNS) <= set(row) for row in rows)
    by_key = {(r["q"], r["k"], r["b"]): r for r in rows}
    # at b = 1 everything is separable vacuum
    for q in (0, 4):
        for k in range(1, 5):
            row = by_key[(q, k, 1.0)]
            assert row["E_N"] == 0.0
            assert row["separable"] is True
    # at b = 1.5 entanglement increases with k and pure dominates mixed
    for q in (0, 4):
        ens = [by_key[(q, k, 1.5)]["E_N"] for k in range(1, 5)]
        assert all(ens[i] < ens[i + 1] for i in range(3))
    for k in range(1, 5):
        assert by_key[(4, k, 1.5)]["E_N"] < by_key[(0, k, 1.5)]["E_N"]


def test_hierarchy_every_value_nonnegative_and_flagged():
    cfg = SweepConfig(modes=6, b_grid=(1.0, 2.0), trace_out=(0,))
    for row in run_hierarchy(cfg):
        assert row["status"] == "ok"
        assert row["E_N"] >= 0.0
        assert row["N"] >= 0.0
        if row["E_F"] is not None:
            assert row["E_F"] >= 0.0


def test_scaling_rows_structure_and_trends():
    cfg = SweepConfig(b=1.5, n_range=tuple(range(1, 6)), trace_out=(0, 4))
    rows = run_scaling(cfg)
    assert len(rows) == 10
    assert all(set(SCALING_COLUMNS) <= set(row) for row in rows)
    for q in (0, 4):
        sub = [r for r in rows if r["q"] == q]
        nn = [r["E_F_nxn"] for r in sub]
        pair = [r["E_F_1x1"] for r in sub]
        assert all(nn[i] < nn[i + 1] for i in range(len(nn) - 1))
        assert all(pair[i] > pair[i + 1] for i in range(len(pair) - 1))
    first = [r for r in rows if r["q"] == 0 and r["n"] == 1][0]
    assert first["E_F_1x1"] == pytest.approx(first["E_F_nxn"])


def test_jobs_do_not_change_rows():
    cfg1 = SweepConfig(modes=6, b_grid=(1.2, 1.8), trace_out=(0,), jobs=1)
    cfg2 = SweepConfig(modes=6, b_grid=(1.2, 1.8), trace_out=(0,), jobs=2)
    assert run_hierarchy(cfg1) == run_hierarchy(cfg2)


def test_render_csv_deterministic_and_lf_only():
    cfg = SweepConfig(modes=6, b_grid=(1.0, 1.3), trace_out=(0,))
    rows = run_hierarchy(cfg)
    text1 = render_table(rows, HIERARCHY_COLUMNS, "csv")
    text2 = render_table(run_hierarchy(cfg), HIERARCHY_COLUMNS, "csv")
    assert text1 == text2
    assert "\r" not in text1
    assert text1.splitlines()[0] == ",".join(HIERARCHY_COLUMNS)


def test_render_json_round_trips():
    cfg = SweepConfig(b=1.4, n_range=(1, 2), trace_out=(0,))
    rows = run_scaling(cfg)
    loaded = json.loads(render_table(rows, SCALING_COLUMNS, "json"))
    assert loaded[0]["n"] == 1
    assert loaded[0]["status"] == "ok"


def test_unphysical_points_flagged_not_skipped(monkeypatch):
    # force a failure on one grid point and check the row survives
    import entloc.experiments as exp

    original = exp.traced_symmetric_spec

    def failing(modes, q, b):
        if b == 1.5:
            raise InvalidArgumentError("forced", offending_value=0.5)
        return original(modes, q, b)

    monkeypatch.setattr(exp, "traced_symmetric_spec", failing)
    cfg = SweepConfig(modes=6, b_grid=(1.2, 1.5), trace_out=(0,))
    rows = run_hierarchy(cfg)
    assert len(rows) == 6
    flagged = [r for r in rows if r["b"] == 1.5]
    assert flagged and all(r["status"] == "unphysical" for r in flagged)
    assert all(r["E_N"] is None for r in flagged)
