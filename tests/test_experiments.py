import json

import numpy as np
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
import paper_formulas as pf


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


@pytest.mark.portable(reason="validates Python values; no floating-point result")
@pytest.mark.parametrize("fields", [
    dict(n_range=(1.5,), trace_out=(0,)),
    dict(trace_out=(0.5,)),
    dict(k_values=(1.5,)),
    dict(n_range=(True, 2)),
    dict(modes=4.0),
    dict(trace_out=(False,)),
    dict(jobs=1.0),
    dict(b_grid=(1.5, "2")),
    dict(b="1.5"),
    dict(b=True),
], ids=repr)
def test_config_rejects_a_bool_or_non_integral_count_and_a_non_real_squeezing(fields):
    with pytest.raises(InvalidArgumentError, match="must be an integer|must be a real number"):
        SweepConfig(**fields)


@pytest.mark.portable(reason="compares Python values and the texts of equal Python values")
def test_config_makes_numpy_counts_ints_and_squeezings_floats():
    """numpy scalars become Python ints and floats, so every sweep renders
    as JSON, and as the same bytes as the Python values give."""
    plain = SweepConfig(modes=6, k_values=(1, 3), b_grid=(1.5, 2.0), b=1.5, n_range=(1, 2),
                        trace_out=(0, 2), jobs=1)
    numpy = SweepConfig(modes=np.int64(6), k_values=(np.int32(1), np.int64(3)),
                        b_grid=(np.float32(1.5), np.float64(2.0)), b=np.float32(1.5),
                        n_range=(np.int16(1), np.uint8(2)), trace_out=(np.int64(0), np.int64(2)),
                        jobs=np.int64(1))
    assert numpy == plain
    for field in ("modes", "jobs", "b"):
        assert type(getattr(numpy, field)) is type(getattr(plain, field))
    for field in ("k_values", "b_grid", "n_range", "trace_out"):
        assert list(map(type, getattr(numpy, field))) == list(map(type, getattr(plain, field)))
    for run, columns in ((run_hierarchy, HIERARCHY_COLUMNS), (run_scaling, SCALING_COLUMNS)):
        for fmt in ("csv", "json"):
            assert render_table(run(numpy), columns, fmt) == render_table(run(plain), columns, fmt)


def test_traced_spec_matches_partial_trace():
    spec = traced_symmetric_spec(6, 4, 1.5)
    parent = el.fully_symmetric_cm(el.ghz_type_spec(10, 1.5))
    reduced = pf.partial_trace(parent, range(6))
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

    original = exp.ghz_type_spec

    def failing(modes, b):
        if b == 1.5:
            raise InvalidArgumentError("forced", offending_value=0.5)
        return original(modes, b)

    monkeypatch.setattr(exp, "ghz_type_spec", failing)
    cfg = SweepConfig(modes=6, b_grid=(1.2, 1.5), trace_out=(0,))
    rows = run_hierarchy(cfg)
    assert len(rows) == 6
    flagged = [r for r in rows if r["b"] == 1.5]
    assert flagged and all(r["status"] == "unphysical" for r in flagged)
    assert all(r["E_N"] is None for r in flagged)
