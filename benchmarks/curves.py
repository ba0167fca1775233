"""Per-layer size curves: single public functions timed at several sizes,
outside any workload and with tracing off.  Each value is the median
over repeats that fit in a small time budget (one call at least)."""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import random_general_state

BUDGET_S = 0.3
MAX_REPEATS = 100


def _median_time(fn, budget=BUDGET_S) -> tuple[float, int]:
    times = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        if len(times) >= MAX_REPEATS or time.perf_counter() - begin >= budget:
            return statistics.median(times), len(times)


def _bisymmetric_params(modes: int) -> dict:
    """Balanced split of the M-mode state traced from a pure (M+2)-mode parent."""
    import entloc

    fs = entloc.ghz_type_spec(modes + 2, 1.5)
    half = modes // 2
    return dict(m=half, n=modes - half, a=fs.b, e1=fs.z1, e2=fs.z2, b=fs.b, z1=fs.z1, z2=fs.z2,
                g1=fs.z1, g2=fs.z2)


def size_curves(seed: int) -> dict:
    """name -> (value, unit, samples)."""
    import entloc
    from entloc import experiments, oracle

    rng = np.random.default_rng(seed)
    out = {}

    def record(name, unit, scale, fn, budget=BUDGET_S):
        value, samples = _median_time(fn, budget)
        out[name] = (value * scale, unit, samples)

    for modes in (20, 200, 1000):
        params = _bisymmetric_params(modes)
        record(f"states.BisymmetricSpec.us.M{modes}", "us", 1e6,
               lambda: entloc.BisymmetricSpec(**params))
    for modes in (20, 200):
        spec = entloc.BisymmetricSpec(**_bisymmetric_params(modes))
        cm = entloc.bisymmetric_cm(spec)
        record(f"localization.localize.ms.M{modes}", "ms", 1e3,
               lambda: entloc.localize(cm, spec.m, spec.n))
        record(f"localization.equivalent_report.us.M{modes}", "us", 1e6,
               lambda: entloc.equivalent_report(spec))
    for modes in (10, 50, 200):
        cm = entloc.CovarianceMatrix(random_general_state(modes, rng)[0])
        record(f"symplectic.symplectic_eigenvalues.ms.N{modes}", "ms", 1e3,
               lambda: entloc.symplectic_eigenvalues(cm))
        record(f"symplectic.williamson.ms.N{modes}", "ms", 1e3, lambda: entloc.williamson(cm))
    cm = entloc.CovarianceMatrix(random_general_state(12, rng)[0])
    part = entloc.ModeBipartition.contiguous(6, 6)
    record("oracle.pt_log_negativity.ms.N12", "ms", 1e3,
           lambda: oracle.oracle_pt_log_negativity(cm, part))

    grid = experiments.parse_b_grid("1:3:81")
    hierarchy_rows = experiments.run_hierarchy(
        experiments.SweepConfig(modes=20, b_grid=grid, trace_out=(0, 4)))
    scaling_rows = experiments.run_scaling(
        experiments.SweepConfig(b=1.5, n_range=tuple(range(1, 16)), trace_out=(0, 4)))
    record("experiments.render_table.ms.rows1650", "ms", 1e3, lambda: (
        experiments.render_table(hierarchy_rows, experiments.HIERARCHY_COLUMNS, "csv"),
        experiments.render_table(scaling_rows, experiments.SCALING_COLUMNS, "csv"),
    ))
    for jobs in (1, 2):
        config = experiments.SweepConfig(modes=20, b_grid=grid, trace_out=(0, 4), jobs=jobs)
        record(f"experiments.run_hierarchy.s.jobs{jobs}", "s", 1.0,
               lambda: experiments.run_hierarchy(config), budget=0.0)
    return out
