"""Parameter sweeps over block-entanglement quantities.

Two experiment families are provided: the hierarchy sweep (block
entanglement of a 2n-mode permutation-invariant state against the split
size k and the single-mode squeezing b, for pure states and for mixed
states obtained by tracing q modes off a pure parent) and the scaling
sweep (balanced-split and pairwise entanglement of formation against n at
fixed squeezing). Drivers emit plain row dictionaries; writers render
deterministic CSV or JSON so identical configs produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import InvalidArgumentError
from .localization import block_log_negativity
from .states import FullySymmetricSpec, _require_finite, ghz_type_spec

HIERARCHY_COLUMNS = ("m", "n", "k", "b", "q", "nu_tilde", "E_N", "N", "E_F", "separable", "status")
SCALING_COLUMNS = ("q", "n", "b", "E_F_1x1", "E_F_nxn", "status")


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for the sweep drivers.

    ``modes`` is the total mode count of the hierarchy state (the paper
    figure uses 20); ``trace_out`` lists the q values, with q = 0 the pure
    family and q > 0 the family traced down from a (modes+q)-mode parent.
    """

    experiment: str = "hierarchy"
    modes: int = 20
    k_values: tuple[int, ...] | None = None
    b_grid: tuple[float, ...] = ()
    b: float = 1.5
    n_range: tuple[int, ...] = tuple(range(1, 16))
    trace_out: tuple[int, ...] = (0, 4)
    jobs: int = 1

    def __post_init__(self):
        if self.experiment not in ("hierarchy", "scaling"):
            raise InvalidArgumentError(f"unknown experiment {self.experiment!r}")
        if self.modes < 2:
            raise InvalidArgumentError(f"need at least two modes, got {self.modes}")
        if any(q < 0 for q in self.trace_out) or not self.trace_out:
            raise InvalidArgumentError(f"trace-out counts must be >= 0, got {self.trace_out}")
        _require_finite(b=self.b, **{f"b_grid[{i}]": b for i, b in enumerate(self.b_grid)})
        if self.experiment == "hierarchy":
            if not self.b_grid:
                object.__setattr__(self, "b_grid", default_b_grid())
            if any(b < 1.0 for b in self.b_grid):
                raise InvalidArgumentError("squeezing grid values must be >= 1")
            ks = self.k_values or tuple(range(1, self.modes // 2 + 1))
            if any(not 1 <= k <= self.modes - 1 for k in ks):
                raise InvalidArgumentError(f"split sizes {ks} out of range")
            object.__setattr__(self, "k_values", tuple(ks))
        if self.experiment == "scaling":
            if self.b < 1.0:
                raise InvalidArgumentError(f"squeezing must be >= 1, got {self.b}")
            if not self.n_range or any(n < 1 for n in self.n_range):
                raise InvalidArgumentError(f"invalid n range {self.n_range}")
        if self.jobs < 1:
            raise InvalidArgumentError(f"jobs must be >= 1, got {self.jobs}")


def default_b_grid(lo: float = 1.0, hi: float = 3.0, steps: int = 81) -> tuple[float, ...]:
    _require_finite(lo=lo, hi=hi)
    if steps < 1:
        raise InvalidArgumentError(f"grid needs at least one point, got {steps}")
    if steps == 1:
        return (lo,)
    width = (hi - lo) / (steps - 1)
    return tuple(lo + i * width for i in range(steps))


def parse_b_grid(text: str) -> tuple[float, ...]:
    """Parse 'lo:hi:steps' into an inclusive uniform grid."""
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad grid spec {text!r}, expected lo:hi:steps") from exc
    return default_b_grid(lo, hi, steps)


def traced_symmetric_spec(modes: int, q: int, b: float) -> FullySymmetricSpec:
    """Spec of the M-mode state left after tracing q modes off a pure
    (M+q)-mode parent; tracing preserves the block pattern exactly."""
    if q < 0:
        raise InvalidArgumentError(f"trace-out count must be >= 0, got {q}")
    parent = ghz_type_spec(modes + q, b)
    if q == 0:
        return parent
    return dataclasses.replace(parent, modes=modes)


def _hierarchy_point(task):
    modes, k, b, q = task
    row = {"m": k, "n": modes - k, "k": k, "b": b, "q": q}
    try:
        spec = traced_symmetric_spec(modes, q, b)
        report = block_log_negativity(spec, k)
    except InvalidArgumentError:
        row.update(
            {"nu_tilde": None, "E_N": None, "N": None, "E_F": None, "separable": None,
             "status": "unphysical"}
        )
        return row
    row.update(
        {
            "nu_tilde": report.nu_tilde_min,
            "E_N": report.log_negativity,
            "N": report.negativity,
            "E_F": report.eof,
            "separable": report.separable,
            "status": "ok",
        }
    )
    return row


def _scaling_point(task):
    n, q, b = task
    row = {"q": q, "n": n, "b": b}
    try:
        spec = traced_symmetric_spec(2 * n, q, b)
        ef_nn = block_log_negativity(spec, n).eof
        pair = spec if spec.modes == 2 else dataclasses.replace(spec, modes=2)
        ef_11 = block_log_negativity(pair, 1).eof
    except InvalidArgumentError:
        row.update({"E_F_1x1": None, "E_F_nxn": None, "status": "unphysical"})
        return row
    row.update({"E_F_1x1": ef_11, "E_F_nxn": ef_nn, "status": "ok"})
    return row


def _map_tasks(fn, tasks, jobs):
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) < 2:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        return list(executor.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))


def run_hierarchy(cfg: SweepConfig) -> list[dict]:
    """Rows (q, k, b) -> entanglement figures for the k x (modes-k) split."""
    tasks = [
        (cfg.modes, k, b, q)
        for q in cfg.trace_out
        for k in cfg.k_values
        for b in cfg.b_grid
    ]
    return _map_tasks(_hierarchy_point, tasks, cfg.jobs)


def run_scaling(cfg: SweepConfig) -> list[dict]:
    """Rows (q, n) -> pairwise and balanced-split entanglement of formation."""
    tasks = [(n, q, cfg.b) for q in cfg.trace_out for n in cfg.n_range]
    return _map_tasks(_scaling_point, tasks, cfg.jobs)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def rows_to_csv_text(rows, columns) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def rows_to_json_text(rows, columns) -> str:
    ordered = [{c: row.get(c) for c in columns} for row in rows]
    return json.dumps(ordered, indent=2) + "\n"


def render_table(rows, columns, fmt: str) -> str:
    if fmt == "csv":
        return rows_to_csv_text(rows, columns)
    if fmt == "json":
        return rows_to_json_text(rows, columns)
    raise InvalidArgumentError(f"unknown output format {fmt!r}")
