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
from dataclasses import dataclass

from .errors import InvalidArgumentError, NumericalDomainError
from .localization import _attempt, _fs_split_spec, equivalent_report
from .states import FullySymmetricSpec, _require_finite, ghz_type_spec

HIERARCHY_COLUMNS = ("m", "n", "k", "b", "q", "nu_tilde", "E_N", "N", "E_F", "separable", "status")
SCALING_COLUMNS = ("q", "n", "b", "E_F_1x1", "E_F_nxn", "status")


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for the sweep drivers.

    One config serves both sweeps: ``run_hierarchy`` reads ``modes``,
    ``k_values`` and ``b_grid``, ``run_scaling`` reads ``b`` and
    ``n_range``, both read ``trace_out``. Every field is validated, and
    an empty ``b_grid`` and unset ``k_values`` get their defaults.
    ``modes`` is the total mode count of the hierarchy state (the paper
    figure uses 20); ``trace_out`` lists the q values, with q = 0 the pure
    family and q > 0 the family traced down from a (modes+q)-mode parent.
    ``jobs`` is accepted and validated but has no effect: a sweep is one
    batch of the invariant route in one process, which a process pool
    no longer speeds up.
    """

    modes: int = 20
    k_values: tuple[int, ...] | None = None
    b_grid: tuple[float, ...] = ()
    b: float = 1.5
    n_range: tuple[int, ...] = tuple(range(1, 16))
    trace_out: tuple[int, ...] = (0, 4)
    jobs: int = 1

    def __post_init__(self):
        if self.modes < 2:
            raise InvalidArgumentError(f"need at least two modes, got {self.modes}")
        if any(q < 0 for q in self.trace_out) or not self.trace_out:
            raise InvalidArgumentError(f"trace-out counts must be >= 0, got {self.trace_out}")
        _require_finite(b=self.b, **{f"b_grid[{i}]": b for i, b in enumerate(self.b_grid)})
        if not self.b_grid:
            object.__setattr__(self, "b_grid", default_b_grid())
        if any(b < 1.0 for b in self.b_grid):
            raise InvalidArgumentError("squeezing grid values must be >= 1")
        ks = self.k_values or tuple(range(1, self.modes // 2 + 1))
        if any(not 1 <= k <= self.modes - 1 for k in ks):
            raise InvalidArgumentError(f"split sizes {ks} out of range")
        object.__setattr__(self, "k_values", tuple(ks))
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


def _row_status(results) -> str:
    """The status of a row from its results, taken in order: "ok" when
    none failed, else that of the first error, "unphysical" for an
    InvalidArgumentError (the point is no physical state) and "numerical"
    for a NumericalDomainError (the invariant route left the float range
    at a valid point); any other error is raised."""
    for result in results:
        if isinstance(result, InvalidArgumentError):
            return "unphysical"
        if isinstance(result, NumericalDomainError):
            return "numerical"
        if isinstance(result, Exception):
            raise result
    return "ok"


def run_hierarchy(cfg: SweepConfig) -> list[dict]:
    """Rows (q, k, b) -> entanglement figures for the k x (modes-k) split.

    Each parent state is validated once per (q, b); every split goes
    through one batch of the invariant route.
    """
    parents = {
        (q, b): _attempt(traced_symmetric_spec, cfg.modes, q, b)
        for q in cfg.trace_out
        for b in cfg.b_grid
    }
    keys = [(q, k, b) for q in cfg.trace_out for k in cfg.k_values for b in cfg.b_grid]
    splits = [_attempt(_fs_split_spec, parents[q, b], k) for q, k, b in keys]
    results = equivalent_report(splits, return_errors=True)
    rows = []
    for (q, k, b), result in zip(keys, results):
        row = {"m": k, "n": cfg.modes - k, "k": k, "b": b, "q": q}
        status = _row_status([result])
        if status == "ok":
            row.update(
                {
                    "nu_tilde": result.nu_tilde_min,
                    "E_N": result.log_negativity,
                    "N": result.negativity,
                    "E_F": result.eof,
                    "separable": result.separable,
                }
            )
        else:
            row.update({"nu_tilde": None, "E_N": None, "N": None, "E_F": None, "separable": None})
        row["status"] = status
        rows.append(row)
    return rows


def _pair_spec(spec: FullySymmetricSpec) -> FullySymmetricSpec:
    return spec if spec.modes == 2 else dataclasses.replace(spec, modes=2)


def run_scaling(cfg: SweepConfig) -> list[dict]:
    """Rows (q, n) -> pairwise and balanced-split entanglement of formation,
    both from one batch of the invariant route."""
    keys = [(q, n) for q in cfg.trace_out for n in cfg.n_range]
    outcomes = []
    for q, n in keys:
        spec = _attempt(traced_symmetric_spec, 2 * n, q, cfg.b)
        outcomes += [
            _attempt(_fs_split_spec, spec, n),
            _attempt(_fs_split_spec, _attempt(_pair_spec, spec), 1),
        ]
    results = equivalent_report(outcomes, return_errors=True)
    rows = []
    for i, (q, n) in enumerate(keys):
        row = {"q": q, "n": n, "b": cfg.b}
        nn, pair = results[2 * i : 2 * i + 2]
        status = _row_status([nn, pair])
        if status == "ok":
            row.update({"E_F_1x1": pair.eof, "E_F_nxn": nn.eof})
        else:
            row.update({"E_F_1x1": None, "E_F_nxn": None})
        row["status"] = status
        rows.append(row)
    return rows


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
