"""Parameter sweeps over block-entanglement quantities.

Two experiment families are provided: the hierarchy sweep (block
entanglement of a 2n-mode permutation-invariant state against the split
size k and the single-mode squeezing b, for pure states and for mixed
states obtained by tracing q modes off a pure parent) and the scaling
sweep (balanced-split and pairwise entanglement of formation against n at
fixed squeezing).

A sweep is columnar from end to end. ``run_hierarchy`` and
``run_scaling`` build each pure parent once (``ghz_type_spec``), stack
every split of every parent into one ``BisymmetricBatch``
(``_fs_split_batch``: any modes of a permutation-invariant state carry
its pattern), and make one call of the invariant route, which gives
report columns. The rows are those columns, each held once
(``SweepRows``): a sequence of row dicts, made on access. The columns of
the grid's axes (m, n, k, b and q of the hierarchy; q, n and b of the
scaling sweep) are held with their structure: each of a few values
repeated over consecutive rows, the block repeated over the table.
``render_table`` formats CSV or JSON one column at a time: an axis
column once per grid value, its texts then repeated as its cells are;
another float column in one ``%`` pass, an int or string column once
per distinct value. Identical configs produce identical bytes.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .entanglement import ReportColumns
from .errors import EntlocError, InvalidArgumentError, NumericalDomainError
from .localization import _fs_split_batch, equivalent_report
from .states import FullySymmetricSpec, _require_finite, ghz_type_spec
from .symplectic import _float_texts, _json_entry_texts, _json_records

HIERARCHY_COLUMNS = ("m", "n", "k", "b", "q", "nu_tilde", "E_N", "N", "E_F", "separable", "status")
SCALING_COLUMNS = ("q", "n", "b", "E_F_1x1", "E_F_nxn", "status")


def _number(name: str, value, kind: type):
    """``value`` as a Python ``kind``, int or float; no bool, and no 1.5 for an int."""
    types = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, types):
        raise InvalidArgumentError(f"{name} must be {'an integer' if kind is int else 'a real number'}, "
                                   f"got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for the sweep drivers.

    One config serves both sweeps: ``run_hierarchy`` reads ``modes``,
    ``k_values`` and ``b_grid``, ``run_scaling`` reads ``b`` and
    ``n_range``, both read ``trace_out``. Every field is validated and made
    Python ints or floats; an empty ``b_grid`` and no ``k_values`` get defaults.
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
        for name, kind in (("modes", int), ("jobs", int), ("b", float)):
            object.__setattr__(self, name, _number(name, getattr(self, name), kind))
        for name, kind in (("k_values", int), ("n_range", int), ("trace_out", int), ("b_grid", float)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(_number(f"{name}[{i}]", item, kind)
                                                     for i, item in enumerate(getattr(self, name))))
        if self.modes < 2:
            raise InvalidArgumentError(f"need at least two modes, got {self.modes}")
        if not self.trace_out:
            raise InvalidArgumentError("trace-out counts must not be an empty list")
        if any(q < 0 for q in self.trace_out):
            raise InvalidArgumentError(f"trace-out counts must be >= 0, got {self.trace_out}")
        _require_finite(b=self.b, **{f"b_grid[{i}]": b for i, b in enumerate(self.b_grid)})
        if not self.b_grid:
            object.__setattr__(self, "b_grid", default_b_grid())
        if any(b < 1.0 for b in self.b_grid):
            raise InvalidArgumentError("squeezing grid values must be >= 1")
        ks = tuple(range(1, self.modes // 2 + 1)) if self.k_values is None else self.k_values
        if not ks:
            raise InvalidArgumentError("split sizes must not be an empty list")
        if any(not 1 <= k <= self.modes - 1 for k in ks):
            raise InvalidArgumentError(f"split sizes {ks} out of range")
        object.__setattr__(self, "k_values", ks)
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
    return FullySymmetricSpec(modes, parent.b, parent.z1, parent.z2)


@dataclass(frozen=True)
class _Axis(Sequence):
    """A column of a sweep grid's axis: each of ``values`` repeated over
    ``repeat`` consecutive rows, and that block repeated ``tile`` times.
    ``axis[i]`` is the cell of row i."""

    values: list
    repeat: int
    tile: int

    def __len__(self) -> int:
        return len(self.values) * self.repeat * self.tile

    def __getitem__(self, index: int):
        return self.values[range(len(self))[index] // self.repeat % len(self.values)]

    def __iter__(self):
        return iter(self.spread(self.values))

    def spread(self, items: list) -> list:
        """``items``, one per value, laid out as the column's cells."""
        if self.repeat != 1:
            items = list(chain.from_iterable([item] * self.repeat for item in items))
        return items * self.tile


class SweepRows(Sequence):
    """The rows of a sweep, held as columns.

    ``columns`` maps each column name to its cells in row order, as Python
    values (int, float, bool, str, or None for a missing value), each
    column of one type: a list, or an ``_Axis`` for an axis of the grid.
    A row is a dict in column order, made when it is read; rows compare
    equal to any sequence of equal dicts. The columns are not to be
    changed after construction.
    """

    def __init__(self, columns: dict):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return {name: cells[index] for name, cells in self.columns.items()}

    def __iter__(self):
        names = list(self.columns)
        return (dict(zip(names, cells)) for cells in zip(*self.columns.values()))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"SweepRows({list(self)!r})"


def _status(error) -> str:
    """The status of a point from its error: "ok" for none, "unphysical"
    for an InvalidArgumentError (the point is no physical state) and
    "numerical" for a NumericalDomainError (the invariant route left the
    float range at a valid point); any other error is raised."""
    if error is None:
        return "ok"
    if isinstance(error, InvalidArgumentError):
        return "unphysical"
    if isinstance(error, NumericalDomainError):
        return "numerical"
    raise error


def _attempt(fn, *args):
    """fn(*args), or the EntlocError it raises, without the traceback that
    would hold this frame. Makes a parent state that could not be built the
    parent of its points, which then fail with its error."""
    try:
        return fn(*args)
    except EntlocError as exc:
        return exc.with_traceback(None)


def _cells(values: np.ndarray, missing: np.ndarray) -> list:
    """The values as Python numbers, None where ``missing``."""
    cells = values.tolist()
    if missing.any():
        cells = [None if gone else cell for cell, gone in zip(cells, missing.tolist())]
    return cells


def _report_cells(report: ReportColumns) -> dict:
    """The hierarchy's figure columns of a report batch, None on failed rows."""
    failed = np.array([error is not None for error in report.errors], dtype=bool)
    return {
        "nu_tilde": _cells(report.nu_tilde_min, failed),
        "E_N": _cells(report.log_negativity, failed),
        "N": _cells(report.negativity, failed),
        "E_F": _cells(report.eof, report.eof_missing | failed),
        "separable": _cells(report.separable, failed),
    }


def run_hierarchy(cfg: SweepConfig) -> SweepRows:
    """Rows (q, k, b) -> entanglement figures for the k x (modes-k) split.

    Each pure (modes+q)-mode parent is built once per (q, b); every split
    goes through one batch of the invariant route.
    """
    qs, ks, grid = cfg.trace_out, cfg.k_values, cfg.b_grid
    parents = [_attempt(ghz_type_spec, cfg.modes + q, b) for q in qs for b in grid]
    # points in (q, k, b) order, b fastest; the parent of (q, k, b) is (q, b)
    shape = (len(qs), len(ks), len(grid))
    index = np.broadcast_to(np.arange(len(parents)).reshape(len(qs), 1, -1), shape).ravel()
    k = np.broadcast_to(np.array(ks, dtype=np.int64).reshape(1, -1, 1), shape).ravel()
    report = equivalent_report(_fs_split_batch(parents, index, k, cfg.modes - k))
    ks_axis = _Axis(list(ks), len(grid), len(qs))
    return SweepRows({
        "m": ks_axis,
        "n": _Axis([cfg.modes - size for size in ks], len(grid), len(qs)),
        "k": ks_axis,
        "b": _Axis(list(grid), 1, len(qs) * len(ks)),
        "q": _Axis(list(qs), len(ks) * len(grid), 1),
        **_report_cells(report),
        "status": list(map(_status, report.errors)),
    })


def run_scaling(cfg: SweepConfig) -> SweepRows:
    """Rows (q, n) -> the 1 | 1 and n | n entanglement of formation of the
    pure (2n+q)-mode parent, from one batch of the invariant route."""
    keys = [(q, n) for q in cfg.trace_out for n in cfg.n_range]
    parents = [_attempt(ghz_type_spec, 2 * n + q, cfg.b) for q, n in keys]
    # points 0..R-1 split each parent n | n, points R..2R-1 its 1 | 1
    count = len(keys)
    k = np.array([n for _, n in keys] + [1] * count, dtype=np.int64)
    report = equivalent_report(_fs_split_batch(parents, np.tile(np.arange(count), 2), k, k))
    errors = [nn if nn is not None else pair
              for nn, pair in zip(report.errors[:count], report.errors[count:])]
    failed = np.array([error is not None for error in errors], dtype=bool)
    eof = _cells(report.eof, report.eof_missing | np.concatenate([failed, failed]))
    return SweepRows({
        "q": _Axis(list(cfg.trace_out), len(cfg.n_range), 1),
        "n": _Axis(list(cfg.n_range), 1, len(cfg.trace_out)),
        "b": _Axis([cfg.b], 1, count),
        "E_F_1x1": eof[count:],
        "E_F_nxn": eof[:count],
        "status": list(map(_status, errors)),
    })


# the texts of None, True and False in each output format
_NAMED = {"csv": ("", "true", "false"), "json": ("null", "true", "false")}


def _column_texts(values: list, fmt: str) -> list:
    """The text of each cell of one column in ``fmt``, "csv" or "json".

    Floats are formatted by one ``%`` over the column, with ``.12g`` for
    CSV and their repr for JSON; None, True and False by name; strings as
    they are in CSV and quoted in JSON; ints once per distinct value.
    """
    none, true, false = _NAMED[fmt]
    kinds = set(map(type, values))
    if kinds <= {float, type(None)}:
        present = values if type(None) not in kinds else [value for value in values if value is not None]
        if fmt == "csv":
            texts = _float_texts(present, "%.12g")
        else:
            texts = _json_entry_texts(_float_texts(present))
        if len(present) == len(values):
            return texts
        texts = iter(texts)
        return [none if value is None else next(texts) for value in values]
    if kinds <= {bool, type(None)}:
        return [none if value is None else true if value else false for value in values]
    if kinds <= {str}:
        if fmt == "csv":
            return values
        quoted = {value: json.dumps(value) for value in set(values)}
        return list(map(quoted.__getitem__, values))
    texts = {value: str(value) for value in set(values)}
    return list(map(texts.__getitem__, values))


def _texts(rows: SweepRows, column: str, fmt: str) -> list:
    """The texts of one column of ``rows`` in ``fmt``: an axis from the
    texts of its values, an absent column as None cells."""
    cells = rows.columns.get(column)
    if cells is None:
        return [_NAMED[fmt][0]] * len(rows)
    if isinstance(cells, _Axis):
        return cells.spread(_column_texts(cells.values, fmt))
    return _column_texts(cells, fmt)


def render_table(rows: SweepRows, columns, fmt: str) -> str:
    """The CSV or JSON text of ``rows`` restricted to ``columns``, in that
    order; a column ``rows`` lacks reads as None cells. The JSON is
    ``json.dumps`` of the rows with ``indent=2``, byte for byte. An axis
    column is formatted once per grid value; its texts are the texts of
    its cells, because every cell is formatted on its own."""
    if fmt not in _NAMED:
        raise InvalidArgumentError(f"unknown output format {fmt!r}")
    texts = [_texts(rows, column, fmt) for column in columns]
    if fmt == "json":
        return _json_records(columns, texts, len(rows)) + "\n"
    lines = map(",".join, zip(*texts)) if texts else [""] * len(rows)
    return "\n".join([",".join(columns), *lines]) + "\n"
