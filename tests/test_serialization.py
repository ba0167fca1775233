"""The text writers against the stdlib formulas they replace.

The matrix files and the CLI's JSON must stay byte-identical to the
per-entry ``repr(float(x))`` CSV, ``json.dumps`` of the matrix object and
``json.dumps(obj, indent=2, sort_keys=True)``; the matrix writers format
each distinct float once, keyed on its bits, and a list of floats is
formatted by one ``%`` over all of it.
"""

import json
import math
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entloc as el
from entloc.cli import _json_text, main
from entloc.experiments import traced_symmetric_spec
from entloc import symplectic
from entloc.errors import InvalidArgumentError
from entloc.symplectic import (
    _json_matrix_text,
    cm_from_csv_text,
    cm_from_json_dict,
    float_reprs,
)
from oracle_helpers import cm_to_csv_text, localization_to_json_dict

# Where repr switches notation (1e16, 1e-4 and 1e-5), subnormals, signed
# zeros and the non-finite values.
SPECIAL_FINITE = [
    0.0, -0.0, 1e16, 9999999999999998.0, 1e-5, 1e-4, 9.999999999999999e-05,
    5e-324, -2.2250738585072014e-308, 0.1, 1.0, -1.0,
]
SPECIAL_FLOATS = SPECIAL_FINITE + [1.7976931308254e308, math.nan, math.inf, -math.inf]
any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
floats = any_float | st.sampled_from(SPECIAL_FLOATS)
scalars = floats | st.integers() | st.booleans() | st.none() | st.text(max_size=8)
json_values = st.recursive(
    scalars | st.lists(floats) | st.lists(floats | st.integers()),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=40,
)


# the writers' texts against the stdlib's texts of the same Python values
WRITER_TEXTS = pytest.mark.portable(
    reason="the texts come from Python's float formatting and from numpy's exact integer sort, "
           "not from a LAPACK build")


@WRITER_TEXTS
@settings(max_examples=150, deadline=None)
@given(json_values)
def test_json_text_equals_indented_stdlib(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


JSON_LEAVES = [
    -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1, 10**30, -(10**30), 0, True,
    False, None, "", "plain", "caf\u00e9 \u03bd\u0303", 'say "hi" \\ back', "tab\tnew\nline\u2028",
    "\ud800 lone surrogate", "\U0001f600", np.float64(-0.0), np.float64(math.nan), np.float64(2.5),
]


@WRITER_TEXTS
def test_json_scalar_leaves_are_spelled_as_the_stdlib_spells_them():
    """Each scalar leaf, alone, in a list and as a dict value, and the
    nested empty containers, give ``json.dumps``'s text byte for byte;
    a numpy float, which is no plain float, keeps the stdlib's spelling."""
    empties = {"a": {}, "b": [], "c": [[], {}, [[]], [{}]], "d": {"e": {"f": []}}, "g": ()}
    for obj in (*JSON_LEAVES, JSON_LEAVES, {str(k): leaf for k, leaf in enumerate(JSON_LEAVES)},
                {'k"ey \u00e9': [JSON_LEAVES, {}]}, empties, [empties, []], {}, [], ()):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n", repr(obj)


@st.composite
def matrices(draw, finite=True):
    """2N x 2N matrices drawn from a small pool of values, so entries
    repeat, always holding both 0.0 and -0.0."""
    modes = draw(st.integers(1, 4))
    if finite:
        values = st.floats(-1e300, 1e300, allow_subnormal=True) | st.sampled_from(SPECIAL_FINITE)
    else:
        values = floats
    pool = [0.0, -0.0] + draw(st.lists(values, min_size=1, max_size=6))
    size = 2 * modes
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size * size,
                          max_size=size * size))
    flat = np.array([pool[i] for i in picks])
    flat[:2] = [0.0, -0.0]
    return flat.reshape(size, size)


def _old_csv(matrix):
    return "\n".join(",".join(repr(float(x)) for x in row) for row in matrix) + "\n"


def _old_json(matrix):
    return json.dumps({"modes": matrix.shape[0] // 2, "entries": [float(x) for x in matrix.ravel()]})


@WRITER_TEXTS
@settings(max_examples=300, deadline=None)
@given(matrices(finite=False))
def test_matrix_texts_equal_per_entry_formulas(matrix):
    reprs = float_reprs(matrix)
    assert reprs.tolist() == [[repr(float(x)) for x in row] for row in matrix]
    assert _json_matrix_text(reprs) == _old_json(matrix)
    # the indented writer takes an ndarray of reprs as the entries themselves
    entries = [float(x) for x in matrix.ravel()]
    assert _json_text({"entries": reprs.ravel()}) == _json_text({"entries": entries})
    assert _json_text({"entries": entries}) == json.dumps({"entries": entries}, indent=2) + "\n"


# NaNs with different payload and sign bits, quiet and signalling, as bits
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                 0x7FF8000000000ABC, 0xFFF0000000000123], dtype=np.uint64).view(np.float64)
NON_FINITE = np.concatenate([NANS, [math.inf, -math.inf]])
# the non-finite values, signed zeros, subnormals, the smallest normal and two plain values
SPECIAL_ENTRIES = np.concatenate([NON_FINITE, [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                                               2.2250738585072014e-308, 1.0, 0.1]])


@WRITER_TEXTS
@pytest.mark.parametrize("fmt", ["%r", "%.17g", "%.6g"])  # repr and reports_to_csv_text's two
@pytest.mark.parametrize("shape", [(0,), (0, 4), (1,), (37,), (1, 1), (6, 10)])
def test_float_reprs_equal_fmt_per_entry(fmt, shape):
    """Each entry's text is ``fmt % v`` of its own value, however often its
    value or its NaN and zero bits repeat, with the array's shape kept."""
    rng = np.random.default_rng(len(fmt) * 100 + int(np.prod(shape)))
    pool = np.concatenate([SPECIAL_ENTRIES, rng.standard_normal(8) * 10.0 ** rng.integers(-8, 20, 8)])
    values = rng.choice(pool, size=shape)
    texts = float_reprs(values, fmt)
    assert texts.shape == values.shape and texts.dtype == object
    assert texts.ravel().tolist() == [fmt % v for v in values.ravel().tolist()]


@WRITER_TEXTS
@pytest.mark.parametrize("matrix", [np.empty((0, 0)), NON_FINITE[[5, 6, 6, 5]].reshape(2, 2),
                                    np.resize(NON_FINITE, (4, 4))], ids=["empty", "inf", "nan-inf"])
def test_json_matrix_writers_without_finite_entries_equal_json_dumps(matrix):
    """The one-line and the indented writers spell a matrix with no entry,
    and one with no finite entry, as ``json.dumps`` does."""
    reprs, entries = float_reprs(matrix), matrix.ravel().tolist()
    assert _json_matrix_text(reprs) == json.dumps({"modes": len(matrix) // 2, "entries": entries})
    assert _json_text({"entries": reprs.ravel()}) == json.dumps({"entries": entries}, indent=2) + "\n"


@WRITER_TEXTS
@settings(max_examples=200, deadline=None)
@given(matrices())
def test_covariance_csv_equals_per_entry_repr(matrix):
    symmetric = np.where(np.triu(np.ones(matrix.shape, dtype=bool)), matrix, matrix.T)
    cm = el.CovarianceMatrix(symmetric)
    text = cm_to_csv_text(cm)
    assert text == _old_csv(cm.matrix)
    # repr round-trips: the files read back bit for bit, signed zeros included
    with tempfile.TemporaryDirectory() as directory:
        for name in ("cm.csv", "cm.json"):
            path = Path(directory) / name
            el.save_cm(cm, path)
            read = el.load_cm(path).matrix
            assert np.array_equal(read.view(np.uint64), cm.matrix.view(np.uint64))


def _per_cell_csv(text):
    """The CSV reader as it was: ``float`` of every cell."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            try:
                rows.append([float(cell) for cell in line.split(",")])
            except ValueError as exc:
                raise InvalidArgumentError(f"CSV line {lineno}: {exc}") from exc
    if not rows:
        raise InvalidArgumentError("CSV input holds no rows")
    if any(len(r) != len(rows[0]) for r in rows) or len(rows) != len(rows[0]):
        raise InvalidArgumentError(
            f"CSV rows must form a square matrix, got {len(rows)} rows of width {len(rows[0])}"
        )
    return el.CovarianceMatrix(np.array(rows))


def _outcome(read, text):
    """The bits ``read(text)`` gives, or its error class and message."""
    try:
        return read(text).matrix.tobytes()
    except (InvalidArgumentError, json.JSONDecodeError) as exc:
        return type(exc), str(exc)


# Cell texts float() reads in more than one spelling, and texts that fail
# a read: non-finite, overflowing (1e400; 1e308 overflows in the
# symmetrization) or not numbers. Drawn with repeats, so the parser hits.
FINITE_CELLS = [" 1.5 ", "1_0", "1E5", "1e5", "-0", "0"]
HAND_CELLS = FINITE_CELLS + ["nan", "inf", "-inf", "1e400", "1e308", "abc", ""]
# the JSON number for each cell text: itself where it is one, else an int
# or a float JSON spells differently
JSON_NUMBERS = {" 1.5 ": "1.5", "1_0": "10", "nan": "NaN", "inf": "Infinity",
                "-inf": "-Infinity", "abc": "-0.0", "": "2"}


@settings(max_examples=200, deadline=None)
@example((1, [" 1.5 ", "1_0", "1_0", "1E5"]))
@example((2, ["-0", "1e5", "0", "1_0", " 1.5 ", "1E5", "0", "-0", "1_0", "-0", "0", "1e5", "1_0",
              " 1.5 ", "-0", "1E5"]))
@given(st.integers(1, 3).flatmap(
    lambda modes: st.lists(st.sampled_from(FINITE_CELLS) | st.sampled_from(HAND_CELLS),
                           min_size=(2 * modes) ** 2, max_size=(2 * modes) ** 2)
    .map(lambda cells: (modes, cells))))
def test_readers_equal_per_cell_float(shape):
    """A symmetric matrix of hand-written cell texts reads to the bits, or
    fails with the message, of a reference ``float()`` per cell."""
    modes, cells = shape
    size = 2 * modes
    grid = [[cells[min(i, j) * size + max(i, j)] for j in range(size)] for i in range(size)]
    csv = "\n".join(map(",".join, grid)) + "\n"
    assert _outcome(cm_from_csv_text, csv) == _outcome(_per_cell_csv, csv)
    entries = ", ".join(JSON_NUMBERS.get(cell, cell) for row in grid for cell in row)
    text = f'{{"modes": {modes}, "entries": [{entries}]}}'

    def load_json(text):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "cm.json"
            path.write_text(text, encoding="utf-8")
            return el.load_cm(path)

    assert _outcome(load_json, text) == _outcome(lambda t: cm_from_json_dict(json.loads(t)), text)


def test_reads_share_no_parser_state(tmp_path, monkeypatch):
    """Each file read makes its own parser, and none outlives its read."""
    made = []

    class Recorded(symplectic._CellParser):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(symplectic, "_CellParser", Recorded)
    first, second = tmp_path / "a.csv", tmp_path / "b.json"
    first.write_text("2.5,0\n0,2.5\n")
    second.write_text('{"modes": 1, "entries": [3.5, 0.5, 0.5, 3.5]}')
    assert el.load_cm(first).matrix.tolist() == [[2.5, 0.0], [0.0, 2.5]]
    assert el.load_cm(second).matrix.tolist() == [[3.5, 0.5], [0.5, 3.5]]
    assert len(made) == 2 and all(ref() is None for ref in made)


def _local_basis_state(modes, q, b, rng):
    """A symmetric state seen through one random single-mode symplectic
    applied to every mode: the block pattern survives, the standard form
    does not."""
    r, t = rng.uniform(-0.5, 0.5), rng.uniform(0.0, math.pi)
    c, s = math.cos(t), math.sin(t)
    single = np.array([[c, -s], [s, c]]) @ np.diag([math.exp(r), math.exp(-r)])
    local = np.kron(np.eye(modes), single)
    matrix = el.fully_symmetric_cm(traced_symmetric_spec(modes, q, b)).matrix
    out = local.T @ matrix @ local
    return 0.5 * (out + out.T)


def test_localize_outputs_equal_stdlib_text(tmp_path, capsys):
    """stdout and the three dump files of `localize --cm` on a 12-mode
    state, against text built here from json.dumps and repr."""
    matrix = _local_basis_state(12, 2, 1.7, np.random.default_rng(2024))
    source = tmp_path / "state.json"
    source.write_text(_old_json(matrix), encoding="utf-8")
    k = 5
    result = el.localize(el.load_cm(source), k, 12 - k)
    expected_stdout = json.dumps(localization_to_json_dict(result), indent=2, sort_keys=True) + "\n"
    final = result.cm_final.matrix
    assert len(np.unique(final)) < final.size  # the dedup has repeats to find
    for ext, expected_final in (("json", _old_json(final)), ("csv", _old_csv(final))):
        final_path, symplectic_path = tmp_path / f"final.{ext}", tmp_path / f"symplectic_{ext}.json"
        code = main(["localize", "--cm", str(source), "--k", str(k), "--dump-final",
                     str(final_path), "--dump-symplectic", str(symplectic_path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out == expected_stdout
        assert final_path.read_text(encoding="utf-8") == expected_final
        assert symplectic_path.read_text(encoding="utf-8") == _old_json(result.local_symplectic)
