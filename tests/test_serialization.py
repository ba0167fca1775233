"""The text writers against the stdlib formulas they replace.

The matrix files and the CLI's JSON must stay byte-identical to the
per-entry ``repr(float(x))`` CSV, ``json.dumps`` of the matrix object and
``json.dumps(obj, indent=2, sort_keys=True)``; the writers format each
distinct float once, keyed on its bits.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import entloc as el
from entloc.cli import _json_text, main
from entloc.experiments import traced_symmetric_spec
from entloc.symplectic import _json_matrix_text, cm_from_csv_text, cm_to_csv_text, float_reprs

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


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_json_text_equals_indented_stdlib(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_covariance_csv_equals_per_entry_repr(matrix):
    symmetric = np.where(np.triu(np.ones(matrix.shape, dtype=bool)), matrix, matrix.T)
    cm = el.CovarianceMatrix(symmetric)
    text = cm_to_csv_text(cm)
    assert text == _old_csv(cm.matrix)
    # repr round-trips: the file reads back bit for bit, signed zeros included
    read = cm_from_csv_text(text).matrix
    assert np.array_equal(read.view(np.uint64), cm.matrix.view(np.uint64))


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
    expected_stdout = json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
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
