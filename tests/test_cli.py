import ast
import contextlib
import gc
import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entloc as el
from cli_manifest import write_inputs
from entloc.cli import main
from entloc.entanglement import NOT_A_STATE
from entloc.errors import LocalizationError
from entloc.experiments import SweepConfig
from entloc.oracle import SpecSampler
from entloc.states import bisymmetric_spec_from_json
from oracle_helpers import random_bona_fide_cm
import paper_formulas as pf
from test_localization import NOT_STATES, _pattern_matrix, _random_pattern_matrices


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--modes", "6", "--b", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["modes"] == 6
    assert payload["values"] == pytest.approx([1.0] * 6, abs=1e-8)
    assert payload["clusters"][0]["multiplicity"] == 6


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--modes", "4", "--b", "1.2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nu,multiplicity"
    assert len(lines) == 2


def test_report_vacuum_zero(capsys):
    code, out, _ = run_cli(capsys, "report", "--modes", "2", "--b", "1", "--split", "1", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["log_negativity"] == 0.0
    assert payload["report"]["separable"] is True


def test_report_dual_route_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--modes", "6", "--b", "1.5", "--split", "3", "3", "--localize"
    )
    assert code == 0
    payload = json.loads(out)
    en_invariant = payload["report"]["log_negativity"]
    eq = payload["localization"]["equivalent"]["cm_eq"]
    cm_eq = el.CovarianceMatrix(np.array(eq["entries"]).reshape(4, 4))
    en_constructive = el.log_negativity(cm_eq, el.ModeBipartition((0,), (1,))).log_negativity
    assert en_constructive == pytest.approx(en_invariant, rel=1e-7)
    assert payload["localization"]["residual"] <= 1e-8


def test_report_from_spec_json_inline(capsys):
    spec = {"m": 2, "n": 2, "a": 1.4, "e1": 0.1, "e2": -0.1, "b": 1.4, "z1": 0.1, "z2": -0.1,
            "g1": 0.2, "g2": -0.2}
    code, out, _ = run_cli(capsys, "report", "--spec-json", json.dumps(spec))
    assert code == 0
    payload = json.loads(out)
    assert payload["split"] == [2, 2]
    assert payload["report"]["separable"] in (True, False)


def test_report_from_spec_json_past_int64_block_products(capsys):
    # m n = 9.61e18 wraps an int64 product; the invariant route must not
    spec = {"m": 3_100_000_000, "n": 3_100_000_000, "a": 2.4, "e1": 0.24, "e2": 0.3, "b": 1.8,
            "z1": 0.35, "z2": 0.2, "g1": 0.03, "g2": -0.03}
    code, out, err = run_cli(capsys, "report", "--spec-json", json.dumps(spec))
    assert (code, err) == (0, "")
    report = json.loads(out)["report"]
    assert report["separable"] is True and report["log_negativity"] == 0.0


def test_report_from_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"modes": 6, "b": 1.5, "z1": 0.3, "z2": -0.2}))
    code, out, _ = run_cli(capsys, "report", "--spec", str(spec_path), "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["split"] == [3, 3]


def test_report_from_cm_file(tmp_path, capsys):
    path = tmp_path / "tmsv.json"
    el.save_cm(pf.two_mode_squeezed(1.0), path)
    code, out, _ = run_cli(capsys, "report", "--cm", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["log_negativity"] == pytest.approx(2.0, abs=1e-9)


def test_report_from_csv_cm(tmp_path, capsys):
    path = tmp_path / "tmsv.csv"
    el.save_cm(pf.two_mode_squeezed(0.5), path)
    code, out, _ = run_cli(capsys, "report", "--cm", str(path))
    assert code == 0
    assert json.loads(out)["report"]["log_negativity"] == pytest.approx(1.0, abs=1e-9)


def test_localize_subcommand_with_dumps(tmp_path, capsys):
    final_path = tmp_path / "final.json"
    sympl_path = tmp_path / "local.json"
    code, out, _ = run_cli(
        capsys,
        "localize", "--modes", "6", "--b", "1.4", "--split", "2", "4",
        "--dump-final", str(final_path), "--dump-symplectic", str(sympl_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-8
    dumped = el.load_cm(final_path)
    assert dumped.modes == 6
    local = json.loads(sympl_path.read_text())
    s = np.array(local["entries"]).reshape(12, 12)
    assert el.is_symplectic(s)


def test_localize_non_bisymmetric_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(3)
    path = tmp_path / "generic.json"
    el.save_cm(random_bona_fide_cm(4, rng), path)
    code, _, err = run_cli(capsys, "localize", "--cm", str(path), "--split", "2", "2")
    assert code == 4
    assert "localization" in err
    # a nan tolerance passed every check, a negative one read as exit 4
    for tol in ("nan", "-1"):
        code, out, err = run_cli(capsys, "localize", "--cm", str(path), "--split", "2", "2",
                                 "--tol", tol)
        assert (code, out) == (2, "")
        assert "finite number >= 0" in err


def test_report_localize_flag_non_bisymmetric_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(4)
    path = tmp_path / "generic.json"
    el.save_cm(random_bona_fide_cm(4, rng), path)
    code, _, _ = run_cli(capsys, "report", "--cm", str(path), "--split", "2", "2")
    assert code == 0  # plain report falls back to the reflected-spectrum route
    code, _, err = run_cli(
        capsys, "report", "--cm", str(path), "--split", "2", "2", "--localize"
    )
    assert code == 4
    assert "localization" in err


def test_invalid_input_exit_code(capsys):
    code, _, err = run_cli(capsys, "report", "--modes", "4", "--b", "0.5", "--split", "2", "2")
    assert code == 2
    assert "invalid input" in err


def test_missing_file_exit_code(capsys):
    code, _, _ = run_cli(capsys, "report", "--cm", "/nonexistent/state.json")
    assert code == 2


def test_state_source_required(capsys):
    code, _, err = run_cli(capsys, "report", "--split", "1", "1")
    assert code == 2
    assert "state source" in err


def test_hierarchy_csv_deterministic(capsys):
    args = ["hierarchy", "--modes", "6", "--b-grid", "1:2:3", "--trace-out", "0", "--format", "csv"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "m,n,k,b,q,nu_tilde,E_N,N,E_F,separable,status"


def test_hierarchy_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "hierarchy", "--modes", "4", "--b-grid", "1:1.5:2", "--trace-out", "0",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert all(row["status"] == "ok" for row in rows)


def test_scaling_csv(capsys):
    code, out, _ = run_cli(
        capsys, "scaling", "--b", "1.5", "--n-range", "1,3", "--trace-out", "0,4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,n,b,E_F_1x1,E_F_nxn,status"
    assert len(lines) == 1 + 6


def test_ole_output(capsys):
    code, out, _ = run_cli(capsys, "ole", "--modes", "10", "--b", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["k_star"] == 5
    assert len(payload["scan"]) == 5


def test_ole_from_cm(tmp_path, capsys):
    path = tmp_path / "fs.json"
    el.save_cm(el.fully_symmetric_cm(el.ghz_type_spec(6, 1.4)), path)
    code, out, _ = run_cli(capsys, "ole", "--cm", str(path))
    assert code == 0
    assert json.loads(out)["k_star"] == 3


def test_ole_from_cm_raises_the_error_of_the_first_split(tmp_path, capsys):
    # identity diagonal and a diag(1, 1) cross block from mode 0 to each of
    # modes 1-3, not positive definite: k = 1 passes the pattern check and
    # the invariant route finds it no state (exit 2); k = 2 fails the
    # pattern check (exit 4) but comes later
    matrix = np.eye(8)
    for mode in (1, 2, 3):
        matrix[0:2, 2 * mode : 2 * mode + 2] = matrix[2 * mode : 2 * mode + 2, 0:2] = np.eye(2)
    path = tmp_path / "star.json"
    el.save_cm(el.CovarianceMatrix(matrix), path)
    code, out, err = run_cli(capsys, "ole", "--cm", str(path))
    assert (code, out, err) == (2, "", f"entloc: invalid input: {NOT_A_STATE}\n")


def test_ole_from_cm_raises_the_error_of_its_one_failing_split(tmp_path, capsys):
    # a 2 | 3 two-block state: k = 1 fails the pattern check (exit 4), k = 2
    # passes, and the scan raises the error of k = 1
    spec = el.BisymmetricSpec(2, 3, 1.5, 0.2, -0.1, 1.7, 0.25, -0.12, 0.3, -0.25)
    cm = el.bisymmetric_cm(spec)
    path = tmp_path / "two_three.json"
    el.save_cm(cm, path)
    code, out, err = run_cli(capsys, "ole", "--cm", str(path))
    assert (code, out) == (4, "")
    [failed, _] = el.equivalent_report_from_cm(cm, [1, 2], [4, 3])
    assert str(failed) in err


def test_verify_small(capsys, tmp_path):
    csv_path = tmp_path / "cases.csv"
    code, out, _ = run_cli(capsys, "verify", "--cases", "5", "--seed", "7", "--out", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["cases"] == 5
    assert summary["passes"] == summary["comparisons"] == 15
    assert csv_path.exists()


def test_verify_rejects_a_negative_case_count(capsys):
    code, out, err = run_cli(capsys, "verify", "--cases", "-3", "--seed", "1")
    assert (code, out) == (2, "")
    assert "cases must be non-negative, got -3" in err
    code, out, _ = run_cli(capsys, "verify", "--cases", "0", "--seed", "1")
    assert code == 0
    assert out == (
        '{\n  "cases": 0,\n  "comparisons": 0,\n  "passes": 0,\n  "rejection_rate": 0.0,\n'
        '  "seed": 1,\n  "worst_rel_diff": 0.0\n}\n'
    )


def test_verify_rejects_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "verify", "--cases", "3", "--seed", "-1")
    assert (code, out) == (2, "")
    assert "seed must be a non-negative integer, got -1" in err
    assert "Traceback" not in err
    for seed in (-1, 1.5, "7", True, None):
        with pytest.raises(el.InvalidArgumentError, match="seed must be a non-negative integer"):
            SpecSampler(seed)
    assert SpecSampler(np.int64(7)).bisymmetric() == SpecSampler(7).bisymmetric()


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "hierarchy", "--modes", "4", "--b-grid", "1:1.5:2", "--trace-out", "0",
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("m,n,k,b,q")


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "entloc.cli", "report", "--modes", "4", "--b", "1.3", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["report"]["log_negativity"] > 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ("hierarchy", "--modes", "4", "--b-grid", "1:nan:3", "--trace-out", "0"),
        ("hierarchy", "--modes", "4", "--b-grid", "1:inf:3", "--trace-out", "0"),
        ("scaling", "--b", "nan", "--n-range", "1,3"),
        ("scaling", "--b", "inf", "--n-range", "1,3"),
        ("report", "--modes", "4", "--b", "nan", "--k", "2"),
        ("report", "--spec-json", '{"modes": 4, "b": 1.5, "z1": NaN, "z2": 0.0}', "--k", "2"),
        ("report", "--spec-json", '{"modes": Infinity, "b": 1.5}', "--k", "2"),
        ("report", "--spec-json", '{"m": 2, "n": 2, "a": 1.5, "b": "x"}'),
        ("report", "--spec-json", '{"modes": 4, "b": [1.5]}', "--k", "2"),
        ("report", "--spec-json", '{"m": 1.5, "n": 2, "a": 1.5, "b": 1.5}'),
        ("report", "--spec-json", '{"modes": 2.5, "b": 1.5}', "--k", "1"),
        ("report", "--spec-json", '{"m": 2, "n": true, "a": 1.5, "b": 1.5}'),
        ("localize", "--modes", "4", "--b", "1.5", "--k", "2", "--tol", "nan"),
        ("localize", "--modes", "4", "--b", "1.5", "--k", "2", "--tol", "-1"),
        ("localize", "--modes", "4", "--b", "1.5", "--k", "2", "--tol", "inf"),
        ("report", "--modes", "4", "--b", "1.5", "--k", "2", "--localize", "--tol", "nan"),
        ("report", "--modes", "4", "--b", "1.5", "--k", "2", "--localize", "--tol", "-0.5"),
        ("spectrum", "--modes", "4", "--b", "1.5", "--tol", "nan"),
        ("spectrum", "--modes", "4", "--b", "1.5", "--tol", "-1"),
    ],
)
def test_non_finite_or_non_numeric_input_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err or "non-numeric" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--modes", "3", "--b", "2"),
        ("report", "--modes", "4", "--b", "1.5", "--k", "2"),
        ("ole", "--modes", "4", "--b", "1.5"),
    ],
)
def test_negative_trace_out_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--trace-out", "-1")
    assert code == 2
    assert out == ""
    assert "trace-out count must be >= 0, got -1" in err


def test_non_finite_matrix_file_exit_code(tmp_path, capsys):
    cases = [
        ("nan.csv", "1,0,0,0\n0,1,0,0\n0,0,nan,0\n0,0,0,1\n", ("report", "--split", "1", "1")),
        # finite entries whose symmetrization overflows
        ("huge.csv", "1e308,0\n0,1e308\n", ("spectrum",)),
    ]
    for name, text, argv in cases:
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, argv[0], "--cm", str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert "non-finite" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--dump-final", "final.json"),
        ("--dump-symplectic", "local.json"),
        ("--tol", "1e-6"),
        ("--dump-final", "final.json", "--tol", "1e-6"),
    ],
)
def test_report_localize_flags_need_localize(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    argv = ("report", "--modes", "4", "--b", "1.5", "--split", "2", "2", *flags)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--localize" in err and flags[0] in err
    assert list(tmp_path.iterdir()) == []
    code, _, _ = run_cli(capsys, *argv, "--localize")
    assert code == 0


@pytest.mark.parametrize("n_range", ["3", "1,2,3"])
def test_scaling_n_range_needs_two_bounds(capsys, n_range):
    code, out, err = run_cli(capsys, "scaling", "--n-range", n_range)
    assert code == 2
    assert out == ""
    assert "--n-range" in err


@pytest.mark.parametrize("n_range", ["5,1", "0,3", "3,2"])
def test_scaling_n_range_names_the_bad_input(capsys, n_range):
    code, out, err = run_cli(capsys, "scaling", "--n-range", n_range)
    assert (code, out) == (2, "")
    assert err == f"entloc: invalid input: --n-range expects LO,HI with 1 <= LO <= HI, got {n_range}\n"


def test_report_of_a_separable_symmetric_state_has_zero_eof(capsys):
    spec = {"m": 1, "n": 1, "a": 2, "e1": 0, "e2": 0, "b": 2, "z1": 0, "z2": 0, "g1": 0.1, "g2": 0.1}
    code, out, _ = run_cli(capsys, "report", "--spec-json", json.dumps(spec))
    assert code == 0
    report = json.loads(out)["report"]
    assert report["separable"] is True and report["nu_tilde_min"] > 1.0
    assert report["eof"] == 0.0 and report["log_negativity"] == 0.0


@pytest.mark.parametrize("argv, message", [
    (("hierarchy", "--k", ","), "an empty item in the list ','"),
    (("hierarchy", "--k="), "an empty list"),
    (("hierarchy", "--k", "1,,2"), "an empty item in the list '1,,2'"),
    (("hierarchy", "--k", "1,2,"), "an empty item in the list '1,2,'"),
    (("hierarchy", "--trace-out", ","), "an empty item in the list ','"),
    (("hierarchy", "--trace-out="), "an empty list"),
    (("scaling", "--n-range", "1,"), "an empty item in the list '1,'"),
])
def test_empty_comma_list_items_exit_code(capsys, argv, message):
    """An empty comma list, or an empty item in one, is rejected; it
    neither reads as the default nor drops the item."""
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--b-grid", "1:2:2"] if argv[0] == "hierarchy" else list(argv))
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert f"expected comma-separated integers, got {message}" in captured.err


def test_sweep_config_rejects_empty_lists_and_defaults_none():
    with pytest.raises(el.InvalidArgumentError, match="split sizes must not be an empty list"):
        SweepConfig(modes=4, k_values=())
    with pytest.raises(el.InvalidArgumentError, match="trace-out counts must not be an empty list"):
        SweepConfig(modes=4, trace_out=())
    assert SweepConfig(modes=4, k_values=None).k_values == (1, 2)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("scaling", "--b", "1e300", "--n-range", "1,2"), 0),
        (("hierarchy", "--modes", "6", "--b-grid", "1:1e300:2"), 0),
        (("report", "--modes", "6", "--b", "1e200", "--split", "3", "3"), 2),
        (("spectrum", "--modes", "4", "--b", "1e160"), 2),
        (("ole", "--modes", "4", "--b", "1e155"), 2),
        (("report", "--spec-json", '{"modes":4,"b":1e200,"z1":0,"z2":0}', "--split", "2", "2"), 2),
        (("report", "--spec-json", '{"m":1,"n":1,"a":1e100,"b":1}'), 2),
        (("ole", "--spec-json", '{"modes":3,"b":1e100,"z1":5e99,"z2":0}'), 2),
        (("localize", "--modes", "4", "--b", "1e100", "--k", "2"), 2),
        # specs whose spectrum check overflows to nan: they used to pass it
        # and to exit 3 from the invariant route
        (("report", "--spec-json", '{"m":1,"n":1,"a":1e200,"e1":0,"e2":0,"b":1e200,'
          '"z1":0,"z2":0,"g1":1e200,"g2":0}'), 2),
        (("report", "--spec-json", '{"m":2,"n":2,"a":1e160,"e1":1e159,"e2":1e159,"b":1e160,'
          '"z1":1e159,"z2":1e159,"g1":1e150,"g2":1e150}'), 2),
    ],
)
def test_overflow_exit_code(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    if code == 0:
        assert "unphysical" in out and err == ""
    else:
        assert out == "" and ("overflow" in err or "too large" in err)


def test_sweep_writes_numerical_rows_and_keeps_the_table(capsys):
    """At b = 1e76 the k = 2 splits are valid states whose invariant route
    overflows: their rows read status=numerical with empty value cells,
    the sweep exits 0, and the b = 1.5 rows equal those of a sweep
    without the overflowing point."""
    sweep = ["hierarchy", "--modes", "6", "--trace-out", "0,4"]
    code, out, err = run_cli(capsys, *sweep, "--b-grid", "1.5:1e76:2")
    assert (code, err) == (0, "")
    _, alone, _ = run_cli(capsys, *sweep, "--b-grid", "1.5:1.5:1")
    lines = out.splitlines()
    assert [line for line in lines if line.endswith(",ok")] == alone.splitlines()[1:]
    numerical = [line for line in lines if line.endswith(",numerical")]
    assert numerical == [f"2,4,2,1e+76,{q},,,,,,numerical" for q in (0, 4)]
    assert len(lines) == 1 + 2 * 3 * 2

    code, out, err = run_cli(capsys, "scaling", "--b", "1e76", "--n-range", "1,4")
    assert (code, err) == (0, "")
    assert "4,1,1e+76,,,numerical" in out.splitlines()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"modes": true, "entries": ["2.5", "0", "0", "2.5"]}',
         "modes must be a positive integer, got True"),
        ('{"modes": 1, "entries": [2.5, 0, 0, "2.5"]}', "entries must be numbers, got '2.5'"),
        ('{"modes": 1, "entries": [2.5, 0, 0, true]}', "entries must be numbers, got True"),
        ('{"modes": 1, "entries": [2.5, 0, 0, null]}', "entries must be numbers, got None"),
        ('{"modes": 1, "entries": [[2.5, 0], [0, 2.5]]}', "entries must be numbers, got [2.5, 0]"),
        ('{"modes": 1, "entries": "2.5, 0, 0, 2.5"}', "entries must be an array of numbers"),
        ('{"modes": 1, "entries": [2.5, 0, 0, 1' + "0" * 400 + "]}", "out of float range"),
    ],
)
def test_json_matrix_with_non_number_fields_exit_code(tmp_path, capsys, text, message):
    """A JSON matrix is {"modes": int, "entries": [numbers]}: a bool mode
    count, or a string, bool, null or array entry, is invalid input."""
    path = tmp_path / "cm.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "spectrum", "--cm", str(path))
    assert (code, out) == (2, "")
    assert message in err


def test_json_matrix_int_entries_read_as_floats(tmp_path, capsys):
    ints, floats = tmp_path / "ints.json", tmp_path / "floats.json"
    ints.write_text('{"modes": 1, "entries": [3, 0, 0, 3]}')
    floats.write_text('{"modes": 1, "entries": [3.0, 0.0, 0.0, 3.0]}')
    assert run_cli(capsys, "spectrum", "--cm", str(ints)) == run_cli(
        capsys, "spectrum", "--cm", str(floats))
    assert el.load_cm(ints).matrix.tolist() == [[3.0, 0.0], [0.0, 3.0]]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--cases", "3", "--seed", "1", "--out", "{dir}"),
        ("spectrum", "--cm", "{dir}"),
        ("report", "--modes", "4", "--b", "1.5", "--k", "2", "--localize",
         "--dump-final", "{dir}"),
    ],
)
def test_directory_path_exit_code(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"entloc: [Errno 21] Is a directory: '{tmp_path}'\n"


@pytest.mark.parametrize("command", [("localize",), ("report", "--localize")])
@pytest.mark.parametrize("option", ["--dump-final", "--dump-symplectic"])
def test_empty_dump_path_exit_code(tmp_path, capsys, monkeypatch, command, option):
    """An empty dump path is a file that cannot be opened, as for
    ``verify --out ""``: exit 2, nothing on stdout, nothing written."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command[0], "--modes", "4", "--b", "1.5", "--k", "2",
                             *command[1:], option, "")
    assert (code, out) == (2, "")
    assert err == "entloc: [Errno 2] No such file or directory: ''\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["cm.json", "cm.csv", "spec.json"])
def test_file_that_is_not_utf8_exit_code(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe1,0\n0,1\n")
    option = "--spec" if name == "spec.json" else "--cm"
    code, out, err = run_cli(capsys, "report", option, str(path), "--split", "1", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"entloc: invalid input: {path}: not UTF-8 text (")


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--modes", "3", "--b", "1.5"),
        ("report", "--modes", "4", "--b", "1.5", "--k", "2"),
        ("localize", "--modes", "4", "--b", "1.5", "--k", "2"),
        ("ole", "--modes", "4", "--b", "1.5"),
        ("hierarchy", "--modes", "4", "--b-grid", "1:2:2"),
        ("scaling", "--n-range", "1,2"),
    ],
)
def test_empty_out_path_exit_code(tmp_path, capsys, monkeypatch, argv):
    """An empty ``--out`` names a file that cannot be opened on every
    command, as on ``verify``: exit 2, nothing on stdout, nothing written."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--out", "")
    assert (code, out) == (2, "")
    assert err == "entloc: [Errno 2] No such file or directory: ''\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# One state per command; an option that does not apply is rejected.
# ---------------------------------------------------------------------------

SPEC_JSON = '{"modes": 4, "b": 1.5, "z1": 0.1, "z2": 0.1}'
NOT_APPLIED = pytest.mark.portable(reason="the option check exits before any LAPACK call, "
                                          "exponential or logarithm")


@NOT_APPLIED
@pytest.mark.parametrize("argv, message", [
    (("report", "--cm", "{cm}", "--k", "1", "--b", "2"), "--b only applies with --modes"),
    (("spectrum", "--cm", "{cm}", "--trace-out", "3"), "--trace-out only applies with --modes"),
    (("spectrum", "--spec", "{spec}", "--b", "1.5"), "--b only applies with --modes"),
    (("ole", "--spec", "{spec}", "--trace-out", "0"), "--trace-out only applies with --modes"),
    (("report", "--spec-json", '{"modes":4,"b":1.5}', "--k", "2", "--b", "2"),
     "--b only applies with --modes"),
    (("report", "--spec-json", SPEC_JSON, "--k", "2", "--trace-out", "3"),
     "--trace-out only applies with --modes"),
    (("localize", "--cm", "{cm}", "--k", "1", "--b", "2", "--trace-out", "1"),
     "--b, --trace-out only applies with --modes"),
    (("report", "--spec", "{spec}", "--spec-json", SPEC_JSON, "--k", "2"),
     "exactly one state source required: --cm, --spec/--spec-json, or --modes"),
    (("report", "--modes", "4", "--b", "1.5", "--split", "2", "2", "--k", "2"),
     "--k only applies without --split"),
    (("localize", "--modes", "4", "--b", "1.5", "--split", "2", "2", "--k", "1"),
     "--k only applies without --split"),
])
def test_option_that_does_not_apply_exit_code(tmp_path, capsys, argv, message):
    """Each of these options was accepted and ignored: a spec or matrix
    has its own squeezing and mode count, --spec-json came second to
    --spec, and --split won over --k. Each is invalid input, named before
    any computation on the state."""
    cm, spec = tmp_path / "two_mode.csv", tmp_path / "spec.json"
    cm.write_text("2,0,1.5,0\n0,2,0,-1.5\n1.5,0,2,0\n0,-1.5,0,2\n")
    spec.write_text(SPEC_JSON)
    code, out, err = run_cli(capsys, *(arg.replace("{cm}", str(cm)).replace("{spec}", str(spec))
                                       for arg in argv))
    assert (code, out, err) == (2, "", f"entloc: invalid input: {message}\n")


@NOT_APPLIED
@pytest.mark.parametrize("argv", [
    ("report", "--modes", "4", "--b", "1.5", "--k", "2"),
    ("localize", "--modes", "4", "--b", "1.5", "--k", "2"),
    ("ole", "--modes", "4", "--b", "1.5"),
])
def test_json_only_commands_take_no_format(capsys, argv):
    """report, localize and ole write JSON only: --format is no option of theirs."""
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert (excinfo.value.code, captured.out) == (2, "")
    # the usage and the error are the subcommand's, not entloc's
    assert captured.err.startswith(f"usage: entloc {argv[0]} [-h] ")
    assert captured.err.endswith(f"entloc {argv[0]}: error: unrecognized arguments: --format json\n")


@pytest.mark.parametrize("command", ["report", "ole"])
@pytest.mark.parametrize("name", sorted(NOT_STATES))
def test_a_matrix_that_is_no_state_exit_code(tmp_path, capsys, command, name):
    """A pattern matrix that is no physical state exits 2 on the invariant
    route, as any other matrix does on the dense route."""
    cm = el.CovarianceMatrix(NOT_STATES[name])
    el.save_cm(cm, tmp_path / "cm.csv")
    split = ("--k", str(cm.modes // 2)) if command == "report" else ()
    assert run_cli(capsys, command, "--cm", str(tmp_path / "cm.csv"), *split) == (
        2, "", "entloc: invalid input: input covariance matrix is not a physical state\n")


# a 2 | 3 state, entangled at its own split and separable at 1 | 4 and
# 4 | 1, and a 3 | 4 state; the digest is the stdout of each one's own split
OTHER_SPLITS = [
    ({"m": 2, "n": 3, "a": 2.0, "e1": 0, "e2": 0, "b": 2.0, "z1": 0, "z2": 0, "g1": 0.5, "g2": -0.5},
     "828335838f4b498ed4f9cc2ce0c769db8809a3d19dccd93f7c1a163c96d51f34"),
    ({"m": 3, "n": 4, "a": 2.0, "e1": 0.3, "e2": -0.2, "b": 1.8, "z1": 0.25, "z2": -0.15,
      "g1": 0.4, "g2": -0.35}, "570e0fe3a9b516a6c93c18b5bad03ed06db6073f10b21df84e0e5e9fba1a2de0"),
]


@pytest.mark.parametrize("spec, own", OTHER_SPLITS, ids=["2|3", "3|4"])
def test_two_block_spec_reads_its_other_splits_from_its_matrix(tmp_path, capsys, spec, own):
    """The closed form answers a two-block spec's own m | n split only. Any
    other split is a general bipartition of its matrix, and prints what
    --cm of that matrix prints; it used to print the own split's report
    under the split asked for."""
    text, path = json.dumps(spec), tmp_path / "cm.json"
    el.save_cm(el.bisymmetric_cm(bisymmetric_spec_from_json(spec)), path)
    total = spec["m"] + spec["n"]
    for k in range(1, total):
        from_spec = run_cli(capsys, "report", "--spec-json", text, "--k", str(k))
        assert from_spec == run_cli(capsys, "report", "--cm", str(path), "--k", str(k))
        assert from_spec[0] == 0 and json.loads(from_spec[1])["split"] == [k, total - k]
    for argv in ((), ("--k", str(spec["m"])), ("--split", str(spec["m"]), str(spec["n"]))):
        code, out, _ = run_cli(capsys, "report", "--spec-json", text, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, own)


# (argv, exit code): the dense fallback, a failure of each exit code that
# names a state, and sweeps whose failing parents keep their errors; each
# left 16 to 712 unreachable objects while an error kept its traceback
NO_CYCLE_ARGVS = [
    (("report", "--spec-json", json.dumps(OTHER_SPLITS[0][0]), "--k", "1"), 0),
    (("report", "--cm", "indefinite.csv"), 2),
    (("report", "--modes", "6", "--b", "1e76", "--k", "2"), 3),
    (("ole", "--cm", "general.json"), 4),
    (("localize", "--cm", "general.json", "--k", "2"), 4),
    (("hierarchy", "--modes", "8", "--b-grid", "1e3:1e300:5"), 0),
    (("scaling", "--b", "1e200"), 0),
]


def test_report_dense_fallback_leaves_no_reference_cycle(tmp_path, monkeypatch, capsys):
    """A split with no block-permutation symmetry takes the dense route as
    its pattern check's value says, with no error raised. A failing
    command reports its error and drops its traceback, and a sweep keeps
    each failing parent's error without one: a traceback holds frames that
    hold the error, a cycle that keeps them alive until the next garbage
    collection, which in a long-lived process raised the peak memory."""
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv, expected in NO_CYCLE_ARGVS:
        assert run_cli(capsys, *argv)[0] == expected  # warm caches
        gc.collect()
        gc.disable()
        try:
            code, _, _ = run_cli(capsys, *argv)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert (code, unreachable) == (expected, 0), argv


# runs each argv of its command line through ``main`` in one process and
# prints, per call, the exit code and what ``gc.collect()`` found unreachable
UNREACHABLE_PER_CALL = """
import contextlib, gc, io, sys
from entloc.cli import main

def call(argv):
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv.split())
        return code, gc.collect()
    finally:
        gc.enable()

print(repr([call(argv) for argv in sys.argv[1:]]))
"""


def test_after_the_first_call_no_cli_call_leaves_unreachable_objects():
    """In a fresh process the first CLI call, whatever it is, leaves
    objects for the garbage collector: numpy's and the CLI's lazy set-up.
    After one warm-up call, an exit-0 call and an exit-3 call each leave
    none, so the exit-3 failure keeps no reference cycle of its own."""
    result = subprocess.run(
        [sys.executable, "-c", UNREACHABLE_PER_CALL, "report --modes 4 --b 2 --k 1",
         "report --modes 6 --b 1.5 --k 2", "report --modes 6 --b 1e76 --k 2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert ast.literal_eval(result.stdout)[1:] == [(0, 0), (3, 0)]


def test_a_non_state_exits_2_on_both_routes(tmp_path, capsys):
    """A pattern matrix that is no state exits 2 with the dense route's
    message at its own split, which the invariant route judges, and at a
    split off its pattern, which the dense route judges. At their own
    split most of these exited 3 while the invariant route ran its
    numerical checks first."""
    path, checked = tmp_path / "matrix.json", 0
    for m, n, cm in _random_pattern_matrices(7, 4):
        total = m + n
        if total < 3 or el.is_bona_fide(cm):
            continue
        el.save_cm(cm, path)
        k = 1 if m > 1 else 2  # its first block then mixes modes of both blocks
        assert isinstance(el.equivalent_report_from_cm(cm, [k], [total - k])[0], LocalizationError)
        for split in ((m, n), (k, total - k)):
            code, out, err = run_cli(capsys, "report", "--cm", str(path), "--split", *map(str, split))
            assert (code, out, err) == (2, "", f"entloc: invalid input: {NOT_A_STATE}\n"), (m, n, split)
        checked += 1
    assert checked >= 40, checked


_WIDE, _CORRELATED = np.diag([0.3e308, 0.1e308]), np.array([[1.0, 0.3], [0.3, 1.0]]) * 0.85e308
PAST_FLOAT_RANGE = [
    # at 5 | 1 the coupled core alpha + 4 eps is not finite, so it has no spectrum to take
    pytest.param((5, 1, np.eye(2) * 0.8e308, _WIDE, np.eye(2) * 0.8e308, _WIDE, _WIDE),
                 id="core-overflow", marks=pytest.mark.portable(
                     reason="the first error is the elementwise IEEE overflow of a 2x2 determinant, "
                            "and no LAPACK, exponential or logarithm result decides it")),
    # states whose det(alpha - eps) is inf - inf = nan, which must decide nothing
    pytest.param((2, 1, *[np.array([[1.0, 0.875], [0.875, 1.0]]) * 1e200, np.zeros((2, 2))] * 2,
                  np.zeros((2, 2))), id="nan-nu-minus"),
    pytest.param((2, 1, *[np.array([[1.0, 0.875], [0.875, 1.0]]) * 0.8e308, np.zeros((2, 2))] * 2,
                  np.zeros((2, 2))), id="nan-nu-minus-past-2**1020"),
    # a state whose core's L^T Omega L overflows, so that no eigensolver can take it
    pytest.param((2, 2, _CORRELATED, 0.9 * _CORRELATED, _CORRELATED, 0.9 * _CORRELATED,
                  0.8 * _CORRELATED), id="overflowing-form"),
]


@pytest.mark.parametrize("blocks", PAST_FLOAT_RANGE)
def test_report_of_a_pattern_matrix_past_float_range_exit_code(tmp_path, capsys, blocks):
    """A pattern matrix whose invariants overflow is a numerical failure
    (exit 3) with a one-line message, not a traceback, and a state is not
    judged to be none by a value the overflow made: the physicality rule
    leaves a core that is not finite and a nan nu_minus to the kernel, and
    judges a core past 2**1020 by its factorization alone."""
    m, n = blocks[:2]
    path = tmp_path / "overflow.json"
    el.save_cm(el.CovarianceMatrix(_pattern_matrix(*blocks)), path)
    code, out, err = run_cli(capsys, "report", "--cm", str(path), "--split", str(m), str(n))
    assert (code, out) == (3, "")
    assert err == "entloc: numerical failure: overflow: a 2x2 determinant is out of float range\n"


@pytest.mark.parametrize("argv", [("spectrum",), ("report", "--split", "1", "3")])
def test_a_state_past_the_dense_float_range_exit_code(tmp_path, capsys, argv):
    """The ``[overflowing-form]`` state on the dense route: its L^T Omega L
    is not finite, so its spectrum is a numerical failure (exit 3) with a
    one-line message and no warning, where LAPACK's eigensolver used to
    end in a traceback. It is a state, which ``is_bona_fide`` decides from
    its factorization alone, so the split off its pattern is not exit 2."""
    cm = el.CovarianceMatrix(_pattern_matrix(*PAST_FLOAT_RANGE[-1].values[0]))
    assert el.is_bona_fide(cm) is True
    path = tmp_path / "overflow.json"
    el.save_cm(cm, path)
    code, out, err = run_cli(capsys, argv[0], "--cm", str(path), *argv[1:])
    assert (code, out) == (3, "")
    assert err == ("entloc: numerical failure: overflow: L^T Omega L of the Cholesky factor L is "
                   "out of float range\n")


def test_report_of_a_matrix_past_the_invariant_float_range_exit_code(tmp_path, capsys):
    """A finite, physical matrix whose invariants overflow is a numerical
    failure (exit 3), not invalid input."""
    path = tmp_path / "huge.json"
    spec = el.FullySymmetricSpec(4, 1.6, 0.3, -0.2)
    el.save_cm(el.CovarianceMatrix(el.fully_symmetric_cm(spec).matrix * 1e100), path)
    code, out, err = run_cli(capsys, "report", "--cm", str(path), "--split", "2", "2")
    assert (code, out) == (3, "")
    assert err == "entloc: numerical failure: overflow: the square of 2.660000e+200 is out of " \
                  "float range\n"


HUGE_BISPEC = '{"m": 50000, "n": 50000, "a": 2.0, "e1": 0, "e2": 0, "b": 2.0, "z1": 0, "z2": 0, ' \
              '"g1": 0, "g2": 0}'


@pytest.mark.portable(reason="the assembly fails before any LAPACK call, exponential or logarithm")
@pytest.mark.parametrize("argv", [
    ("spectrum", "--modes", "100000", "--b", "1.5"),
    ("localize", "--modes", "100000", "--b", "1.5", "--k", "1"),
    ("report", "--modes", "100000", "--b", "1.5", "--k", "1", "--localize"),
    ("report", "--spec-json", HUGE_BISPEC, "--k", "1"),
])
def test_a_state_too_large_to_assemble_exit_code(monkeypatch, capsys, argv):
    """A state whose dense matrix cannot be allocated is a numerical
    failure (exit 3) named by its mode count, not a traceback. The
    assembly is made to fail: the real one would ask for about 75 GiB."""
    import entloc.states

    def no_memory(m, n, diagonals):
        raise MemoryError(f"Unable to allocate an array of {2 * (m + n)} x {2 * (m + n)} floats")

    monkeypatch.setattr(entloc.states, "_assemble", no_memory)
    assert run_cli(capsys, *argv) == (3, "", "entloc: out of memory: cannot hold the 100000-mode "
                                             "covariance matrix (200000 x 200000 floats)\n")


@pytest.mark.portable(reason="the stubbed suite raises before any floating-point work")
def test_running_out_of_memory_elsewhere_exit_code(monkeypatch, capsys):
    """A MemoryError from any other step is exit 3 too, with its message
    if it has one."""
    def no_memory(cases, seed):
        raise MemoryError

    monkeypatch.setattr("entloc.cli.run_oracle_suite", no_memory)
    assert run_cli(capsys, "verify", "--cases", "10") == (3, "", "entloc: out of memory\n")


# the states of the generated command lines, each with its mode count and,
# for a two-block spec, its own split
FUZZ_BISPEC = '{"m": 2, "n": 2, "a": 1.6, "e1": 0.2, "e2": -0.1, "b": 1.4, "z1": 0.1, "z2": 0.2, ' \
              '"g1": 0.3, "g2": -0.3}'
FUZZ_SOURCES = {
    "--cm": {"pattern.csv": 8, "pattern.json": 8, "general.json": 4, "general.csv": 4,
             "two_mode.csv": 2, "indefinite.csv": 2, "unphysical.csv": 4, "missing.csv": None},
    "--spec": {"spec.json": 6, "bispec.json": (2, 3), "list_spec.json": None},
    "--spec-json": {FUZZ_BISPEC: (2, 2), '{"modes": 5, "b": 1.6, "z1": 0.4, "z2": -0.3}': 5,
                    '{"modes": 4}': None},
    "--modes": {"2": 2, "3": 3, "8": 8, "1": None},
}
# valid values first, and more often
FUZZ_OPTIONS = {
    "--b": ["1.5", "1.5", "1", "0.5", "nan", "1e200"],
    "--trace-out": ["0", "2", "-1"],
    "--split": [("1", "1"), ("1", "3"), ("2", "2"), ("2", "3"), ("3", "3"), ("3", "5"), ("0", "4")],
    "--k": ["1", "2", "3", "4", "0", "9"],
    "--tol": ["1e-6", "0", "-1", "nan"],
    "--format": ["json", "csv"],
    "--localize": [()],
    "--dump-final": ["final.json", "final.csv"],
    "--dump-symplectic": ["symplectic.json"],
    "--out": ["out.json"],
}
# the names above that are files, in the directory of the inputs
FUZZ_FILES = {*FUZZ_SOURCES["--cm"], *FUZZ_SOURCES["--spec"], *FUZZ_OPTIONS["--dump-final"],
              *FUZZ_OPTIONS["--dump-symplectic"], *FUZZ_OPTIONS["--out"]}
FUZZ_COMMANDS = {
    "spectrum": ("--b", "--trace-out", "--tol", "--format", "--out"),
    "report": ("--b", "--trace-out", "--split", "--k", "--tol", "--localize", "--dump-final",
               "--dump-symplectic", "--out"),
    "localize": ("--b", "--trace-out", "--split", "--k", "--tol", "--dump-final",
                 "--dump-symplectic", "--out"),
    "ole": ("--b", "--trace-out", "--out"),
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    write_inputs(directory)
    return directory


def _rarely(draw) -> bool:
    return draw(st.sampled_from([False] * 6 + [True]))


@st.composite
def command_lines(draw):
    """A command, one state source (rarely none, or two), up to three of its
    options (rarely with one of another command's), each with a value from
    a fixed short list. Most report and localize lines name a split, and
    most --modes lines a --b."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    sources = [draw(st.sampled_from(sorted(FUZZ_SOURCES)))]
    if _rarely(draw):
        second = draw(st.sampled_from(sorted(set(FUZZ_SOURCES) - set(sources))))
        sources = draw(st.sampled_from([[], sources + [second]]))
    own = FUZZ_COMMANDS[command]
    names = draw(st.lists(st.sampled_from(own), max_size=3, unique=True))
    if _rarely(draw):
        names.append(draw(st.sampled_from([name for name in FUZZ_OPTIONS if name not in own])))
    if "--split" in own and not {"--k", "--split"} & set(names) and not _rarely(draw):
        names.append(draw(st.sampled_from(["--k", "--split"])))
    if "--modes" in sources and "--b" not in names and not _rarely(draw):
        names.append("--b")
    argv, asked = [command], {}
    for name in sources + names:
        values = sorted(FUZZ_SOURCES[name]) if name in FUZZ_SOURCES else FUZZ_OPTIONS[name]
        asked[name] = value = draw(st.sampled_from(values))
        argv += [name, *((value,) if isinstance(value, str) else value)]
    return argv, asked


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_generated_command_lines_exit_with_a_documented_code(fuzz_inputs, line):
    """Every command line exits 0, 2, 3 or 4 with no traceback, and every
    report that succeeds is of the split asked for: --split, --k, else a
    two-block spec's own split, else 1 | 1 of a two-mode state."""
    argv, asked = line
    argv = [str(fuzz_inputs / arg) if arg in FUZZ_FILES else arg for arg in argv]
    (fuzz_inputs / "out.json").unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    if code != 0 or argv[0] != "report":
        return
    text = (fuzz_inputs / "out.json").read_text() if "--out" in asked else stdout.getvalue()
    [state] = [FUZZ_SOURCES[source][asked[source]] for source in FUZZ_SOURCES if source in asked]
    total = sum(state) if isinstance(state, tuple) else state
    if "--split" in asked:
        expected = list(map(int, asked["--split"]))
    elif "--k" in asked:
        expected = [int(asked["--k"]), total - int(asked["--k"])]
    elif isinstance(state, tuple):
        expected = list(state)
    else:
        assert total == 2
        expected = [1, 1]
    assert json.loads(text)["split"] == expected


# the sweep and verify commands: every option with values from a short
# list, valid ones first. The b-grid is always given, with at most 10
# points (its default has 81), and no list gives more than 40 modes or a
# q above 4: a huge mode count runs for minutes
SWEEP_LISTS = ["0", "0,4", "4,1,2", "-1", "1,,2"]
SWEEP_COMMANDS = {
    "hierarchy": {
        "--modes": ["2", "3", "8", "20", "40", "1", "x"],
        "--k": ["1", "1,2", "3,1,5", "0", "40"],
        "--b-grid": ["1:3:4", "1:2:1", "1.5:1e3:10", "2:1:3", "1:3:0", "0.5:2:3", "1:nan:3", "1:3"],
        "--trace-out": SWEEP_LISTS,
        "--jobs": ["1", "2", "0"],
        "--format": ["csv", "json"],
        "--out": ["out.txt"],
    },
    "scaling": {
        "--b": ["1.5", "1", "2.5", "0.5", "nan", "1e200"],
        "--n-range": ["1,3", "2,2", "1,15", "3,1", "0,2", "4", "1,2,3"],
        "--trace-out": SWEEP_LISTS,
        "--jobs": ["1", "2", "0"],
        "--format": ["csv", "json"],
        "--out": ["out.txt"],
    },
    "verify": {
        "--cases": ["0", "1", "7", "30", "-1", "x"],
        "--seed": ["0", "7", "4242", "-1"],
        "--out": ["out.txt"],
    },
}
SWEEP_HEADERS = {"hierarchy": "m,n,k,b,q,nu_tilde,E_N,N,E_F,separable,status",
                 "scaling": "q,n,b,E_F_1x1,E_F_nxn,status"}


@st.composite
def sweep_command_lines(draw):
    """A sweep or verify command with some of its options (a hierarchy
    always with --b-grid), rarely with an option of another command."""
    command = draw(st.sampled_from(sorted(SWEEP_COMMANDS)))
    own = SWEEP_COMMANDS[command]
    names = draw(st.lists(st.sampled_from(sorted(own)), max_size=4, unique=True))
    if command == "hierarchy" and "--b-grid" not in names:
        names.append("--b-grid")
    asked = {name: draw(st.sampled_from(own[name])) for name in names}
    if _rarely(draw):
        asked[draw(st.sampled_from(["--split", "--cm", "--b-grid"]))] = "2"
    return [command, *(item for pair in asked.items() for item in pair)], asked


def _sweep_row_count(command, asked) -> int:
    """|q| |k| |b| rows of a hierarchy, |q| |n| of a scaling sweep, by the
    documented defaults: q 0,4; k 1 .. modes/2 of 20 modes; n 1..15."""
    qs = len(asked.get("--trace-out", "0,4").split(","))
    if command == "hierarchy":
        ks = asked["--k"].count(",") + 1 if "--k" in asked else int(asked.get("--modes", 20)) // 2
        return qs * ks * int(asked["--b-grid"].split(":")[2])
    lo, hi = map(int, asked.get("--n-range", "1,15").split(","))
    return qs * (hi - lo + 1)


@settings(max_examples=150, deadline=None)
@given(sweep_command_lines())
def test_generated_sweep_command_lines_exit_with_a_documented_code(tmp_path_factory, line):
    """hierarchy, scaling and verify exit 0, 2, 3 or 4 with no traceback,
    and a sweep that succeeds writes its documented header and one row
    per grid point."""
    argv, asked = line
    directory = tmp_path_factory.mktemp("sweep")
    argv = [str(directory / arg) if arg == "out.txt" else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    command = argv[0]
    if code != 0 or command == "verify":
        return
    text = (directory / "out.txt").read_text() if "--out" in asked else stdout.getvalue()
    rows = _sweep_row_count(command, asked)
    if asked.get("--format") == "json":
        records = json.loads(text)
        assert len(records) == rows
        assert all(",".join(record) == SWEEP_HEADERS[command] for record in records)
    else:
        lines = text.splitlines()
        assert lines[0] == SWEEP_HEADERS[command] and len(lines) == rows + 1
