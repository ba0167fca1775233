import json
import subprocess
import sys

import numpy as np
import pytest

import entloc as el
from entloc.cli import main
from entloc.experiments import SweepConfig
from entloc.oracle import SpecSampler
from oracle_helpers import random_bona_fide_cm


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
    en_constructive = el.log_negativity(
        cm_eq, el.ModeBipartition((0,), (1,)), ppt_decidable=True
    ).log_negativity
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
    el.save_cm(el.two_mode_squeezed(1.0), path)
    code, out, _ = run_cli(capsys, "report", "--cm", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["log_negativity"] == pytest.approx(2.0, abs=1e-9)


def test_report_from_csv_cm(tmp_path, capsys):
    path = tmp_path / "tmsv.csv"
    el.save_cm(el.two_mode_squeezed(0.5), path)
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
    el.save_cm(el.ghz_type_pure(6, 1.4), path)
    code, out, _ = run_cli(capsys, "ole", "--cm", str(path))
    assert code == 0
    assert json.loads(out)["k_star"] == 3


def test_ole_from_cm_raises_the_error_of_the_first_split(tmp_path, capsys):
    # identity diagonal and a diag(1, 1) cross block from mode 0 to each of
    # modes 1-3, not positive definite: k = 1 passes the pattern check and
    # fails in the invariant route (exit 3); k = 2 fails the pattern check
    # (exit 4) but comes later
    matrix = np.eye(8)
    for mode in (1, 2, 3):
        matrix[0:2, 2 * mode : 2 * mode + 2] = matrix[2 * mode : 2 * mode + 2, 0:2] = np.eye(2)
    path = tmp_path / "star.json"
    el.save_cm(el.CovarianceMatrix(matrix), path)
    code, out, err = run_cli(capsys, "ole", "--cm", str(path))
    assert (code, out) == (3, "")
    assert "negative radicand" in err


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
        (("report", "--spec-json", '{"modes":4,"b":1e200,"z1":0,"z2":0}', "--split", "2", "2"), 3),
        (("report", "--spec-json", '{"m":1,"n":1,"a":1e100,"b":1}'), 2),
        (("ole", "--spec-json", '{"modes":3,"b":1e100,"z1":5e99,"z2":0}'), 2),
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
