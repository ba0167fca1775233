"""Workload inputs and output checks for the entloc benchmark.

Inputs are made from the benchmark seed by ``build_manifest`` in the
parent process, outside any timed region, and written as a JSON manifest
that the worker process replays.  The checks in ``check_output`` use
numpy and the committed reference tables only: nothing here imports
entloc, so the expected values do not share code with the program they
check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Relative / absolute tolerances of the numeric checks.  E_N from two
# independent routes agrees to ~1e-12 relative on these inputs; tables
# are printed with 12 significant digits.
REL_TOL = 1e-7
ABS_TOL = 1e-9
TABLE_REL_TOL = 1e-9
TABLE_ABS_TOL = 1e-12

WORKLOAD_NAMES = ("paper-sweeps", "hierarchy-large-m", "verify", "matrix-input")

PAPER_SWEEPS = (
    (["hierarchy", "--modes", "20", "--b-grid", "1:3:81", "--trace-out", "0,4", "--jobs", "1"],
     "paper_hierarchy.csv", 1620),
    (["scaling", "--b", "1.5", "--n-range", "1,15", "--trace-out", "0,4", "--jobs", "1"],
     "paper_scaling.csv", 30),
)
LARGE_M_SWEEPS = (
    (["hierarchy", "--modes", "100", "--k", "1,25,50", "--b-grid", "1:3:5", "--trace-out", "0,4",
      "--jobs", "1"], "large_m100.csv", 30),
    (["hierarchy", "--modes", "200", "--k", "1,50,100", "--b-grid", "1:3:5", "--trace-out", "0,4",
      "--jobs", "1"], "large_m200.csv", 30),
)
VERIFY_CASES = 1000
MATRIX_MODES = (12, 24, 48)
GENERAL_MODES = 10

# Layers each workload must exercise; a traced run in which one of them
# records no call means the tracer lost sight of the code.
REQUIRED_LAYERS = {
    "paper-sweeps": ("cli.main", "experiments.run", "experiments.render_table",
                     "states.spec_validation", "localization.invariant"),
    "hierarchy-large-m": ("cli.main", "experiments.run", "experiments.render_table",
                          "states.spec_validation", "localization.invariant"),
    "verify": ("cli.main", "oracle.suite", "oracle.sampler", "oracle.pt_log_negativity",
               "states.spec_validation", "states.assemble", "localization.invariant",
               "localization.localize"),
    "matrix-input": ("cli.main", "symplectic.io.read", "symplectic.io.write",
                     "symplectic.spectrum", "localization.invariant", "localization.localize",
                     "entanglement.dense_route"),
}


# ---------------------------------------------------------------------------
# Dense references, straight from the definitions.
# ---------------------------------------------------------------------------


def _omega(modes: int) -> np.ndarray:
    omega = np.zeros((2 * modes, 2 * modes))
    omega[0::2, 1::2] = np.eye(modes)
    omega[1::2, 0::2] = -np.eye(modes)
    return omega


def dense_symplectic_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues, descending: paired |Im eig(Omega sigma)|."""
    modes = matrix.shape[0] // 2
    mags = np.sort(np.abs(np.linalg.eigvals(_omega(modes) @ matrix).imag))[::-1]
    return 0.5 * (mags[0::2] + mags[1::2])


def dense_log_negativity(matrix: np.ndarray, m: int) -> float:
    """E_N of the first-m-modes split: mirror the momenta of the other
    side, then sum -ln over the sub-unit symplectic eigenvalues."""
    signs = np.ones(matrix.shape[0])
    signs[2 * m + 1 :: 2] = -1.0
    nus = dense_symplectic_spectrum(matrix * np.outer(signs, signs))
    return max(0.0, -float(sum(math.log(v) for v in nus if v < 1.0)))


def close(value, expected, rel=REL_TOL, abs_=ABS_TOL) -> bool:
    diff = abs(float(value) - float(expected))
    return diff <= abs_ or diff <= rel * max(abs(float(value)), abs(float(expected)))


# ---------------------------------------------------------------------------
# Generated covariance matrices (numpy only).
# ---------------------------------------------------------------------------


def _pure_family_z(total_modes: int, b: float) -> tuple[float, float]:
    """Off-block covariances of the pure permutation-invariant state."""
    big_m = float(total_modes)
    base = 1.0 + b * b * (big_m - 2.0) - (big_m - 1.0)
    root = math.sqrt((b * b - 1.0) * ((b * big_m) ** 2 - (big_m - 2.0) ** 2))
    denom = 2.0 * b * (big_m - 1.0)
    return (base + root) / denom, (base - root) / denom


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def symmetric_state_in_local_basis(modes: int, b: float, q: int, rng: np.random.Generator):
    """Fully symmetric M-mode state traced from a pure (M+q)-mode parent,
    seen through one random single-mode symplectic applied to every mode
    (so the block pattern survives, but not the standard form)."""
    z1, z2 = _pure_family_z(modes + q, b)
    r = float(rng.uniform(-0.5, 0.5))
    s1 = _rotation(float(rng.uniform(0, math.pi))) @ np.diag([math.exp(r), math.exp(-r)]) @ _rotation(
        float(rng.uniform(0, math.pi))
    )
    diag = s1.T @ np.diag([b, b]) @ s1
    off = s1.T @ np.diag([z1, z2]) @ s1
    diag, off = 0.5 * (diag + diag.T), 0.5 * (off + off.T)
    return np.kron(np.eye(modes), diag - off) + np.kron(np.ones((modes, modes)), off)


def random_general_state(modes: int, rng: np.random.Generator):
    """S D S^T with thermal D and a random symplectic S = O1 Z O2
    (Bloch-Messiah form); returns (interleaved matrix, exact spectrum)."""

    def passive():
        z = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
        u, _ = np.linalg.qr(z)
        return np.block([[u.real, -u.imag], [u.imag, u.real]])

    r = rng.uniform(-0.4, 0.4, size=modes)
    s = passive() @ np.diag(np.concatenate([np.exp(r), np.exp(-r)])) @ passive()
    nus = 1.0 + 2.0 * rng.random(modes)
    xxpp = s @ np.diag(np.concatenate([nus, nus])) @ s.T
    perm = np.ravel(np.column_stack([np.arange(modes), np.arange(modes) + modes]))
    matrix = xxpp[np.ix_(perm, perm)]
    return 0.5 * (matrix + matrix.T), np.sort(nus)[::-1]


def write_cm(matrix: np.ndarray, path: Path) -> None:
    """Write in entloc's file formats: JSON {"modes", "entries"} or CSV."""
    if path.suffix == ".csv":
        text = "\n".join(",".join(repr(float(x)) for x in row) for row in matrix) + "\n"
    else:
        text = json.dumps({"modes": matrix.shape[0] // 2, "entries": [float(x) for x in matrix.ravel()]})
    path.write_text(text, encoding="utf-8")


def read_cm(path: Path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8")
    if str(path).endswith(".csv"):
        return np.array([[float(c) for c in line.split(",")] for line in text.splitlines() if line.strip()])
    obj = json.loads(text)
    n = 2 * obj["modes"]
    return np.array(obj["entries"], dtype=float).reshape(n, n)


# ---------------------------------------------------------------------------
# Manifests: the command list of one pass, with what each output must be.
# ---------------------------------------------------------------------------


def _command(argv, items, check):
    return {"argv": [str(a) for a in argv], "items": items, "check": check}


def build_manifest(workload: str, seed: int, work_dir: Path) -> dict:
    """Commands of one pass of ``workload`` for ``seed``; may write input files."""
    if workload in ("paper-sweeps", "hierarchy-large-m"):
        sweeps = PAPER_SWEEPS if workload == "paper-sweeps" else LARGE_M_SWEEPS
        commands = [_command(argv, rows, {"kind": "table", "reference": ref}) for argv, ref, rows in sweeps]
    elif workload == "verify":
        commands = [
            _command(["verify", "--cases", VERIFY_CASES, "--seed", seed], VERIFY_CASES,
                     {"kind": "verify", "cases": VERIFY_CASES, "seed": seed})
        ]
    elif workload == "matrix-input":
        commands = _matrix_commands(seed, work_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "commands": commands}


def _matrix_commands(seed: int, work_dir: Path) -> list:
    rng = np.random.default_rng(seed)
    pick = random.Random(seed)
    commands = []

    def cm_file(stem, matrix):
        paths = {ext: work_dir / f"{stem}.{ext}" for ext in ("json", "csv")}
        for path in paths.values():
            write_cm(matrix, path)
        return paths

    # The seed draws the states, not the splits or the file formats: the
    # cost of report and localize depends on k, and CSV and JSON parse at
    # different speeds, so drawing those would give each seed a pass of
    # another cost.  Formats alternate by position instead.
    for index, modes in enumerate(MATRIX_MODES):
        matrix = symmetric_state_in_local_basis(modes, float(rng.uniform(1.2, 2.5)),
                                                int(rng.integers(0, 5)), rng)
        files = cm_file(f"fs{modes}", matrix)
        formats = [("json", "csv")[(index + j) % 2] for j in range(5)]
        en = {k: dense_log_negativity(matrix, k) for k in range(1, modes)}
        k_report, k_localize = modes // 4, modes // 2
        commands.append(_command(
            ["spectrum", "--cm", files[formats[0]]], 1,
            {"kind": "spectrum_json", "values": dense_symplectic_spectrum(matrix).tolist()}))
        commands.append(_command(
            ["report", "--cm", files[formats[1]], "--k", k_report, "--localize"], 1,
            {"kind": "report", "E_N": en[k_report], "localized": True}))
        final = work_dir / f"final{modes}.{formats[2]}"
        symp = work_dir / f"symplectic{modes}.json"
        cm_path = str(files[formats[3]])
        commands.append(_command(
            ["localize", "--cm", cm_path, "--k", k_localize, "--dump-final", final,
             "--dump-symplectic", symp], 1,
            {"kind": "localize", "E_N": en[k_localize], "input": cm_path,
             "dump_final": str(final), "dump_symplectic": str(symp)}))
        commands.append(_command(
            ["ole", "--cm", files[formats[4]]], 1,
            {"kind": "ole", "scan": [en[k] for k in range(1, modes // 2 + 1)]}))

    matrix, nus = random_general_state(GENERAL_MODES, rng)
    files = cm_file(f"general{GENERAL_MODES}", matrix)
    split = pick.randint(1, GENERAL_MODES - 1)
    commands.append(_command(
        ["spectrum", "--cm", files["csv"], "--format", "csv"], 1,
        {"kind": "spectrum_csv", "values": nus.tolist()}))
    commands.append(_command(
        ["report", "--cm", files["json"], "--split", split, GENERAL_MODES - split], 1,
        {"kind": "report", "E_N": dense_log_negativity(matrix, split), "localized": False}))
    return commands


# ---------------------------------------------------------------------------
# Output checks.  Each returns (ok, message).
# ---------------------------------------------------------------------------


def compare_table(text: str, reference: str) -> tuple[bool, str]:
    """Cell-wise comparison: numbers within tolerance, other cells equal."""
    got = list(csv.reader(io.StringIO(text)))
    want = list(csv.reader(io.StringIO(reference)))
    if len(got) != len(want) or (got and got[0] != want[0]):
        return False, f"table shape/header differs: {len(got)} vs {len(want)} lines"
    for lineno, (row, ref) in enumerate(zip(got, want), start=1):
        if len(row) != len(ref):
            return False, f"line {lineno}: {len(row)} cells, expected {len(ref)}"
        for cell, ref_cell in zip(row, ref):
            if cell == ref_cell:
                continue
            try:
                ok = close(float(cell), float(ref_cell), TABLE_REL_TOL, TABLE_ABS_TOL)
            except ValueError:
                ok = False
            if not ok:
                return False, f"line {lineno}: {cell!r} != reference {ref_cell!r}"
    return True, ""


def _eq_log_negativity(cm_eq: dict) -> float:
    matrix = np.array(cm_eq["entries"], dtype=float).reshape(4, 4)
    return dense_log_negativity(matrix, 1)


def _check_localization(loc: dict, expected_en: float) -> tuple[bool, str]:
    en = _eq_log_negativity(loc["equivalent"]["cm_eq"])
    if not close(en, expected_en):
        return False, f"localized E_N {en!r} != dense {expected_en!r}"
    final = np.array(loc["cm_final"]["entries"], dtype=float)
    if loc["residual"] > 1e-8 * max(1.0, float(np.max(np.abs(final)))):
        return False, f"localization residual {loc['residual']!r} too large"
    return True, ""


def check_output(check: dict, code: int, stdout: str, references: dict) -> tuple[bool, str]:
    if code != 0:
        return False, f"exit code {code}"
    kind = check["kind"]
    if kind == "table":
        return compare_table(stdout, references[check["reference"]])
    obj = json.loads(stdout) if kind != "spectrum_csv" else None
    if kind == "verify":
        want = {"cases": check["cases"], "comparisons": 3 * check["cases"], "seed": check["seed"]}
        got = {key: obj.get(key) for key in want}
        if got != want or obj.get("passes") != obj.get("comparisons"):
            return False, f"verify summary {obj} does not match {want} with all passes"
        if not (obj["worst_rel_diff"] <= REL_TOL and 0.0 <= obj["rejection_rate"] < 1.0):
            return False, f"verify summary out of range: {obj}"
        return True, ""
    if kind in ("spectrum_json", "spectrum_csv"):
        if kind == "spectrum_json":
            values = obj["values"]
        else:
            lines = stdout.splitlines()
            if lines[0] != "nu,multiplicity":
                return False, f"bad spectrum header {lines[0]!r}"
            values = []
            for line in lines[1:]:
                nu, mult = line.split(",")
                values += [float(nu)] * int(mult)
        want = check["values"]
        tol = REL_TOL if kind == "spectrum_json" else TABLE_REL_TOL
        if len(values) != len(want) or not all(close(v, w, tol) for v, w in zip(values, want)):
            return False, f"spectrum {values} != dense {want}"
        return True, ""
    if kind == "report":
        en = obj["report"]["log_negativity"]
        if not close(en, check["E_N"]):
            return False, f"report E_N {en!r} != dense {check['E_N']!r}"
        if check["localized"]:
            return _check_localization(obj["localization"], check["E_N"])
        return True, ""
    if kind == "localize":
        ok, message = _check_localization(obj, check["E_N"])
        if not ok:
            return ok, message
        final = np.array(obj["cm_final"]["entries"], dtype=float)
        symp = np.array(obj["local_symplectic"]["entries"], dtype=float)
        n = int(round(math.sqrt(final.size)))
        if not np.array_equal(read_cm(check["dump_final"]).ravel(), final):
            return False, "dumped final matrix differs from the reported one"
        if not np.array_equal(read_cm(check["dump_symplectic"]).ravel(), symp):
            return False, "dumped symplectic differs from the reported one"
        s = symp.reshape(n, n)
        sigma = read_cm(check["input"])
        defect = float(np.max(np.abs(s.T @ sigma @ s - final.reshape(n, n))))
        if defect > 1e-8 * max(1.0, float(np.max(np.abs(sigma)))):
            return False, f"S^T sigma S differs from cm_final by {defect:.3e}"
        return True, ""
    if kind == "ole":
        scan = [entry["E_N"] for entry in obj["scan"]]
        want = check["scan"]
        if [e["k"] for e in obj["scan"]] != list(range(1, len(want) + 1)):
            return False, f"ole scan covers k = {[e['k'] for e in obj['scan']]}"
        if not all(close(v, w) for v, w in zip(scan, want)):
            return False, f"ole scan {scan} != dense {want}"
        best = max(want)
        if not (close(obj["report"]["log_negativity"], best) and close(want[obj["k_star"] - 1], best)):
            return False, f"ole k_star {obj['k_star']} is not a best split"
        return True, ""
    raise ValueError(f"unknown check kind {kind!r}")


def load_references(manifest: dict) -> dict:
    names = {c["check"]["reference"] for c in manifest["commands"] if c["check"]["kind"] == "table"}
    return {name: (REFERENCE_DIR / name).read_text(encoding="utf-8") for name in names}
