"""Golden bytes of the four matrix-file commands.

A 24-mode fully symmetric state in a local single-mode basis is written
from two literal 2x2 pattern blocks, as CSV and as JSON, and each command
runs on both files. The sha256 of stdout and of every dump file, and the
exit codes, were first recorded with the per-cell ``float`` readers, so a
change of the readers that moved any loaded bit would show here. The
``localize`` and ``report`` stdout and the two ``final`` dumps were
recorded again when ``cm_final`` and ``cm_eq`` came to be reported on
their skeleton (every entry off it +0.0, not the rounding noise of the
congruence); the ``spectrum`` stdout again when the dense spectrum came
to be taken by a Cholesky factorization and a Hermitian eigensolver; the
``localize``, ``report`` and ``ole`` stdout and the ``final`` and
``symplectic`` dumps again when every 2x2 determinant came to be a d - b c
and the invariant route came to read the cross block from det C' and the
adjugate trace; the ``localize`` and ``report`` stdout and the ``final``
and ``symplectic`` dumps again when ``localize`` came to take its boundary
rotations in closed form, not from LAPACK's SVD.

The file holds six distinct cell texts in 2304 cells (the repeated blocks
of the paper's bisymmetric states). The expected digests depend on the
floating point of numpy's LAPACK as well; they were recorded with numpy
2.4 on x86-64. To print them for the tree at hand:

    PYTHONPATH=src python tests/test_matrix_goldens.py
"""

import hashlib
from pathlib import Path

import pytest

from entloc.cli import main

MODES = 24
# The pattern blocks of traced_symmetric_spec(24, 3, 1.9) seen through
# one local symplectic (a rotation by 0.7 rad, then a squeeze by e^0.3).
ALPHA = ((2.4579832763726954, -1.1920411911859237), (-1.1920411911859237, 2.046784552947922))
EPS = ((1.4683100819359867, -1.2700544388634647), (-1.2700544388634647, 1.0302004194493581))

COMMANDS = {
    "spectrum": lambda src, d: ["spectrum", "--cm", src],
    "report": lambda src, d: ["report", "--cm", src, "--k", "6", "--localize"],
    "localize": lambda src, d: ["localize", "--cm", src, "--k", "12",
                                "--dump-final", d["final"], "--dump-symplectic", d["symplectic"]],
    "ole": lambda src, d: ["ole", "--cm", src],
}

# sha256 of each output; stdout is the same for both input formats.
# Every command exits 0.
STDOUT = {
    "localize": "2d1d7d97587bb111c65422a11e094fe6d0fdfdd69f1cebc2dc29cc559b0c8f75",
    "ole": "c35be4196f4010774e52dd5fed3ca8cfdaca26b6034824f94c5db4475dffea51",
    "report": "15ad5f4cf2f68dc8a165875a6e6679499fbe39207102e0b2fc112ec14cf1659b",
    "spectrum": "c60c14ec4902e1d56b5953c4d611d44b0eff98c1a181a19193859bb078566bf5",
}
LOCALIZE_DUMPS = {
    "csv": {"final": "53e3ffcc8440276b472b2c63699584e60c7196078a2fcd73b63f8a4cde75de7d",
            "symplectic": "51ced4f6c27fec19d5c7a5e8ba09d4efe755e469ee4174d4328a34040a25cf9e"},
    "json": {"final": "663dc422b3e697ca8c82e882d003fa5c46499468b922304cd2db517ebedcdd88",
             "symplectic": "51ced4f6c27fec19d5c7a5e8ba09d4efe755e469ee4174d4328a34040a25cf9e"},
}


def _rows():
    return [[repr((ALPHA if i // 2 == j // 2 else EPS)[i % 2][j % 2]) for j in range(2 * MODES)]
            for i in range(2 * MODES)]


def write_inputs(directory: Path) -> dict:
    rows = _rows()
    paths = {"csv": directory / "state.csv", "json": directory / "state.json"}
    paths["csv"].write_text("\n".join(map(",".join, rows)) + "\n", encoding="utf-8")
    entries = ", ".join(cell for row in rows for cell in row)
    paths["json"].write_text(f'{{"modes": {MODES}, "entries": [{entries}]}}', encoding="utf-8")
    return paths


def run_command(name: str, fmt: str, directory: Path, read_stdout) -> tuple:
    """Exit code and the sha256 of stdout (as ``read_stdout()`` returns
    it) and of each dump file."""
    source = write_inputs(directory)[fmt]
    dumps = {"final": directory / f"final.{fmt}", "symplectic": directory / "symplectic.json"}
    code = main([str(arg) for arg in COMMANDS[name](source, dumps)])
    outputs = {"stdout": read_stdout().encode("utf-8")}
    outputs.update((key, path.read_bytes()) for key, path in dumps.items() if path.exists())
    return code, {key: hashlib.sha256(data).hexdigest() for key, data in outputs.items()}


def test_input_repeats_six_cell_texts(tmp_path):
    text = write_inputs(tmp_path)["csv"].read_text(encoding="utf-8")
    assert len(set(text.replace("\n", ",").split(",")) - {""}) == 6


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_matrix_command_bytes(name, fmt, tmp_path, capsys):
    code, digests = run_command(name, fmt, tmp_path, lambda: capsys.readouterr().out)
    dumps = LOCALIZE_DUMPS[fmt] if name == "localize" else {}
    assert (code, digests) == (0, {"stdout": STDOUT[name], **dumps})


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    for name in sorted(COMMANDS):
        for fmt in ("csv", "json"):
            buffer = io.StringIO()
            with tempfile.TemporaryDirectory() as directory, contextlib.redirect_stdout(buffer):
                result = run_command(name, fmt, Path(directory), buffer.getvalue)
            print(f"    ({name!r}, {fmt!r}): {result!r},")
