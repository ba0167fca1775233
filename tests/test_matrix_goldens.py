"""Golden bytes of the four matrix-file commands.

A 24-mode fully symmetric state in a local single-mode basis is written
from two literal 2x2 pattern blocks, as CSV and as JSON, and each command
runs on both files. The sha256 of stdout and of every dump file, and the
exit codes, were first recorded with the per-cell ``float`` readers, so a
change of the readers that moved any loaded bit would show here. The
``localize`` and ``report`` stdout and the two ``final`` dumps were
recorded again when ``cm_final`` and ``cm_eq`` came to be reported on
their skeleton (every entry off it +0.0, not the rounding noise of the
congruence); the ``spectrum``, ``ole`` and ``symplectic`` digests are the
first recording.

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
    "localize": "6670cb1c10bd749341a455387b789d508cba7845ebc11d46fd523b7d573a982b",
    "ole": "d08e275c76c74c6dbe15d90a2301508999c101e2929759939bab1ec61e534e5d",
    "report": "25cd7031b83f7047d6782324c9a558a2a3c30686d776664cc9ebb6d822a4e089",
    "spectrum": "680ea239ec0f742887407637df8ee7df6995ed7d049550930e5c93b0cf25a2e7",
}
LOCALIZE_DUMPS = {
    "csv": {"final": "34a261a0f5ea2b58b717bdc8ce14bb69e2b74cb57eb476c7fcad525eb35401ad",
            "symplectic": "02f28f037a4b48b5e63cb3d5369c4f2de8dd0b79061d90bb2ea2a9ea0e24983e"},
    "json": {"final": "fec149fc8adce5f664ca35fb047e237e6a96f9c6e68cd7308b94c41c2f12bb87",
             "symplectic": "02f28f037a4b48b5e63cb3d5369c4f2de8dd0b79061d90bb2ea2a9ea0e24983e"},
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
