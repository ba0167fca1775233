"""The CLI output manifest: one entry per command-line invocation.

``cli_manifest.json`` lists, for each entry, its name and argv, and what
the invocation gave: its exit code, and the sha256 of its stdout, of its
stderr and of each file it wrote. ``via`` names what the computation
called whose rounding depends on the build:

* ``lapack``: a ``numpy.linalg`` factorization or solver;
* ``exp-log``: an exponential or logarithm, of ``math`` or of numpy.

An entry with an empty ``via`` gives the same bytes with any numpy and
BLAS build. A marked entry may not; its digests were recorded with numpy
2.4 and its bundled OpenBLAS on x86-64, as the other pins were.

Each entry runs through ``entloc.cli.main`` in process. It runs in a
fresh directory that holds the input files of ``write_inputs``, so its
argv names them by relative path, and with COLUMNS=80, which fixes the
width of argparse's usage text. The inputs are literal text or exact
binary fractions drawn from a seeded integer sequence, so their bytes do
not depend on the platform or on the package.

To rerun every entry on the tree at hand, rewrite the digests and marks,
and print the names of the entries that moved:

    PYTHONPATH=src python tests/cli_manifest.py

A new entry is added to the JSON file with its name and argv; the rewrite
fills in the rest.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from entloc.cli import main
from test_matrix_goldens import ALPHA, EPS

MANIFEST = Path(__file__).resolve().parent / "cli_manifest.json"

_LAPACK = ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "qr",
           "slogdet", "solve", "svd")
_EXP_LOG = ("exp", "expm1", "log", "log1p", "log2", "log10")


def _lcg(seed: int):
    """The integer sequence x -> (6364136223846793005 x + 1442695040888963407) mod 2^64."""
    state = seed
    while True:
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        yield state >> 33


def _general_rows(seed: int, modes: int) -> list:
    """A bona fide state with no block symmetry: 3 I plus a symmetric
    perturbation whose entries are multiples of 1/64 in [-1/8, 1/8]. Its
    eigenvalues are at least 3 - 2N/8 >= 2 for N <= 4 modes, so its
    symplectic eigenvalues exceed 1."""
    size, draws = 2 * modes, _lcg(seed)
    matrix = [[3.0 if i == j else 0.0 for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i, size):
            value = (next(draws) % 17 - 8) / 64.0
            matrix[i][j] = matrix[j][i] = matrix[i][j] + value
    return [[repr(x) for x in row] for row in matrix]


def _pattern_rows(modes: int, alpha=ALPHA, eps=EPS) -> list:
    """The ``modes``-mode matrix whose every diagonal block is ``alpha``
    and every other block ``eps``; by default the reduction of the
    24-mode state of the matrix goldens, in the same local basis."""
    return [[repr((alpha if i // 2 == j // 2 else eps)[i % 2][j % 2]) for j in range(2 * modes)]
            for i in range(2 * modes)]


def _two_block_rows(m: int, n: int, alpha, eps, beta, zeta, gamma) -> list:
    """The m | n two-block matrix of the 2x2 pattern blocks: ``alpha`` and
    ``eps`` inside the first m modes, ``beta`` and ``zeta`` inside the last
    n, ``gamma`` across (its transpose below the diagonal)."""
    def block(i, j):
        if (i < m) != (j < m):
            return gamma if i < m else [list(col) for col in zip(*gamma)]
        if i == j:
            return alpha if i < m else beta
        return eps if i < m else zeta

    return [[repr(float(block(i // 2, j // 2)[i % 2][j % 2])) for j in range(2 * (m + n))]
            for i in range(2 * (m + n))]


def _perturbed(rows, i: int, j: int, delta: float) -> list:
    """``rows`` with ``delta`` added to the entries (i, j) and (j, i)."""
    rows = [list(row) for row in rows]
    rows[i][j] = rows[j][i] = repr(float(rows[i][j]) + delta)
    return rows


def _csv(rows) -> str:
    return "\n".join(map(",".join, rows)) + "\n"


def _json_matrix(rows) -> str:
    entries = ", ".join(cell for row in rows for cell in row)
    return f'{{"modes": {len(rows) // 2}, "entries": [{entries}]}}'


def write_inputs(directory: Path) -> None:
    """The input files the entries name, written into ``directory``."""
    pattern, general, symmetric = _pattern_rows(8), _general_rows(2024, 4), _pattern_rows(24)
    texts = {
        "pattern.csv": _csv(pattern),
        "pattern.json": _json_matrix(pattern),
        "general.json": _json_matrix(general),
        "general.csv": _csv(general),
        # the general state divided by 4: positive definite, not physical
        "unphysical.csv": _csv([[repr(float(x) / 4.0) for x in row] for row in general]),
        "two_mode.csv": "2,0,1.5,0\n0,2,0,-1.5\n1.5,0,2,0\n0,-1.5,0,2\n",
        "indefinite.csv": "1,2,0,0\n2,1,0,0\n0,0,1,0\n0,0,0,1\n",
        # positive definite, every symplectic eigenvalue 0.5: not a state
        "half_vacuum.csv": "0.5,0,0,0\n0,0.5,0,0\n0,0,0.5,0\n0,0,0,0.5\n",
        # minus the pure state ghz_type_spec(4, 1.5), its entries written out
        "negated.csv": _csv(_pattern_rows(4, [[-1.5, -0.0], [-0.0, -1.5]],
                                          [[-0.9805061467040844, -0.0], [-0.0, 0.4249505911485288]])),
        "asymmetric.csv": "2,0.5\n0,2\n",
        "non_finite.csv": "1,0,0,0\n0,1,0,0\n0,0,nan,0\n0,0,0,1\n",
        "non_numeric.csv": "1,0\n0,x\n",
        "ragged.csv": "1,0\n0\n",
        "short.json": '{"modes": 2, "entries": [1, 0, 0, 1]}',
        "bool_modes.json": '{"modes": true, "entries": [2.5, 0, 0, 2.5]}',
        "string_entries.json": '{"modes": 1, "entries": ["2.5", "0", "0", "2.5"]}',
        "broken.json": '{"modes": 1, "entries": [1, 0, 0, 1]',
        # the 6-mode reduction of the pure 9-mode state at b = 1.5
        "spec.json": '{"modes": 6, "b": 1.5, "z1": 0.9023295624641795, "z2": -0.1731628957975128}',
        "bispec.json": '{"m": 2, "n": 3, "a": 2.0, "e1": 0.3, "e2": -0.2, "b": 1.8, '
                       '"z1": 0.25, "z2": -0.15, "g1": 0.4, "g2": -0.35}',
        "list_spec.json": "[1, 2]",
        # the 24-mode state of the matrix goldens; then with one x-p entry pair of the cross
        # block of modes 3 and 17 moved by 2**-26, inside the pattern tolerance 1e-8 |sigma|max
        # = 2.46e-8 but past a quarter of it, so that every split takes its own pattern check
        "symmetric24.csv": _csv(symmetric),
        "symmetric24_moved.csv": _csv(_perturbed(symmetric, 6, 35, 2.0**-26)),
        # a 3 | 3 two-block state: its splits 1 | 5 and 2 | 4 are off its pattern
        "two_block.csv": _csv(_two_block_rows(
            3, 3, [[2.5, 0.25], [0.25, 2.0]], [[0.5, 0.125], [0.125, 0.25]],
            [[3.0, -0.5], [-0.5, 2.5]], [[0.75, 0.0], [0.0, 0.5]], [[0.25, 0.125], [0.0625, 0.25]])),
    }
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / "latin1.json").write_bytes(b'{"modes": 1, "entries": [1, 0, 0, 1]} \xe9')


@contextlib.contextmanager
def _in_directory(directory: Path):
    previous, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(directory)
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        os.chdir(previous)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


@contextlib.contextmanager
def _spied(used: set):
    """Record in ``used`` which build-dependent functions are called."""
    targets = [(np.linalg, name, "lapack") for name in _LAPACK]
    targets += [(module, name, "exp-log") for module in (math, np) for name in _EXP_LOG]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]

    def spy(fn, mark):
        def call(*args, **kwargs):
            used.add(mark)
            return fn(*args, **kwargs)
        return call

    for (owner, name, mark), (_, _, fn) in zip(targets, originals):
        setattr(owner, name, spy(fn, mark))
    try:
        yield
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_entry(argv, directory: Path) -> dict:
    """What one invocation gives, as its manifest entry records it, run in
    ``directory``, an empty directory, after ``write_inputs``."""
    write_inputs(directory)
    inputs = set(os.listdir(directory))
    stdout, stderr, used = io.StringIO(), io.StringIO(), set()
    with _in_directory(directory), _spied(used), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    written = sorted(set(os.listdir(directory)) - inputs)
    return {
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode("utf-8")),
        "stderr": _sha256(stderr.getvalue().encode("utf-8")),
        "files": {name: _sha256((directory / name).read_bytes()) for name in written},
        "via": sorted(used),
    }


def load_manifest() -> list:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def rewrite(entries: list, scratch: Path) -> list:
    """Rerun every entry in a subdirectory of ``scratch``; returns the new
    entries and prints the name of each one whose record changed."""
    updated = []
    for index, entry in enumerate(entries):
        directory = scratch / str(index)
        directory.mkdir()
        record = {"name": entry["name"], "argv": entry["argv"], **run_entry(entry["argv"], directory)}
        if record != entry:
            print(f"moved: {entry['name']}")
        updated.append(record)
    return updated


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        entries = rewrite(load_manifest(), Path(scratch))
    # one line per entry, so that a diff shows the entries that moved
    MANIFEST.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n", encoding="utf-8")
    print(f"{len(entries)} entries, {sum(not e['via'] for e in entries)} unmarked", file=sys.stderr)
