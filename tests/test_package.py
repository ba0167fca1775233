"""Packaging contracts: the public API names, what the paper formulas
raise, a scipy-free runtime, no library code without a library caller and
no tolerance outside the tolerance table."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entloc as el
import paper_formulas as pf
from entloc.symplectic import TOL

# what the CLI reaches and what reproducing the paper needs (see the
# package docstring); test-only constructors and formulas live in
# tests/paper_formulas.py
PUBLIC_NAMES = [
    "BisymmetricSpec", "CovarianceMatrix", "DecompositionError", "EntanglementReport",
    "EntlocError", "EquivalentTwoMode", "FullySymmetricSpec", "InconsistentInvariantsError",
    "InvalidArgumentError", "LocalizationError", "LocalizationResult", "ModeBipartition",
    "NumericalDomainError", "SymplecticSpectrum", "TwoModeInvariants", "bisymmetric_cm",
    "block_log_negativity", "delta_invariant", "eof_symmetric", "equivalent_report",
    "equivalent_report_from_cm", "fully_symmetric_cm", "ghz_type_spec", "is_bona_fide",
    "is_symplectic", "load_cm", "localize", "log_negativity", "ole_scan", "partial_transpose",
    "pt_spectrum", "purity", "save_cm", "symplectic_eigenvalues", "symplectic_form",
    "two_mode_invariants", "williamson",
]


def test_public_names_pinned():
    assert sorted(el.__all__) == PUBLIC_NAMES
    assert all(hasattr(el, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize("call, named", [
    (lambda: pf.two_mode_squeezed(400.0), "400.0"),
    (lambda: pf.two_mode_squeezed(math.nan), "nan"),
    (lambda: el.eof_symmetric(math.nan), "nan"),
    (lambda: pf.fs_params_from_invariants(1.0, 1.0, math.inf), "inf"),
    (lambda: pf.fs_params_from_invariants(1.0, 1.0, 1e200), "delta2=1e+200"),
    (lambda: pf.nu_plus_from_two_mode(3, math.nan, 1.0, 1.0), "nan"),
    (lambda: pf.nu_plus_from_two_mode(3, 1.0, math.inf, 1.0), "inf"),
    (lambda: pf.nu_plus_from_two_mode(3, 1e-200, 1.0, 1.0), "1e-200"),
], ids=["tms-overflow", "tms-nan", "eof-nan", "fs-params-inf", "fs-params-overflow",
        "nu-plus-nan", "nu-plus-inf", "nu-plus-overflow"])
def test_paper_formulas_reject_what_they_cannot_evaluate(call, named):
    """A value out of a formula's domain or float range is invalid input,
    named in the message, not a bare Python error or a non-finite result."""
    with pytest.raises(el.InvalidArgumentError) as excinfo:
        call()
    assert named in str(excinfo.value)


def _names(node) -> set:
    """The names a node reads: Names not assigned to, Attributes and
    identifier strings. An import binds its names without a Name node."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            if child.value.isidentifier():
                names.add(child.value)
    return names


def _unreferenced_definitions(package: Path) -> list:
    """What ``package`` defines and nothing uses, dunders aside: the
    functions, classes, methods and module-level assignments whose name no
    code of the package references, as a Name, an Attribute or an
    identifier string, and that it does not export; and the imports, at
    any depth, whose name their own module never reads."""
    defined, referenced, unused_imports = [], set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _names(tree)
        referenced |= names
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(item.name, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, ast.FunctionDef)]
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [(leaf.id, leaf.id) for target in targets for leaf in ast.walk(target)
                        if isinstance(leaf, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused_imports += [f"{path.name}: import {name}" for name in bound
                                   if name not in names]
    unused = [qualname for name, qualname in defined
              if not (name.startswith("__") and name.endswith("__"))
              and name not in referenced and name not in el.__all__]
    return unused + unused_imports


def test_library_code_has_a_library_caller():
    """Code that only the tests reach belongs to the tests."""
    assert _unreferenced_definitions(Path(el.__file__).parent) == []


def _small_float_literals(package: Path) -> list:
    """The float literals in (0, 1e-6) of ``package``'s code outside the
    tolerance table, the class ``TOL`` of symplectic.py, as "file:line
    value"; docstrings and comments hold none."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = {id(node) for top in tree.body if path.name == "symplectic.py"
                 and isinstance(top, ast.ClassDef) and top.name == "TOL" for node in ast.walk(top)}
        found += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0.0 < node.value < 1e-6 and id(node) not in table]
    return found


def test_every_tolerance_lives_in_the_table():
    """A tolerance is decided in one place, ``symplectic.TOL``, which
    states what each bounds and its scale; no module picks its own."""
    assert _small_float_literals(Path(el.__file__).parent) == []


def _readme_tolerance_rows() -> dict:
    """name -> value of each row of README's table under "## Tolerances";
    a name given twice fails."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    names = [cells[1].strip().strip("`") for cells in rows]
    assert len(names) == len(set(names)), names
    return {name: float(cells[-2]) for name, cells in zip(names, rows)}


def test_readme_tolerance_table_is_the_table():
    """README's tolerance table has one row per ``TOL`` entry, with its
    value, so an entry that is removed or changed leaves no stale row."""
    entries = {name: value for name, value in vars(TOL).items() if name.isupper()}
    assert _readme_tolerance_rows() == entries


# Runs the CLI with every scipy import refused; exits non-zero on any failure.
_SCIPY_BLOCKED_SCRIPT = """
import importlib.abc
import json
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
from entloc.cli import main

for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
loaded = [name for name in sys.modules if name == "scipy" or name.startswith("scipy.")]
if loaded:
    sys.exit(f"scipy modules loaded: {loaded}")
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    sys.exit("the finder did not refuse scipy")
"""


def test_cli_runs_without_scipy():
    commands = [
        ["verify", "--cases", "20"],
        ["report", "--modes", "6", "--b", "1.5", "--split", "3", "3", "--localize"],
        ["hierarchy", "--modes", "6", "--b-grid", "1:2:3", "--trace-out", "0,1"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(el.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED_SCRIPT, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
