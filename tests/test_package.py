"""Packaging contracts: the public API names, what the paper formulas
raise, a scipy-free runtime and no library code without a library caller."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entloc as el

PUBLIC_NAMES = [
    "BisymmetricSpec", "BlockSpectrum", "CovarianceMatrix", "DecompositionError",
    "EntanglementReport", "EntlocError", "EquivalentTwoMode", "FullySymmetricSpec",
    "InconsistentInvariantsError", "InvalidArgumentError", "LocalizationError",
    "LocalizationResult", "ModeBipartition", "NumericalDomainError", "SymplecticSpectrum",
    "TwoModeInvariants", "apply_symplectic", "bisymmetric_cm", "block_log_negativity",
    "delta_invariant", "eof_symmetric", "equivalent_from_cm", "equivalent_report",
    "equivalent_report_from_cm", "equivalent_two_mode_invariants", "fs_block_spectrum",
    "fs_global_purity", "fs_params_from_invariants", "fully_symmetric_cm", "ghz_type_pure",
    "ghz_type_spec", "global_delta_bisym", "is_bona_fide", "is_symplectic", "load_cm",
    "localize", "log_negativity", "nu_plus_from_two_mode", "optimal_localizable_entanglement",
    "partial_trace", "partial_transpose", "pt_spectrum", "pt_two_mode_nu_tilde", "purity",
    "save_cm", "symmetric_condition", "symplectic_eigenvalues", "symplectic_form",
    "thermal_cm", "two_mode_invariants", "two_mode_squeezed",
    "two_mode_symplectic_eigenvalues", "vacuum_cm", "williamson",
]


def test_public_names_pinned():
    assert sorted(el.__all__) == PUBLIC_NAMES
    assert all(hasattr(el, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize("call, named", [
    (lambda: el.two_mode_squeezed(400.0), "400.0"),
    (lambda: el.two_mode_squeezed(math.nan), "nan"),
    (lambda: el.eof_symmetric(math.nan), "nan"),
    (lambda: el.fs_params_from_invariants(1.0, 1.0, math.inf), "inf"),
    (lambda: el.fs_params_from_invariants(1.0, 1.0, 1e200), "delta2=1e+200"),
    (lambda: el.nu_plus_from_two_mode(3, math.nan, 1.0, 1.0), "nan"),
    (lambda: el.nu_plus_from_two_mode(3, 1.0, math.inf, 1.0), "inf"),
    (lambda: el.nu_plus_from_two_mode(3, 1e-200, 1.0, 1.0), "1e-200"),
], ids=["tms-overflow", "tms-nan", "eof-nan", "fs-params-inf", "fs-params-overflow",
        "nu-plus-nan", "nu-plus-inf", "nu-plus-overflow"])
def test_paper_formulas_reject_what_they_cannot_evaluate(call, named):
    """A value out of a formula's domain or float range is invalid input,
    named in the message, not a bare Python error or a non-finite result."""
    with pytest.raises(el.InvalidArgumentError) as excinfo:
        call()
    assert named in str(excinfo.value)


def _unreferenced_definitions(package: Path) -> list:
    """The functions, classes and methods defined in ``package`` (dunders
    aside) whose name no code of the package references, as a Name, an
    Attribute or an identifier string, and that it does not export."""
    defined, referenced = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(item.name, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    referenced.add(node.value)
    return [qualname for name, qualname in defined
            if not (name.startswith("__") and name.endswith("__"))
            and name not in referenced and name not in el.__all__]


def test_library_code_has_a_library_caller():
    """Code that only the tests reach belongs to the tests."""
    assert _unreferenced_definitions(Path(el.__file__).parent) == []


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
