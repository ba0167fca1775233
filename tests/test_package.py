"""Packaging contracts: the public API names and a scipy-free runtime."""

import json
import os
import subprocess
import sys

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
