"""Regenerate the reference tables of the sweep workloads.

    python3 benchmarks/make_reference.py

Runs each sweep command of paper-sweeps and hierarchy-large-m through the
CLI of the checkout's ``src`` and writes its stdout to
benchmarks/reference/.  The committed tables were made this way from the
commit that introduced the benchmark; regenerate them only when a change
of output is intended.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from workloads import LARGE_M_SWEEPS, PAPER_SWEEPS, REFERENCE_DIR

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    REFERENCE_DIR.mkdir(exist_ok=True)
    for argv, name, rows in PAPER_SWEEPS + LARGE_M_SWEEPS:
        out = subprocess.run([sys.executable, "-m", "entloc.cli", *argv], env=env,
                             capture_output=True, text=True, check=True).stdout
        if out.count("\n") != rows + 1:
            raise SystemExit(f"{name}: expected {rows} rows, got {out.count(chr(10)) - 1}")
        (REFERENCE_DIR / name).write_text(out, encoding="utf-8")
        print(f"wrote {name} ({rows} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
