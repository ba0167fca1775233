"""The benchmark's sweep commands reproduce its reference tables byte for byte."""

import sys
from pathlib import Path

import pytest

from entloc.cli import main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
from workloads import LARGE_M_SWEEPS, PAPER_SWEEPS  # noqa: E402


@pytest.mark.parametrize(
    "argv, reference", [(argv, ref) for argv, ref, _ in PAPER_SWEEPS + LARGE_M_SWEEPS],
    ids=[ref for _, ref, _ in PAPER_SWEEPS + LARGE_M_SWEEPS],
)
def test_sweep_output_is_the_reference_table(capsys, argv, reference):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert out == (BENCHMARKS / "reference" / reference).read_text(encoding="utf-8")
