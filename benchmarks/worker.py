"""One workload in one fresh interpreter: a closed loop of CLI invocations.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
Every invocation goes through ``entloc.cli.main(argv)`` with stdout and
stderr captured; only the ``main`` call is timed, and every output is
checked afterwards.  One untimed warm-up pass runs first.  The
calibration kernel (calibration.py) runs before the first pass and after
every pass, so each pass has the machine speed measured on both sides of
it.  With --trace 1 untraced and traced passes alternate for half of
--seconds (their ratio is the tracing overhead), and the size curves run
after the passes.  The result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibration import kernel_seconds, speed
from workloads import REQUIRED_LAYERS, check_output, load_references

MIN_PASSES = 3
MAX_FAILURE_MESSAGES = 5


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "seed": seed,
    }


class Runner:
    def __init__(self, manifest, references, seed):
        import entloc.cli

        self.cli = entloc.cli  # looked up per call, so a traced main is seen
        self.commands = manifest["commands"]
        self.references = references
        self.order = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tables_identical = True

    def run_pass(self) -> tuple[float, int]:
        """Run every command once, in a seeded order; returns (seconds in
        main, items)."""
        busy, items = 0.0, 0
        for command in self.order.sample(self.commands, len(self.commands)):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(list(command["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed operation, not a crash of the loop
                code = 1
                err.write(traceback.format_exc())
            busy += time.perf_counter() - start
            items += command["items"]
            self._check(command, code or 0, out.getvalue(), err.getvalue())
        return busy, items

    def _check(self, command, code, stdout, stderr):
        self.attempted += 1
        check = command["check"]
        if check["kind"] == "table":
            self.tables_identical &= stdout == self.references[check["reference"]]
        try:
            ok, message = check_output(check, code, stdout, self.references)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            ok, message = False, f"unreadable output: {exc!r}"
        if "Traceback" in stderr:
            ok, message = False, stderr.strip().splitlines()[-1]
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(f"{' '.join(command['argv'])}: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import entloc

    src = Path(args.src).resolve()
    if src not in Path(entloc.__file__).resolve().parents:
        print(f"entloc imported from {entloc.__file__}, not from {src}", file=sys.stderr)
        return 2

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    references = load_references(manifest)
    runner = Runner(manifest, references, args.seed)
    runner.run_pass()  # warm-up: checked, not timed
    kernel_seconds()

    untraced, traced = [], []
    untraced_speed = []
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    # a traced run leaves half of its time to the size curves
    deadline = time.perf_counter() + (args.seconds / 2 if tracer is not None else args.seconds)
    kernel_before = kernel_seconds()
    while True:
        if tracer is not None and len(traced) < len(untraced):
            tracer.install()
            try:
                traced.append(runner.run_pass())
            finally:
                tracer.uninstall()
            kernel_before = kernel_seconds()
        else:
            untraced.append(runner.run_pass())
            kernel_after = kernel_seconds()
            untraced_speed.append(speed(0.5 * (kernel_before + kernel_after)))
            kernel_before = kernel_after
        if time.perf_counter() >= deadline and len(untraced) >= MIN_PASSES and (
            tracer is None or len(traced) >= len(untraced)
        ):
            break

    result = {
        "workload": manifest["workload"],
        "entloc_file": str(Path(entloc.__file__).resolve().relative_to(src.parent)),
        "env": environment(args.seed),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "tables_identical": runner.tables_identical if references else None,
        "untraced": [items / busy for busy, items in untraced],
        "untraced_speed": untraced_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update(traced_result(tracer, traced, untraced, REQUIRED_LAYERS[manifest["workload"]]))
        Path(args.result).with_suffix(".spans.json").write_text(
            json.dumps({"spans": tracer.spans}), encoding="utf-8")
        from curves import size_curves

        result["curves"] = size_curves(args.seed)
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


def traced_result(tracer, traced, untraced, required) -> dict:
    passes = len(traced)

    def rate(runs):
        return statistics.median(items / busy for busy, items in runs)

    layers = {
        layer: {"self_s": tracer.layer_self[layer] / passes, "calls": tracer.layer_calls[layer] / passes}
        for layer in tracer.layer_self
    }
    return {
        "traced": [items / busy for busy, items in traced],
        "layers": layers,
        "unseen_layers": [layer for layer in required if tracer.layer_calls[layer] == 0],
        "missing_functions": tracer.missing,
        "rows_ok_ratio": tracer.rows_ok / tracer.rows if tracer.rows else None,
        "sampler_accept_ratio": (tracer.sampler_accepted / tracer.sampler_attempts
                                 if tracer.sampler_attempts else None),
        "ole_scan_calls": (tracer.ole_invariant_calls / tracer.ole_invocations
                           if tracer.ole_invocations else None),
        "overhead_ratio": rate(untraced) / rate(traced),
    }


if __name__ == "__main__":
    sys.exit(main())
