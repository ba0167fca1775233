"""entloc benchmark: CLI workloads end to end, and per-layer times when traced.

Usage, from the root of a checkout (the package is taken from ./src):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15 --trace 0

NAME is one of paper-sweeps, hierarchy-large-m, verify, matrix-input, or
``all``.  With --trace 0 the run reports the end-to-end metrics (setup_s,
items_per_s, peak_rss_mb; fail_ratio is failed/attempted), with --trace 1
the per-layer metrics and size curves.  Human-readable lines come first;
the last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  --out FILE also merges the full record (environment, samples)
into FILE.  See benchmarks/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded BLAS: on the 2-vCPU reference machine two OpenBLAS
# threads made the large-M sweep slower and its timings noisier.  Set
# before numpy loads, so the calibration kernel here runs as in the worker.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

from calibration import kernel_seconds, speed  # noqa: E402
from workloads import WORKLOAD_NAMES, build_manifest  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

SETUP_SAMPLES = 11
IMPORT_SAMPLES = 3
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    pass


def _python(*args, env, capture=False):
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=RUN_LIMIT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stderr if capture else None


def measure_setup(env) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters running `import entloc.cli`, and
    the machine speed around each, from the calibration kernel."""
    samples, speeds = [], []
    kernel_seconds()
    before = kernel_seconds()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        _python("-c", "import entloc.cli", env=env)
        samples.append(time.perf_counter() - start)
        after = kernel_seconds()
        speeds.append(speed(0.5 * (before + after)))
        before = after
    return samples, speeds


def parse_importtime(text: str) -> tuple[float, float]:
    """(entloc total, scipy share) in seconds from `python -X importtime`.

    The total is the cumulative time of the top-level entloc imports; the
    scipy share sums the cumulative time of scipy modules that have no
    scipy module above them.  Lines come children first, so they are read
    in reverse to know each line's ancestors.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        name = name[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total = scipy = 0
    ancestors = []
    for depth, cumulative, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if depth == 0 and (name == "entloc" or name.startswith("entloc.")):
            total += cumulative
        if is_scipy and not any(a[1] for a in ancestors):
            scipy += cumulative
        ancestors.append((depth, is_scipy))
    return total * 1e-6, scipy * 1e-6


def tail_rate(rates):
    """Highest percentile of pass time with at least ten passes beyond it,
    as (percentile, items/s), or None below eleven passes."""
    if len(rates) < 11:
        return None
    ordered = sorted(rates, reverse=True)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def run_workload(name, seed, seconds, trace) -> dict:
    started = time.perf_counter()
    tag = f"{name}-seed{seed}-trace{trace}"
    inputs = WORK_DIR / f"{tag}-{os.getpid()}"
    results = WORK_DIR / "results"
    inputs.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        manifest_path = inputs / "manifest.json"
        manifest_path.write_text(json.dumps(build_manifest(name, seed, inputs)), encoding="utf-8")
        record = {}
        # one unmeasured start, so byte-code compilation is not counted
        _python("-c", "import entloc.cli", env=env)
        if trace:
            imports = [parse_importtime(_python("-X", "importtime", "-c", "import entloc.cli",
                                                env=env, capture=True))
                       for _ in range(IMPORT_SAMPLES)]
            record["import_total_s"] = [t for t, _ in imports]
            record["import_scipy_s"] = [s for _, s in imports]
        else:
            record["setup_s"], record["setup_speed"] = measure_setup(env)
        result_path = results / f"{tag}.json"
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--manifest", str(manifest_path),
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--src", str(SRC), "--result", str(result_path)],
            env=env, capture_output=True, text=True, timeout=max(remaining, 1.0),
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        record.update(json.loads(result_path.read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return record


def at_reference_speed(record) -> tuple[list[float], list[float]]:
    """Set-up times and pass rates scaled to the reference machine speed:
    a time is multiplied by the speed measured around it, a rate divided."""
    setup = [t * v for t, v in zip(record["setup_s"], record["setup_speed"])]
    rates = [r / v for r, v in zip(record["untraced"], record["untraced_speed"])]
    return setup, rates


def end_to_end(record) -> dict:
    """name -> (value, unit, samples)."""
    setup, rates = at_reference_speed(record)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "items_per_s": (statistics.median(rates), "1/s", len(rates)),
        "peak_rss_mb": (record["peak_rss_mb"], "MB", 1),
    }


# Per-layer metrics: (name, layer, statistic, unit); statistic is the
# layer's self time or its call count, per traced pass.
LAYER_METRICS = (
    ("cli.main.self_s", "cli.main", "self_s", "s/pass"),
    ("experiments.run.self_s", "experiments.run", "self_s", "s/pass"),
    ("experiments.render_table.s", "experiments.render_table", "self_s", "s/pass"),
    ("states.spec_validation.calls", "states.spec_validation", "calls", "calls/pass"),
    ("states.spec_validation.self_s", "states.spec_validation", "self_s", "s/pass"),
    ("states.assemble.self_s", "states.assemble", "self_s", "s/pass"),
    ("localization.invariant.calls", "localization.invariant", "calls", "calls/pass"),
    ("localization.invariant.self_s", "localization.invariant", "self_s", "s/pass"),
    ("localization.localize.calls", "localization.localize", "calls", "calls/pass"),
    ("localization.localize.self_s", "localization.localize", "self_s", "s/pass"),
    ("symplectic.spectrum.calls", "symplectic.spectrum", "calls", "calls/pass"),
    ("symplectic.spectrum.self_s", "symplectic.spectrum", "self_s", "s/pass"),
    ("symplectic.io.read_s", "symplectic.io.read", "self_s", "s/pass"),
    ("symplectic.io.write_s", "symplectic.io.write", "self_s", "s/pass"),
    ("entanglement.dense_route.calls", "entanglement.dense_route", "calls", "calls/pass"),
    ("entanglement.dense_route.self_s", "entanglement.dense_route", "self_s", "s/pass"),
    ("oracle.suite.self_s", "oracle.suite", "self_s", "s/pass"),
    ("oracle.sampler.self_s", "oracle.sampler", "self_s", "s/pass"),
    ("oracle.pt_log_negativity.calls", "oracle.pt_log_negativity", "calls", "calls/pass"),
    ("oracle.pt_log_negativity.self_s", "oracle.pt_log_negativity", "self_s", "s/pass"),
)


def per_layer(record) -> dict:
    """name -> (value, unit, samples)."""
    passes = len(record["traced"])
    out = {
        "import.total_s": (statistics.median(record["import_total_s"]), "s", len(record["import_total_s"])),
        "import.scipy_s": (statistics.median(record["import_scipy_s"]), "s", len(record["import_scipy_s"])),
        "trace.overhead_ratio": (record["overhead_ratio"], "ratio", passes),
    }
    for name, layer, statistic, unit in LAYER_METRICS:
        out[name] = (record["layers"][layer][statistic], unit, passes)
    for name, key, unit in (("experiments.rows_ok_ratio", "rows_ok_ratio", "ratio"),
                            ("oracle.sampler.accept_ratio", "sampler_accept_ratio", "ratio"),
                            ("localization.ole_scan.calls", "ole_scan_calls", "calls/ole")):
        # 0 where the workload does not reach the layer
        out[name] = (record[key] if record[key] is not None else 0.0, unit, passes)
    for name, (value, unit, samples) in record["curves"].items():
        out[name] = (value, unit, samples)
    return out


def _print_record(name, record, metrics, trace):
    env = record["env"]
    print(f"== {name}  (trace={trace}, entloc from {record['entloc_file']})")
    print("   environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for metric, (value, unit, samples) in metrics.items():
        print(f"   {metric:<46} {value:>14.6g} {unit:<10} n={samples}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"   {'fail_ratio':<46} {failed / attempted:>14.6g} {'ratio':<10} n={attempted}"
          "  (failed / attempted CLI invocations)")
    if not trace:
        tail = tail_rate(at_reference_speed(record)[1])
        text = "n/a (fewer than 11 passes)" if tail is None else f"p{tail[0]:.0f} = {tail[1]:.6g} 1/s"
        print(f"   items_per_s tail (ten slower passes beyond it): {text}")
        print(f"   wall clock, not scaled: setup_s {statistics.median(record['setup_s']):.6g} s, "
              f"items_per_s {statistics.median(record['untraced']):.6g} 1/s; machine speed "
              f"{statistics.median(record['untraced_speed']):.4g} of the reference "
              f"(calibration.py)")
    if record["tables_identical"] is not None:
        print(f"   outputs byte-identical to reference tables: {record['tables_identical']}")
    for message in record["failures"]:
        print(f"   FAILED {message}")
    if trace:
        if record["unseen_layers"]:
            print(f"   FAILED layers with no recorded call: {', '.join(record['unseen_layers'])}")
        if record["missing_functions"]:
            print(f"   traced functions not found: {', '.join(record['missing_functions'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", metavar="FILE", help="merge the full record into this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "entloc" / "cli.py").is_file():
        print(f"benchmark: no entloc sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    full = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
        metrics = per_layer(record) if args.trace else end_to_end(record)
        _print_record(name, record, metrics, args.trace)
        correct = record["failed"] == 0 and not record.get("unseen_layers")
        summary["correct"] &= correct
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit, _) in metrics.items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
        full[name] = {"correct": correct, "metrics": {m: {"value": v, "unit": u, "samples": n}
                                                      for m, (v, u, n) in metrics.items()},
                      "record": record}
    if args.out:
        path = Path(args.out)
        merged = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        merged.setdefault(f"trace{args.trace}", {}).update(full)
        merged["command"] = (f"python3 benchmarks/run.py --workload {args.workload} --seed {args.seed} "
                             f"--seconds {args.seconds:g} --trace 0|1")
        path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
