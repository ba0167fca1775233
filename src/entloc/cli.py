"""Command-line front end.

Subcommands: spectrum, report, localize, hierarchy, scaling, ole, verify.
States come from a covariance-matrix file (--cm), a spec file or inline
JSON (--spec / --spec-json), or the built-in pure family (--modes M --b B,
optionally traced down from a larger parent with --trace-out). Mode
counts and split sizes on the command line are one-based block sizes;
exit codes: 0 success, 2 invalid input, 3 numerical failure,
4 localization failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .entanglement import ModeBipartition, log_negativity
from .errors import (
    InvalidArgumentError,
    LocalizationError,
    NumericalDomainError,
)
from .experiments import (
    HIERARCHY_COLUMNS,
    SCALING_COLUMNS,
    SweepConfig,
    parse_b_grid,
    render_table,
    run_hierarchy,
    run_scaling,
    traced_symmetric_spec,
)
from .localization import (
    _best_split,
    _ole_scan,
    block_log_negativity,
    equivalent_report,
    equivalent_report_from_cm,
    localize,
)
from .oracle import reports_to_csv_text, run_oracle_suite
from .states import (
    BisymmetricSpec,
    FullySymmetricSpec,
    bisymmetric_cm,
    bisymmetric_spec_from_json,
    fully_symmetric_cm,
    fully_symmetric_spec_from_json,
)
from .symplectic import (
    CovarianceMatrix,
    _indented_json,
    _json_matrix_text,
    _read_text,
    float_reprs,
    load_cm,
    save_cm,
    symplectic_eigenvalues,
)


def _add_state_options(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("state input (choose one source)")
    group.add_argument("--cm", metavar="PATH", help="covariance matrix file (.json or .csv)")
    group.add_argument("--spec", metavar="PATH", help="spec file (JSON object)")
    group.add_argument("--spec-json", metavar="JSON", help="inline spec JSON object")
    group.add_argument("--modes", type=int, metavar="M", help="pure M-mode symmetric state")
    group.add_argument("--b", type=float, metavar="B", help="single-mode squeezing eigenvalue (>= 1)")
    group.add_argument(
        "--trace-out",
        type=int,
        default=0,
        metavar="Q",
        help="with --modes: trace Q modes off an (M+Q)-mode pure parent (default 0)",
    )


def _add_output_options(parser: argparse.ArgumentParser, formats=("json", "csv")):
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _parse_spec_obj(obj: dict):
    if not isinstance(obj, dict):
        raise InvalidArgumentError("spec must be a JSON object")
    if "m" in obj:
        return bisymmetric_spec_from_json(obj)
    return fully_symmetric_spec_from_json(obj)


def _load_spec_text(text: str, origin: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"{origin}: line {exc.lineno}: {exc.msg}") from exc
    return _parse_spec_obj(obj)


def _resolve_state(args):
    """Returns (spec, cm) with exactly one of spec/cm possibly None."""
    sources = [args.cm is not None, args.spec is not None or args.spec_json is not None,
               args.modes is not None]
    if sum(sources) != 1:
        raise InvalidArgumentError(
            "exactly one state source required: --cm, --spec/--spec-json, or --modes"
        )
    if args.cm is not None:
        return None, load_cm(args.cm)
    if args.spec is not None:
        return _load_spec_text(_read_text(args.spec), args.spec), None
    if args.spec_json is not None:
        return _load_spec_text(args.spec_json, "--spec-json"), None
    if args.b is None:
        raise InvalidArgumentError("--modes requires --b")
    return traced_symmetric_spec(args.modes, args.trace_out, args.b), None


def _spec_to_cm(spec) -> CovarianceMatrix:
    if isinstance(spec, BisymmetricSpec):
        return bisymmetric_cm(spec)
    return fully_symmetric_cm(spec)


def _resolve_split(args, total_modes: int, spec=None) -> tuple[int, int]:
    if getattr(args, "split", None) is not None:
        m, n = args.split
        if m + n != total_modes:
            raise InvalidArgumentError(
                f"--split {m} {n} does not cover the {total_modes}-mode state"
            )
        return m, n
    if getattr(args, "k", None) is not None:
        k = args.k
        if not 1 <= k <= total_modes - 1:
            raise InvalidArgumentError(f"--k {k} out of range for {total_modes} modes")
        return k, total_modes - k
    if isinstance(spec, BisymmetricSpec):
        return spec.m, spec.n
    if total_modes == 2:
        return 1, 1
    raise InvalidArgumentError("a bipartition is required: pass --split M N or --k K")


def _write(text: str, path) -> None:
    """Write ``text`` to the file ``path``; an empty path fails to open."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _emit(text: str, out_path):
    if out_path:
        _write(text, out_path)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return _indented_json(obj) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    spec, cm = _resolve_state(args)
    if cm is None:
        cm = _spec_to_cm(spec)
    spectrum = symplectic_eigenvalues(cm)
    clusters = spectrum.clustered(tol=args.tol)
    if args.format == "csv":
        lines = ["nu,multiplicity"] + [f"{v:.12g},{m}" for v, m in clusters]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(
            _json_text(
                {
                    "modes": cm.modes,
                    "values": [float(v) for v in spectrum.values],
                    "clusters": [{"value": v, "multiplicity": m} for v, m in clusters],
                }
            ),
            args.out,
        )
    return 0


def _report_for(spec, cm, m, n):
    if isinstance(spec, BisymmetricSpec):
        return equivalent_report(spec)
    if isinstance(spec, FullySymmetricSpec):
        return block_log_negativity(spec, m)
    try:
        return equivalent_report_from_cm(cm, m, n)
    except LocalizationError:
        # no block-permutation symmetry: fall back to the reflected-spectrum
        # route; separability stays decided only for 1 x n splits
        return log_negativity(cm, ModeBipartition.contiguous(m, n))


def _cmd_report(args) -> int:
    if not args.localize:
        given = [f"--{name.replace('_', '-')}" for name in ("dump_final", "dump_symplectic", "tol")
                 if getattr(args, name) is not None]
        if given:
            raise InvalidArgumentError(f"{', '.join(given)} only applies with --localize")
    spec, cm = _resolve_state(args)
    total = spec.modes if isinstance(spec, FullySymmetricSpec) else (
        spec.total_modes if spec is not None else cm.modes
    )
    m, n = _resolve_split(args, total, spec)
    report = _report_for(spec, cm, m, n)
    payload = {"split": [m, n], "report": report.to_json_dict()}
    if args.localize:
        if cm is None:
            cm = _spec_to_cm(spec)
        payload["localization"] = _localization_json(args, localize(cm, m, n, tol_pattern=args.tol))
    _emit(_json_text(payload), args.out)
    return 0


def _localization_json(args, result) -> dict:
    """``result.to_json_dict()``, after writing the files of --dump-final and
    --dump-symplectic. Each matrix is formatted once: its entries enter the
    payload as the ``float_reprs`` its file was written from. A given dump
    path is a file to write, so an empty one is an error, not stdout."""
    if args.dump_final is not None:
        final = save_cm(result.cm_final, args.dump_final)
    else:
        final = float_reprs(result.cm_final.matrix)
    local = float_reprs(result.local_symplectic)
    if args.dump_symplectic is not None:
        _write(_json_matrix_text(local), args.dump_symplectic)
    return {
        "cm_final": {"modes": result.cm_final.modes, "entries": final.ravel()},
        "equivalent": result.equivalent.to_json_dict(),
        "local_symplectic": {"modes": len(local) // 2, "entries": local.ravel()},
        "residual": result.residual,
    }


def _cmd_localize(args) -> int:
    spec, cm = _resolve_state(args)
    if cm is None:
        cm = _spec_to_cm(spec)
    m, n = _resolve_split(args, cm.modes, spec)
    payload = _localization_json(args, localize(cm, m, n, tol_pattern=args.tol))
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_hierarchy(args) -> int:
    cfg = SweepConfig(
        modes=args.modes,
        k_values=None if args.k is None else tuple(args.k),
        b_grid=parse_b_grid(args.b_grid),
        trace_out=tuple(args.trace_out),
        jobs=args.jobs,
    )
    rows = run_hierarchy(cfg)
    _emit(render_table(rows, HIERARCHY_COLUMNS, args.format), args.out)
    return 0


def _cmd_scaling(args) -> int:
    if len(args.n_range) != 2 or not 1 <= args.n_range[0] <= args.n_range[1]:
        got = ",".join(map(str, args.n_range))
        raise InvalidArgumentError(f"--n-range expects LO,HI with 1 <= LO <= HI, got {got}")
    lo, hi = args.n_range
    cfg = SweepConfig(
        b=args.b,
        n_range=tuple(range(lo, hi + 1)),
        trace_out=tuple(args.trace_out),
        jobs=args.jobs,
    )
    rows = run_scaling(cfg)
    _emit(render_table(rows, SCALING_COLUMNS, args.format), args.out)
    return 0


def _cmd_ole(args) -> int:
    spec, cm = _resolve_state(args)
    if isinstance(spec, BisymmetricSpec):
        raise InvalidArgumentError("the split scan needs a fully symmetric state")
    scan = _ole_scan(spec if spec is not None else cm)
    k_star, best = _best_split(scan)
    _emit(
        _json_text(
            {
                "k_star": k_star,
                "report": best.to_json_dict(),
                "scan": [{"k": k, "E_N": report.log_negativity} for k, report in scan],
            }
        ),
        args.out,
    )
    return 0


def _cmd_verify(args) -> int:
    reports, summary, rejection_rate = run_oracle_suite(cases=args.cases, seed=args.seed)
    summary["rejection_rate"] = rejection_rate
    if args.out is not None:  # an empty path is an error here, not stdout
        _write(reports_to_csv_text(reports), args.out)
    sys.stdout.write(_json_text(summary))
    if summary["passes"] != summary["comparisons"]:
        return 3
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    parts = text.split(",")
    if "" in parts:
        what = "an empty list" if text == "" else f"an empty item in the list {text!r}"
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {what}")
    try:
        return [int(part) for part in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


_JOBS_HELP = "accepted for compatibility, no effect: the sweep runs as one batch (must be >= 1)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entloc",
        description="Block entanglement of multimode Gaussian states via unitary localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="symplectic spectrum and its degeneracy clusters")
    _add_state_options(p)
    _add_output_options(p)
    p.add_argument("--tol", type=float, default=None, help="cluster tolerance override")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("report", help="entanglement report for a bipartition")
    _add_state_options(p)
    _add_output_options(p, formats=("json",))
    p.add_argument("--split", type=int, nargs=2, metavar=("M", "N"), help="block sizes")
    p.add_argument("--k", type=int, help="first-k split of a symmetric state")
    p.add_argument("--localize", action="store_true", help="also run the constructive reduction")
    p.add_argument("--dump-final", metavar="PATH", help="write the reduced covariance matrix")
    p.add_argument("--dump-symplectic", metavar="PATH", help="write the local transformation")
    p.add_argument("--tol", type=float, default=None, help="pattern tolerance override")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("localize", help="constructive reduction to the two-mode normal pattern")
    _add_state_options(p)
    _add_output_options(p, formats=("json",))
    p.add_argument("--split", type=int, nargs=2, metavar=("M", "N"), help="block sizes")
    p.add_argument("--k", type=int, help="first-k split of a symmetric state")
    p.add_argument("--dump-final", metavar="PATH", help="write the reduced covariance matrix")
    p.add_argument("--dump-symplectic", metavar="PATH", help="write the local transformation")
    p.add_argument("--tol", type=float, default=None, help="pattern tolerance override")
    p.set_defaults(handler=_cmd_localize)

    p = sub.add_parser("hierarchy", help="block entanglement vs split size and squeezing")
    p.add_argument("--modes", type=int, default=20, help="total mode count (default 20)")
    p.add_argument("--k", type=_int_list, default=None, help="split sizes (default 1..modes/2)")
    p.add_argument("--b-grid", default="1:3:81", help="squeezing grid lo:hi:steps")
    p.add_argument("--trace-out", type=_int_list, default=[0, 4], help="q values (default 0,4)")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_output_options(p, formats=("csv", "json"))
    p.set_defaults(handler=_cmd_hierarchy)

    p = sub.add_parser("scaling", help="entanglement of formation vs half mode count")
    p.add_argument("--b", type=float, default=1.5, help="fixed squeezing (default 1.5)")
    p.add_argument("--n-range", type=_int_list, default=[1, 15], metavar="LO,HI")
    p.add_argument("--trace-out", type=_int_list, default=[0, 4], help="q values (default 0,4)")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_output_options(p, formats=("csv", "json"))
    p.set_defaults(handler=_cmd_scaling)

    p = sub.add_parser("ole", help="best split size of a fully symmetric state")
    _add_state_options(p)
    _add_output_options(p, formats=("json",))
    p.set_defaults(handler=_cmd_ole)

    p = sub.add_parser("verify", help="run the brute-force cross-check suite")
    p.add_argument("--cases", type=int, default=500)
    p.add_argument("--seed", type=int, default=4242)
    p.add_argument("--out", metavar="PATH", help="write per-case CSV here")
    p.set_defaults(handler=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, and building it takes about
    # 2 ms, a tenth of a paper-grid hierarchy command: build it once
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except InvalidArgumentError as exc:
        print(f"entloc: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, a directory, a failed write
        print(f"entloc: {exc}", file=sys.stderr)
        return 2
    except LocalizationError as exc:
        print(f"entloc: localization failure: {exc}", file=sys.stderr)
        return 4
    except NumericalDomainError as exc:
        print(f"entloc: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
