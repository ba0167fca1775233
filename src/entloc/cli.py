"""Command-line front end.

Subcommands: spectrum, report, localize, hierarchy, scaling, ole, verify.
Each of spectrum, report, localize and ole reads one state, from exactly
one source: a covariance-matrix file (--cm), a spec file or inline JSON
(--spec or --spec-json, not both), or the built-in pure family (--modes
M --b B, optionally traced down from a larger parent with --trace-out).
The state is the matrix itself, a ``BisymmetricSpec`` or a
``FullySymmetricSpec``. Mode counts and split sizes on the command line
are one-based block sizes; a split is --split M N or --k K, not both.
A two-block spec's own split takes its closed form; any other split of
it is read from its matrix, as --cm would read it.

An option that does not apply is rejected, never ignored: --b and
--trace-out apply only with --modes, and report's --dump-final,
--dump-symplectic and --tol only with --localize. Exit codes: 0 success,
2 invalid input, 3 numerical failure (running out of memory included),
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
    block_log_negativity,
    equivalent_report,
    equivalent_report_from_cm,
    localize,
    ole_scan,
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
    _raise_first,
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
    group.add_argument("--b", type=float, metavar="B",
                       help="with --modes: single-mode squeezing eigenvalue (>= 1)")
    group.add_argument("--trace-out", type=int, metavar="Q",
                       help="with --modes: trace Q modes off an (M+Q)-mode pure parent (default 0)")


def _add_output_options(parser: argparse.ArgumentParser, *formats):
    if formats:
        parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _add_reduction_options(parser: argparse.ArgumentParser):
    """The split and the constructive reduction's options of report and localize."""
    parser.add_argument("--split", type=int, nargs=2, metavar=("M", "N"), help="block sizes")
    parser.add_argument("--k", type=int, help="the split K | (modes - K)")
    parser.add_argument("--dump-final", metavar="PATH", help="write the reduced covariance matrix")
    parser.add_argument("--dump-symplectic", metavar="PATH", help="write the local transformation")
    parser.add_argument("--tol", type=float, default=None, help="pattern tolerance override")


def _reject(args, names, condition: str) -> None:
    """Invalid input naming each option of ``names`` that was given: each
    one only applies under ``condition``."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise InvalidArgumentError(f"{', '.join(given)} only applies {condition}")


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
    """The one state the options name: the ``CovarianceMatrix`` of --cm,
    the ``BisymmetricSpec`` or ``FullySymmetricSpec`` of --spec or
    --spec-json, or the ``FullySymmetricSpec`` of --modes."""
    sources = [args.cm, args.spec, args.spec_json, args.modes]
    if len(sources) - sources.count(None) != 1:
        raise InvalidArgumentError(
            "exactly one state source required: --cm, --spec/--spec-json, or --modes"
        )
    if args.modes is None:
        _reject(args, ("b", "trace_out"), "with --modes")
    if args.cm is not None:
        return load_cm(args.cm)
    if args.spec is not None:
        return _load_spec_text(_read_text(args.spec), args.spec)
    if args.spec_json is not None:
        return _load_spec_text(args.spec_json, "--spec-json")
    if args.b is None:
        raise InvalidArgumentError("--modes requires --b")
    return traced_symmetric_spec(args.modes, args.trace_out or 0, args.b)


def _total_modes(state) -> int:
    return state.total_modes if isinstance(state, BisymmetricSpec) else state.modes


def _matrix(state) -> CovarianceMatrix:
    """The dense covariance matrix of a state. A spec whose matrix cannot
    be allocated raises a MemoryError that names its mode count."""
    if isinstance(state, CovarianceMatrix):
        return state
    try:
        if isinstance(state, BisymmetricSpec):
            return bisymmetric_cm(state)
        return fully_symmetric_cm(state)
    except MemoryError:
        modes = _total_modes(state)
        raise MemoryError(f"cannot hold the {modes}-mode covariance matrix "
                          f"({2 * modes} x {2 * modes} floats)") from None


def _resolve_split(args, state) -> tuple[int, int]:
    total = _total_modes(state)
    if args.split is not None:
        _reject(args, ("k",), "without --split")
        m, n = args.split
        if m + n != total:
            raise InvalidArgumentError(f"--split {m} {n} does not cover the {total}-mode state")
        return m, n
    if args.k is not None:
        if not 1 <= args.k <= total - 1:
            raise InvalidArgumentError(f"--k {args.k} out of range for {total} modes")
        return args.k, total - args.k
    if isinstance(state, BisymmetricSpec):
        return state.m, state.n
    if total == 2:
        return 1, 1
    raise InvalidArgumentError("a bipartition is required: pass --split M N or --k K")


def _write(text: str, path) -> None:
    """Write ``text`` to the file ``path``; an empty path fails to open."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _emit(text: str, out_path):
    """Write ``text`` to --out if given, an empty path included, else to stdout."""
    if out_path is not None:
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
    cm = _matrix(_resolve_state(args))
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


def _report_for(state, m, n):
    if isinstance(state, BisymmetricSpec) and (m, n) == (state.m, state.n):
        return equivalent_report(state)
    if isinstance(state, FullySymmetricSpec):
        return block_log_negativity(state, m)
    # any other split is decided pattern, then state, then numerics; a matrix off its pattern takes
    # the reflected-spectrum route, where separability stays decided only for 1 x n splits
    cm = _matrix(state)
    [report] = equivalent_report_from_cm(cm, [m], [n])
    if isinstance(report, LocalizationError):
        return log_negativity(cm, ModeBipartition.contiguous(m, n))
    return _raise_first([report])[0]


def _cmd_report(args) -> int:
    if not args.localize:
        _reject(args, ("dump_final", "dump_symplectic", "tol"), "with --localize")
    state = _resolve_state(args)
    m, n = _resolve_split(args, state)
    payload = {"split": [m, n], "report": _report_for(state, m, n).to_json_dict()}
    if args.localize:
        result = localize(_matrix(state), m, n, tol_pattern=args.tol)
        payload["localization"] = _localization_json(args, result)
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
    state = _resolve_state(args)
    m, n = _resolve_split(args, state)
    payload = _localization_json(args, localize(_matrix(state), m, n, tol_pattern=args.tol))
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
    state = _resolve_state(args)
    if isinstance(state, BisymmetricSpec):
        raise InvalidArgumentError("the split scan needs a fully symmetric state")
    scan = ole_scan(state)
    k_star, best = max(scan, key=lambda item: item[1].log_negativity)
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
    if args.out is not None:
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
    _add_output_options(p, "json", "csv")
    p.add_argument("--tol", type=float, default=None, help="cluster tolerance override")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("report", help="entanglement report for a bipartition")
    _add_state_options(p)
    _add_output_options(p)
    _add_reduction_options(p)
    p.add_argument("--localize", action="store_true", help="also run the constructive reduction")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("localize", help="constructive reduction to the two-mode normal pattern")
    _add_state_options(p)
    _add_output_options(p)
    _add_reduction_options(p)
    p.set_defaults(handler=_cmd_localize)

    p = sub.add_parser("hierarchy", help="block entanglement vs split size and squeezing")
    p.add_argument("--modes", type=int, default=20, help="total mode count (default 20)")
    p.add_argument("--k", type=_int_list, default=None, help="split sizes (default 1..modes/2)")
    p.add_argument("--b-grid", default="1:3:81", help="squeezing grid lo:hi:steps")
    p.add_argument("--trace-out", type=_int_list, default=[0, 4], help="q values (default 0,4)")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_output_options(p, "csv", "json")
    p.set_defaults(handler=_cmd_hierarchy)

    p = sub.add_parser("scaling", help="entanglement of formation vs half mode count")
    p.add_argument("--b", type=float, default=1.5, help="fixed squeezing (default 1.5)")
    p.add_argument("--n-range", type=_int_list, default=[1, 15], metavar="LO,HI")
    p.add_argument("--trace-out", type=_int_list, default=[0, 4], help="q values (default 0,4)")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_output_options(p, "csv", "json")
    p.set_defaults(handler=_cmd_scaling)

    p = sub.add_parser("ole", help="best split size of a fully symmetric state")
    _add_state_options(p)
    _add_output_options(p)
    p.set_defaults(handler=_cmd_ole)

    p = sub.add_parser("verify", help="run the brute-force cross-check suite")
    p.add_argument("--cases", type=int, default=500)
    p.add_argument("--seed", type=int, default=4242)
    p.add_argument("--out", metavar="PATH", help="write per-case CSV here")
    p.set_defaults(handler=_cmd_verify)

    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, and building it takes about
    # 2 ms, a tenth of a paper-grid hierarchy command: build it once
    return build_parser()


_FAILURES = (  # (type, exit code, label) of a failure; the first type that matches applies
    (InvalidArgumentError, 2, "invalid input"),
    (OSError, 2, ""),  # a missing file, a directory, a failed write
    (LocalizationError, 4, "localization failure"),
    (NumericalDomainError, 3, "numerical failure"),
    (MemoryError, 3, "out of memory"),  # numpy's names the array it could not allocate
)


def main(argv=None) -> int:
    args, unknown = _parser().parse_known_args(argv)
    if unknown:  # shown with the usage of the subcommand, not of entloc
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.handler(args)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        # its traceback holds frames that may hold it, a cycle only a garbage collection frees
        exc.__traceback__ = None
        code, label = next((code, label) for kind, code, label in _FAILURES if isinstance(exc, kind))
        print("entloc: " + ": ".join(filter(None, (label, str(exc)))), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
