"""Span tracer that wraps entloc's public functions from outside the package.

Each traced function belongs to one layer.  A span is recorded per call:
its name, start, end and parent span.  A layer's self time is the sum,
over its spans, of the span's duration minus the time its child spans
cover; a layer's call count is the number of its spans whose parent lies
in another layer (calls *into* the layer).

Modules bind names directly (``from .localization import
block_log_negativity``), so a function is replaced at every module
attribute of the package that holds it, not only at its home module.
Methods are replaced on their class.  ``uninstall`` restores every
original binding, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> functions, as "module:qualname" under the entloc package.
LAYERS = {
    "cli.main": ("cli:main",),
    "experiments.run": ("experiments:run_hierarchy", "experiments:run_scaling"),
    "experiments.render_table": ("experiments:render_table",),
    "states.spec_validation": (
        "states:BisymmetricSpec.__post_init__",
        "states:FullySymmetricSpec.__post_init__",
        "states:ghz_type_spec",
    ),
    "states.assemble": ("states:bisymmetric_cm", "states:fully_symmetric_cm"),
    "localization.invariant": (
        "localization:block_log_negativity",
        "localization:equivalent_report",
        "localization:equivalent_report_from_cm",
    ),
    "localization.localize": ("localization:localize",),
    "symplectic.spectrum": ("symplectic:symplectic_eigenvalues",),
    "symplectic.io.read": ("symplectic:load_cm",),
    "symplectic.io.write": ("symplectic:save_cm",),
    "entanglement.dense_route": ("entanglement:log_negativity",),
    "oracle.suite": ("oracle:run_oracle_suite",),
    "oracle.sampler": (
        "oracle:SpecSampler.bisymmetric",
        "oracle:SpecSampler.fully_symmetric",
        "oracle:SpecSampler.separable_bisymmetric",
    ),
    "oracle.pt_log_negativity": ("oracle:oracle_pt_log_negativity",),
}

# Spans kept for the trace file; aggregates cover every span regardless.
MAX_KEPT_SPANS = 20_000


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = sys.modules.get(f"entloc.{module_name}")
    if owner is None:
        return None, None, None
    *outer, name = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return owner, name, fn


class Tracer:
    def __init__(self):
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.layer_calls = {layer: 0 for layer in LAYERS}
        self.rows = 0
        self.rows_ok = 0
        self.sampler_attempts = 0
        self.sampler_accepted = 0
        self.ole_invocations = 0
        self.ole_invariant_calls = 0
        self.spans = []  # (name, start, end, parent index or -1)
        self.missing = []
        self._stack = []  # [layer, child time, span index, cli command]
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "entloc" or name.startswith("entloc."))]
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, name, fn = _resolve(target)
                if fn is None:
                    if target not in self.missing:
                        self.missing.append(target)
                    continue
                wrapper = self._wrap(fn, target, layer)
                if isinstance(owner, type):
                    self._saved.append((owner, name, fn))
                    setattr(owner, name, wrapper)
                    continue
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._saved.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, target, layer):
        stack = self._stack
        spans = self.spans
        layer_self = self.layer_self
        layer_calls = self.layer_calls
        clock = time.perf_counter
        is_cli = target == "cli:main"
        observes_rows = layer == "experiments.run"
        sampler = layer == "oracle.sampler"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_cli:
                command = self._cli_command(args)
            else:
                command = parent[3] if parent else None
            index = -1
            if len(spans) < MAX_KEPT_SPANS:
                index = len(spans)
                spans.append(None)
            if sampler:
                before = (args[0].attempts, args[0].accepted)
            frame = [layer, 0.0, index, command]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                layer_self[layer] += duration - frame[1]
                if parent is None or parent[0] != layer:
                    layer_calls[layer] += 1
                    if layer == "localization.invariant" and command == "ole":
                        self.ole_invariant_calls += 1
                if parent is not None:
                    parent[1] += duration
                if index >= 0:
                    spans[index] = (target, start, end, parent[2] if parent else -1)
            if observes_rows:
                self.rows += len(result)
                self.rows_ok += sum(1 for row in result if row.get("status") == "ok")
            if sampler:
                self.sampler_attempts += args[0].attempts - before[0]
                self.sampler_accepted += args[0].accepted - before[1]
            return result

        return wrapper

    def _cli_command(self, args):
        argv = args[0] if args else None
        command = argv[0] if argv else None
        if command == "ole":
            self.ole_invocations += 1
        return command
