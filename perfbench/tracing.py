"""Per-layer tracing of the casimir_bec package, applied from outside.

A traced run wraps public functions of the package's modules.  Each wrapper
records a span (name, start, end, parent span, op id) in memory and folds
its duration into its parent, so the self time of a span is its duration
minus the time its wrapped children took.  Counters derived from call
arguments (matrix dimensions, omega bins, kernel sizes, bytes written) are
taken at the same boundaries.

Wrapping is by object identity: every ``casimir_bec.*`` module attribute
bound to the wrapped function object is replaced, so ``pipeline.dsf_lda``
and ``benchmarks.zone_edge_gap`` are traced together with their defining
modules.  A function or attribute that a later version of the package
renames or removes is skipped and reports zero calls; a counter that cannot
read its arguments is skipped for that call.  Tracing never raises.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import subprocess
import sys
import time

# The layers, in pipeline order; each is one module of the package.
LAYERS = ("surface", "condensate", "spectrum", "bdg", "bragg", "benchmarks",
          "emit", "config", "pipeline", "cli")

# Functions traced with a span: "<module>.<function>".
TRACED = (
    "surface.lateral_coefficients",
    "condensate.derive_quasi1d",
    "condensate.regime_check",
    "condensate.tf_axial_density",
    "spectrum.perturbative_gaps",
    "spectrum.band_branches",
    "spectrum.coupled_mode_gaps",
    "bdg.solve_bdg",
    "bdg.zone_edge_gap",
    "bdg.solve_bdg_bands",
    "bragg.dsf_lda",
    "bragg.bragg_signal",
    "benchmarks.longpulse_shape_deviation",
    "benchmarks.validate_reference",
    "emit.write_csv",
    "emit.write_json",
    "config.parse_config",
    "pipeline.run_scenario",
    "cli.main",
)

# Counters accumulated per op, and the one kept as a maximum.
COUNTERS = ("bdg.dense_flops_computed", "bragg.omega_bins", "bragg.root_solves",
            "bragg.kernel_elems", "emit.bytes_written")
MAXIMA = ("bdg.matrix_dim_max",)


def _count_bdg(tracer, arguments):
    dim = int(arguments["problem"].dimension)
    tracer.add("bdg.dense_flops_computed", float(dim) ** 3)
    tracer.maximum("bdg.matrix_dim_max", dim)


def _count_omega_bins(tracer, arguments):
    tracer.add("bragg.omega_bins", len(arguments["omega_grid"]))


def _count_kernel(tracer, arguments):
    n_omega = len(arguments["dsf_pos"].omega)
    tracer.add("bragg.kernel_elems", int(arguments["n_time"]) * n_omega)


def _count_bytes(tracer, arguments):
    tracer.add("emit.bytes_written", os.path.getsize(arguments["path"]))


# Counters read from the arguments of a traced call (defaults applied),
# after it returns.
_HOOKS = {
    "bdg.solve_bdg": _count_bdg,
    "bragg.dsf_lda": _count_omega_bins,
    "bragg.bragg_signal": _count_kernel,
    "emit.write_csv": _count_bytes,
    "emit.write_json": _count_bytes,
}


class Tracer:
    """Spans and counters of one traced window, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.op_id = -1
        self._stack: list[list] = []  # [span index, start, child time]
        self._originals: list[tuple[object, str, object]] = []

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def maximum(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def _wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        hook = _HOOKS.get(name)
        try:
            signature = inspect.signature(func)
        except (TypeError, ValueError):
            hook = None  # no Python signature to read the counter from
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(self.spans), time.perf_counter(), 0.0]
            self.spans.append(None)
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.spans[frame[0]] = (name_id, frame[1], end, parent, self.op_id)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments)
                except (AttributeError, KeyError, OSError, TypeError, ValueError):
                    pass  # the function's signature changed: skip this counter
            return result

        return traced

    def _count_calls(self, counter: str, func):
        @functools.wraps(func)
        def counted(*args, **kwargs):
            self.add(counter, 1)
            return func(*args, **kwargs)

        return counted

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "casimir_bec"
                                      or mod_name.startswith("casimir_bec.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._originals.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function the imported package still has."""
        for qualified in TRACED:
            module_name, func_name = qualified.split(".")
            module = sys.modules.get(f"casimir_bec.{module_name}")
            func = getattr(module, func_name, None) if module is not None else None
            if callable(func):
                self._replace_everywhere(func, self._wrap(qualified, func))
        bragg = sys.modules.get("casimir_bec.bragg")
        root_solver = getattr(bragg, "brentq", None) if bragg is not None else None
        if callable(root_solver):
            self._replace_everywhere(root_solver,
                                     self._count_calls("bragg.root_solves", root_solver))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def dump(self) -> dict:
        """Spans and totals as plain data, for writing out at the end."""
        return {
            "names": self.names,
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [s for s in self.spans if s is not None],
            "calls": self.calls,
            "self_s": self.self_s,
            "counters": self.counters,
        }

    def merge(self, other: dict) -> None:
        """Fold in the totals a traced child process dumped."""
        for name, n in other["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, s in other["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s
        for name, value in other["counters"].items():
            if name in MAXIMA:
                self.maximum(name, value)
            else:
                self.add(name, value)


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_times(python: str, env: dict, cwd: str) -> dict[str, float]:
    """Cumulative import seconds of casimir_bec and of all scipy modules
    pulled in from outside scipy, from ``python -X importtime`` in one fresh
    process importing the CLI module (which imports the whole package)."""
    proc = subprocess.run([python, "-X", "importtime", "-c", "import casimir_bec.cli"],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
                          check=True)
    entries = []  # (depth, name, cumulative us), in the order Python prints them
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            depth = len(match.group(3)) // 2
            entries.append((depth, match.group(4), int(match.group(2))))
    # Python prints children before their parent, one indent level deeper.
    parents: list[str | None] = [None] * len(entries)
    for i, (depth, _, _) in enumerate(entries):
        for j in range(i + 1, len(entries)):
            if entries[j][0] < depth:
                parents[i] = entries[j][1]
                break
    package_us = sum(us for (_, name, us), parent in zip(entries, parents)
                     if name == "casimir_bec")
    scipy_us = sum(us for (_, name, us), parent in zip(entries, parents)
                   if name.split(".")[0] == "scipy"
                   and (parent is None or parent.split(".")[0] != "scipy"))
    return {"import.casimir_bec_s": package_us * 1e-6, "import.scipy_s": scipy_us * 1e-6}
