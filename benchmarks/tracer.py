"""Span tracer that wraps fracmax's public functions from outside the package.

`Tracer.install()` replaces every public module-level function of the traced
modules, and the `SmoothCutoff.phi`/`psi` methods, with a timing wrapper. It
patches every binding of each function in every loaded fracmax module, so a
call through `maximal_lab.evaluate` (bound by `from .multipliers import
evaluate`) is a `multipliers` span just like a call through
`multipliers.evaluate`. Calls inside a module go through its globals and are
spans too, so nested calls are traced and counted.

A span's self time is its duration minus the durations of the spans it
directly contains; summed per layer, self times partition the time covered by
the outermost spans. Functions held elsewhere (a dict of suites, a closure's
default argument) are reached without a wrapper; their time is self time of
the enclosing span.

`Tracer.uninstall()` restores every original and `leftovers()` lists any
wrapper still reachable afterwards.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from collections import defaultdict

import numpy as np
from fracmax.dilation_sets import DEFAULT_GAP_FLOOR

# Layer name -> fracmax modules whose public functions belong to it.
LAYERS = {
    "multipliers": ("fracmax.multipliers",),
    "lp_frames": ("fracmax.lp_frames",),
    "fractional_calculus": ("fracmax.fractional_calculus",),
    "maximal_lab": ("fracmax.maximal_lab",),
    "dilation_sets": ("fracmax.dilation_sets",),
    "driver": ("fracmax.cli", "fracmax.verify"),
}
# Methods traced besides module functions: (layer, module, class, method names).
TRACED_METHODS = (("lp_frames", "fracmax.lp_frames", "SmoothCutoff", ("phi", "psi")),)

_MARK = "__fracmax_bench_wrapper__"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Per-layer self time, work counts and spans for one traced pass at a time."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self.op = None
        self._block_keys: set = set()
        self.reset()

    def reset(self):
        """Start a new pass: clear times, counts and spans. Block keys are kept,
        so a repeat is a key the tracer saw before in this process."""
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.root_s = 0.0
        self.spans: list[tuple] = []  # (id, parent id, op, layer, function, start, end)
        self._ids = itertools.count()
        self.block_calls = 0
        self.block_repeats = 0

    def summary(self) -> dict:
        """This pass's numbers, as plain data."""
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "root_s": self.root_s,
            "block_calls": self.block_calls,
            "block_repeats": self.block_repeats,
        }

    # -- counters, each named after the per-layer metric it feeds -----------

    def _count(self, qualname, args, kwargs, result):
        if qualname == "radial_derivative":
            self.counts["multipliers.eval_points"] += np.size(_arg(args, kwargs, 1, "rho"))
        elif qualname in ("SmoothCutoff.phi", "SmoothCutoff.psi"):
            self.counts["lp_frames.cutoff_points"] += np.size(_arg(args, kwargs, 1, "xi"))
        elif qualname == "marchaud_matrix":
            self.counts["fractional_calculus.matrix_cells"] += int(result.shape[0]) * int(result.shape[1])
        elif qualname == "sampled_dilations":
            self.counts["maximal_lab.dilations"] += sum(int(v.size) for v in result.values())
        elif qualname == "rescaled_block":
            self.counts["dilation_sets.block_points"] += int(result.points.size)
            gap_floor = args[2] if len(args) > 2 else kwargs.get("gap_floor", DEFAULT_GAP_FLOOR)
            key = (_arg(args, kwargs, 0, "E"), _arg(args, kwargs, 1, "j"), gap_floor)
            self.block_calls += 1
            if key in self._block_keys:
                self.block_repeats += 1
            else:
                self._block_keys.add(key)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        perf = time.perf_counter
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            span = [next(tracer._ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(span)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.self_s[layer] += duration - span[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.root_s += duration
                tracer.spans.append((span[0], parent, tracer.op, layer, qualname, start, end))
            tracer._count(qualname, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        setattr(wrapper, _MARK, True)
        return wrapper

    @staticmethod
    def _targets():
        """(original, layer, qualname) for every traced function and method."""
        out = []
        for layer, modules in LAYERS.items():
            for modname in modules:
                mod = sys.modules[modname]
                for name, value in vars(mod).items():
                    if name.startswith("_") or not inspect.isfunction(value):
                        continue
                    if value.__module__ == modname:
                        out.append((value, layer, name))
        for layer, modname, cls_name, methods in TRACED_METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            for name in methods:
                out.append((vars(cls)[name], layer, f"{cls_name}.{name}"))
        return out

    @staticmethod
    def _owners():
        """Every namespace that can bind a fracmax function: modules and their classes."""
        owners = []
        for modname, mod in sorted(sys.modules.items()):
            if modname != "fracmax" and not modname.startswith("fracmax."):
                continue
            owners.append(mod)
            for value in vars(mod).values():
                if inspect.isclass(value) and value.__module__ == modname:
                    owners.append(value)
        return owners

    def install(self) -> int:
        """Wrap every binding of every traced function; return how many were patched."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(fn, layer, qualname)) for fn, layer, qualname in self._targets()}
        for owner in self._owners():
            for name, value in list(vars(owner).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patches.append((owner, name, value))
                    setattr(owner, name, wrapper)
        return len(self._patches)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def leftovers(self) -> list[str]:
        """Names in fracmax namespaces that still hold a tracing wrapper."""
        return [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner in self._owners()
            for name, value in vars(owner).items()
            if getattr(value, _MARK, False)
        ]
