"""Span tracer for the encoder_sim layers, installed from outside the package.

Every function that one ``encoder_sim`` module imports from another is
replaced, in the importing module's namespace, by a wrapper that records a
span attributed to the module that defines the function. Classes imported
across modules get their own ``__init__`` wrapped the same way, so that
building a config is charged to the module whose validation runs. The set
of wrapped names comes from scanning module namespaces at install time,
so a later refactor that moves or renames a function stays traced. The
import of each module, which runs its body and the imports it makes, is a
span of that module too, so every layer's self time counts its share of
start-up.

Spans live in flat arrays in memory and are reduced to per-module self time
and call counts after the run; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib.machinery
import sys
import time
import types
from array import array

PACKAGE = "encoder_sim"
LAYERS = (
    "cli",
    "bias_tuner",
    "analysis",
    "sim_engine",
    "neuron",
    "transconductor",
    "device_model",
)

_NO_PARENT = -1


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def self_times(layer_ids, starts, ends, parents, n_layers: int) -> tuple[list[float], list[int]]:
    """Per-layer self time and span count of one call tree.

    A span's self time is its duration minus the part of it that its child
    spans cover; children are clipped to the parent and overlapping
    children are counted once. Spans must be listed in order of start, as
    a single-threaded tracer records them.
    """
    n = len(starts)
    self_s = [0.0] * n_layers
    calls = [0] * n_layers
    covered = [0.0] * n
    reach = [-float("inf")] * n  # end of the child coverage merged so far
    for i in range(n):
        layer = layer_ids[i]
        calls[layer] += 1
        p = parents[i]
        if p != _NO_PARENT:
            lo = max(starts[i], starts[p], reach[p])
            hi = min(ends[i], ends[p])
            if hi > lo:
                covered[p] += hi - lo
            if hi > reach[p]:
                reach[p] = hi
    for i in range(n):
        self_s[layer_ids[i]] += (ends[i] - starts[i]) - covered[i]
    return self_s, calls


class Tracer:
    """Records one span per call across encoder_sim module boundaries."""

    def __init__(self) -> None:
        self.layer_ids = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = [_NO_PARENT]
        self._patched: list[tuple[object, str, object]] = []
        self._finder = None

    def _span_wrapper(self, fn, layer: int):
        layer_ids, starts, ends, parents, stack = (
            self.layer_ids,
            self.starts,
            self.ends,
            self.parents,
            self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            layer_ids.append(layer)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def trace_imports(self) -> None:
        """Make each layer's import, from now until ``restore``, a span of it."""
        span_wrapper = self._span_wrapper

        class Finder:
            @staticmethod
            def find_spec(name, path=None, target=None):
                layer = name[len(PACKAGE) + 1 :]
                if not name.startswith(PACKAGE + ".") or layer not in LAYERS:
                    return None
                spec = importlib.machinery.PathFinder.find_spec(name, path, target)
                if spec is not None and spec.loader is not None:
                    loader = spec.loader
                    loader.exec_module = span_wrapper(loader.exec_module, LAYERS.index(layer))
                return spec

        self._finder = Finder
        sys.meta_path.insert(0, Finder)

    def install(self) -> int:
        """Wrap every cross-module import; returns the number of names wrapped."""
        modules = {
            name[len(PACKAGE) + 1 :]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(PACKAGE + ".") and mod is not None
        }
        missing = [layer for layer in LAYERS if layer not in modules]
        if missing:
            raise RuntimeError(f"layers not imported before tracing: {missing}")
        wrappers: dict[int, object] = {}
        wrapped_classes: set[type] = set()
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", None)
                if not owner or not owner.startswith(PACKAGE + ".") or owner == mod.__name__:
                    continue
                layer = LAYERS.index(owner[len(PACKAGE) + 1 :])
                if isinstance(obj, types.FunctionType):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._span_wrapper(obj, layer)
                    self._patch(mod, name, obj, wrappers[id(obj)])
                elif isinstance(obj, type) and obj not in wrapped_classes:
                    wrapped_classes.add(obj)
                    init = vars(obj).get("__init__")
                    if init is not None:
                        self._patch(obj, "__init__", init, self._span_wrapper(init, layer))
        return len(self._patched)

    def _patch(self, holder, name: str, original, replacement) -> None:
        setattr(holder, name, replacement)
        self._patched.append((holder, name, original))

    def restore(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)

    def root(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a root span charged to ``layer``."""
        return self._span_wrapper(fn, LAYERS.index(layer))(*args, **kwargs)

    def summary(self) -> dict[str, float]:
        """Self seconds and call counts per layer, plus the root duration."""
        self_s, calls = self_times(
            self.layer_ids, self.starts, self.ends, self.parents, len(LAYERS)
        )
        out: dict[str, float] = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self_s[k]
            out[f"{layer}.calls"] = calls[k]
        roots = [i for i in range(len(self.parents)) if self.parents[i] == _NO_PARENT]
        out["total_s"] = sum(self.ends[i] - self.starts[i] for i in roots)
        return out
