"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install`` wraps every public function and public method of the nine
layer modules and rebinds the wrappers at every binding site: the defining
module, every other ``qaffpbw`` module that imported the name with
``from .x import y`` (including values of module-level dicts, such as the
CLI's invariant table), and the benchmark's own modules.  ``_linalg`` is not
wrapped, so its time is charged to the caller.

A span opens when a wrapped function of layer L is entered while the
innermost open span belongs to another layer (or none, i.e. the benchmark):
that is the layer boundary.  Calls inside the same layer open no span.  A
span's self time is its duration minus the durations of its child spans.
The named hot functions below are counted on every call, boundary or not.
Spans are aggregated in memory; ``metrics()`` reports them at the end.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from enum import Enum
from functools import wraps
from time import perf_counter

LAYERS = (
    "rootsys",
    "qdata",
    "affine",
    "invariants",
    "modexpr",
    "duality",
    "cuspidal",
    "pbw",
    "cli",
)

# (layer, qualified name) -> counter name
COUNTED = {
    ("rootsys", "cartan"): "rootsys.cartan",
    ("rootsys", "RootSystem.reflect"): "rootsys.reflect",
    ("rootsys", "RootSystem.beta_sequence"): "rootsys.beta_sequence",
    ("qdata", "phi"): "qdata.phi",
    ("qdata", "some_adapted_word"): "qdata.some_adapted_word",
    ("affine", "zero_order"): "affine.zero_order",
    ("invariants", "d_fund"): "invariants.d_fund",
    ("invariants", "lambda_inf_fund"): "invariants.lambda_inf_fund",
    ("modexpr", "normalize"): "modexpr.normalize",
    ("modexpr", "certified_normal"): "modexpr.certified_normal",
    ("modexpr", "equal"): "modexpr.equal",
    ("duality", "check_strong"): "duality.check_strong",
    ("cuspidal", "cuspidal_expr"): "cuspidal.cuspidal_expr",
    ("cuspidal", "FundamentalCuspidalSeq.index_of"): "cuspidal.index_of",
    ("pbw", "ExpVec.__getitem__"): "pbw.expvec_getitem",
}

# counter name -> (ratio metric, predicate on the return value): the share of
# calls whose result was useful, which measures wasted work
RATIOS = {
    "affine.zero_order": ("affine.zero_order.hit_ratio", bool),
    "invariants.d_fund": ("invariants.d_fund.nonzero_ratio", bool),
}


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.stack: list[list] = []  # [layer, start, child time]
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Counter = Counter()
        self.useful: Counter = Counter()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, fn, counter: str | None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, fn)
        ratio = RATIOS.get(counter)
        test = ratio[1] if ratio else None
        stack, calls, raised, self_s = self.stack, self.calls, self.raised, self.self_s
        counts, useful = self.counts, self.useful

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if counter is not None:
                counts[counter] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    raised[layer] += 1
                    raise
                finally:
                    duration = perf_counter() - frame[1]
                    stack.pop()
                    calls[layer] += 1
                    self_s[layer] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration
            if test is not None and test(result):
                useful[counter] += 1
            return result

        return wrapper

    def _wrap_generator(self, layer: str, fn):
        # the work of a generator happens while it is resumed, so each
        # resumption is its own span; the call is counted once
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.on:
                yield from it
                return
            first = True
            while True:
                boundary = not tracer.stack or tracer.stack[-1][0] != layer
                if not boundary:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                frame = [layer, perf_counter(), 0.0]
                tracer.stack.append(frame)
                done = False
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                except BaseException:
                    tracer.raised[layer] += 1
                    raise
                finally:
                    duration = perf_counter() - frame[1]
                    tracer.stack.pop()
                    if first:
                        tracer.calls[layer] += 1
                        first = False
                    tracer.self_s[layer] += duration - frame[2]
                    if tracer.stack:
                        tracer.stack[-1][2] += duration
                if done:
                    return
                yield item

        return wrapper

    def install(self, package: str, extra_modules=()) -> None:
        """Wrap the layers of an imported package and rebind every site."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, Enum):
                        self._wrap_methods(layer, obj)
                elif callable(obj):
                    wrapped = self._wrap(layer, obj, COUNTED.get((layer, name)))
                    replace[id(obj)] = wrapped
        sites = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module in sites + list(extra_modules):
            for name, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, name, replace[id(value)])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            value[key] = replace[id(item)]

    def _wrap_methods(self, layer: str, cls) -> None:
        for name, value in list(vars(cls).items()):
            qualified = f"{cls.__name__}.{name}"
            counter = COUNTED.get((layer, qualified))
            if name.startswith("_") and counter is None:
                continue
            if isinstance(value, (staticmethod, classmethod)):
                wrapped = type(value)(self._wrap(layer, value.__func__, counter))
            elif inspect.isfunction(value):
                wrapped = self._wrap(layer, value, counter)
            else:
                continue  # properties and data
            setattr(cls, name, wrapped)

    # -- report -------------------------------------------------------------

    def metrics(self, op_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.self_share"] = (100.0 * self.self_s[layer] / op_seconds, "%")
            out[f"{layer}.raised"] = (self.raised[layer], "count")
        for counter in COUNTED.values():
            out[f"{counter}.calls"] = (self.counts[counter], "count")
        for counter, (name, _) in RATIOS.items():
            total = self.counts[counter]
            out[name] = (self.useful[counter] / total if total else 0.0, "ratio")
        return out
