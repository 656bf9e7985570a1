"""Span recording from outside the program.

The traced pass wraps the public functions of every negabeta module (and the
public methods of ``MinusBetaSystem``) at run time, records one span per call
(name, start, end, parent) and restores the originals afterwards.  Nothing in
the program changes; the untraced passes run the pristine functions.

``FieldElement`` operators are deliberately left alone: they run millions of
times per pass, so wrapping them would measure the wrapper.  Field cost comes
from the microbenchmark in ``workloads.field_microbench`` instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "algebraic", "transform", "shiftgraph", "specprop", "measures", "ldp",
          "intervalmaps")


class Tracer:
    """In-memory span recorder; one instance per traced job."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.yields: Counter = Counter()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # A generator does its work while it is consumed, not when it is
            # created: time each resume as its own span of the same name.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self._timed_iter(name, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _timed_iter(self, name: str, it):
        while True:
            idx = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.yields[name] += 1
            yield item

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.calls.clear()
        self.yields.clear()

    def self_times(self) -> dict[str, float]:
        """Span duration minus the duration of its direct children, summed by name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out


def _public_functions(owner, module_name: str):
    for attr, obj in vars(owner).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module_name:
            yield attr, obj


class Installation:
    """Wraps every public function in every namespace that binds it; undone by restore()."""

    def __init__(self, tracer: Tracer):
        import negabeta
        from negabeta.transform import MinusBetaSystem

        modules = {layer: importlib.import_module(f"negabeta.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in _public_functions(mod, mod.__name__):
                wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
        for attr, fn in _public_functions(MinusBetaSystem, "negabeta.transform"):
            wrappers[fn] = tracer.wrap(f"transform.{attr}", fn)

        # A name imported with ``from x import f`` is a second binding of the
        # same function object; rebind it too, or calls through it go untraced.
        self._patches = []
        for owner in [negabeta, MinusBetaSystem, *modules.values()]:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[obj])

    def restore(self) -> None:
        for owner, attr, original in self._patches:
            setattr(owner, attr, original)
        self._patches.clear()
