"""Span tracer that instruments a package from outside its source.

`Tracer.install` rebinds every function found in each given module's
namespace -- the functions the module defines and those it imports from
the traced package -- to a timing wrapper, so calls between modules and
calls within one module both become spans. `Tracer.restore` puts every
original binding back. Each span is attributed to the module that defines
the function, whatever namespace it was called through.

Spans are aggregated in memory, keyed by (scope, parent, function): the
scope is the innermost enclosing call of one of the configured scope
roots, the parent is the function of the enclosing span. Self time is a
span's duration minus the durations of its child spans.

`count_c_calls` is separate from the tracer: it counts the C functions and
methods a `sys.setprofile` hook sees while one callable runs.
"""

from __future__ import annotations

import functools
import statistics
import sys
import types
from dataclasses import dataclass, field
from time import perf_counter_ns

TOP = ""  # scope and parent of spans that have no enclosing traced call


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    durations_ns: list[int] = field(default_factory=list)


class Tracer:
    """Timing wrappers around a package's functions, with in-memory spans."""

    def __init__(self, package: str, scope_roots=()):
        self.package = package
        self.scope_roots = frozenset(scope_roots)
        self.stats: dict[tuple[str, str, str], SpanStats] = {}
        self._stack: list[list] = []  # [name, scope for children, child ns]
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self.layers: dict[str, str] = {}  # function name -> defining module

    def _wrap(self, func):
        wrapper = self._wrappers.get(id(func))
        if wrapper is not None:
            return wrapper
        name = f"{func.__module__}.{func.__qualname__}"
        self.layers[name] = func.__module__.rsplit(".", 1)[-1]
        is_root = name in self.scope_roots
        stack = self._stack
        stats = self.stats

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stack:
                parent, scope, _ = stack[-1]
            else:
                parent, scope = TOP, TOP
            frame = [name, name if is_root else scope, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                key = (scope, parent, name)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = SpanStats()
                entry.calls += 1
                entry.self_ns += duration - frame[2]
                entry.total_ns += duration
                entry.durations_ns.append(duration)

        self._wrappers[id(func)] = wrapper
        return wrapper

    def _traceable(self, value) -> bool:
        module = getattr(value, "__module__", None) or ""
        return isinstance(value, types.FunctionType) and (
            module == self.package or module.startswith(self.package + ".")
        )

    def install(self, modules) -> None:
        """Rebind every traceable function in each module's namespace."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if self._traceable(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, self._wrap(value))

    def restore(self) -> None:
        """Put back every binding `install` replaced."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- queries -----------------------------------------------------------

    def spans(self, func=None, scope=None, parent=None, layer=None):
        """SpanStats entries matching every given filter."""
        return [
            entry
            for (s, p, f), entry in self.stats.items()
            if (func is None or f == func)
            and (scope is None or s == scope)
            and (parent is None or p == parent)
            and (layer is None or self.layers[f] == layer)
        ]

    def calls(self, **filters) -> int:
        return sum(e.calls for e in self.spans(**filters))

    def self_ns(self, **filters) -> int:
        return sum(e.self_ns for e in self.spans(**filters))

    def total_ns(self, **filters) -> int:
        return sum(e.total_ns for e in self.spans(**filters))

    def median_ns(self, **filters) -> float:
        """Median span duration over the matches; 0 when nothing matched."""
        durations = [d for e in self.spans(**filters) for d in e.durations_ns]
        return float(statistics.median(durations)) if durations else 0.0


def count_c_calls(fn, *args, **kwargs) -> int:
    """Number of 'c_call' profile events while fn(*args, **kwargs) runs."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "c_call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return count
