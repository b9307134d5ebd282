"""Outside-in spans around the public functions of every lrmimo module.

``Tracer.install`` wraps each public function and public method defined in
the layer modules, then rebinds every module-level name that refers to a
wrapped function.  That covers ``from .matcore import qr_decompose`` style
imports, so a call is timed where the calling module looks the name up.
Nothing under ``src/`` changes; ``uninstall`` restores every binding.

A span's self time is its duration minus the durations of the traced spans
it encloses.  The benchmark is single-threaded, so one stack suffices.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "simharness", "mimo", "matcore", "reduction", "detect", "flops")


class FunctionStats:
    __slots__ = ("calls", "self_s", "span_s", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.span_s = 0.0
        self.durations = []

    def reset(self):
        self.calls = 0
        self.self_s = 0.0
        self.span_s = 0.0
        self.durations.clear()


class Tracer:
    """Span recorder for the package ``package``.

    ``observers`` maps a traced name (``"reduction.mclll"``) to a callable
    ``before(args, kwargs)`` that returns ``after(result, seconds)`` or
    None; it lets the benchmark read counts off arguments and results.
    ``keep_durations`` names the functions whose per-call durations are kept
    for percentiles.
    """

    def __init__(self, package: str, observers=None, keep_durations=()):
        self.package = package
        self.observers = dict(observers or {})
        self.keep_durations = frozenset(keep_durations)
        self.stats: dict[str, FunctionStats] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        for stats in self.stats.values():
            stats.reset()

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{name}", obj)
        modules = [self.package] + [f"{self.package}.{layer}" for layer in LAYERS]
        for modname in modules:
            mod = sys.modules[modname]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_methods(self, qualname: str, cls):
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member):
                self._patch(cls, name, self._wrap(f"{qualname}.{name}", member))
            elif isinstance(member, classmethod):
                wrapped = self._wrap(f"{qualname}.{name}", member.__func__)
                self._patch(cls, name, classmethod(wrapped))

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, FunctionStats())
        observer = self.observers.get(name)
        keep = name in self.keep_durations
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = observer(args, kwargs) if observer is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.span_s += span
                stats.self_s += span - children
                if keep:
                    stats.durations.append(span)
                if stack:
                    stack[-1] += span
            if after is not None:
                after(result, span)
            return result

        return traced
