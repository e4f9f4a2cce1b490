"""Per-layer spans around locdom's public functions, installed from outside.

locdom binds names with ``from .ld import lambda_bruteforce``, so a wrapper
must replace a function under every name that holds it, in every module of
the package, not only in the defining module.  A function's self time is the
duration of its spans minus the part covered by the spans of the wrapped
functions it calls.  A generator function gets one span per resumption, so
its self time is the work done between yields, and its yields are counted.

In ``cli`` only ``main`` is wrapped: the ``cmd_*`` bodies are main's own work
(argument handling, report building and writing).
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import Counter, defaultdict

LAYERS = ("graphs", "ld", "associated", "bipartite", "families", "graphio", "suites", "cli")
CLI_ENTRY = "main"


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.yields: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._wrapped: dict[int, tuple[types.FunctionType, types.FunctionType]] = {}
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.yields.clear()
        self.self_s.clear()

    def install(self, package: types.ModuleType) -> None:
        """Wrap the public functions of each layer of ``package``."""
        modules = [getattr(package, name) for name in LAYERS]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not name.startswith("_")
                        and (short != "cli" or name == CLI_ENTRY)):
                    self._wrapped[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for mod in [package, *modules]:
            for name, value in list(vars(mod).items()):
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
                    self._patches.append((mod, name, value))

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patches):
            setattr(mod, name, value)
        self._patches.clear()
        self._wrapped.clear()

    def _wrap(self, name: str, fn: types.FunctionType) -> types.FunctionType:
        calls, yields, self_s, stack = self.calls, self.yields, self.self_s, self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        d = clock() - t0
                        self_s[name] += d - stack.pop()
                        if stack:
                            stack[-1] += d
                    yields[name] += 1
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                self_s[name] += d - stack.pop()
                if stack:
                    stack[-1] += d
        return traced
