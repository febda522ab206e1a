"""Span tracing installed from outside the program under test.

`Tracer.install` wraps every public function defined in the given modules,
plus named class methods, with a span.  Each span records its duration and
adds it to its parent's child time, so a layer's self time is its duration
minus the part its child spans cover.  Spans are aggregated in memory per
thread, keyed by name, and merged when `summary` is called; `restore` puts
every original function back.

A function bound under a second name with `from .x import y` is patched
under every name, so calls through either binding are seen.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import Counter


class Tracer:
    """Aggregating span recorder; one span stack per thread.

    `observers` maps a span name to `fn(args, result, counters)`, called
    after the wrapped function returns, to record counts that only the
    arguments or result show (steps taken, Newton iterations).
    """

    def __init__(self, clock=time.perf_counter, observers=None):
        self._clock = clock
        self._observers = dict(observers or {})
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            # stack of [name, start, child_time]; stats name -> [calls, s,
            # self_s]; active name -> open spans of that name; counters
            st = self._local.st = ([], {}, Counter(), Counter())
            with self._lock:
                self._threads.append(st)
        return st

    def enter(self, name: str) -> None:
        stack, _, active, _ = self._state()
        active[name] += 1
        stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        end = self._clock()
        stack, stats, active, _ = self._state()
        name, start, child = stack.pop()
        dur = end - start
        active[name] -= 1
        rec = stats.get(name)
        if rec is None:
            rec = stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[2] += dur - child
        if not active[name]:
            # inclusive time counts only the outermost span of a name, so a
            # function that re-enters itself is not counted twice
            rec[1] += dur
        if stack:
            stack[-1][2] += dur

    def counters(self) -> Counter:
        """This thread's counters, for observers."""
        return self._state()[3]

    def wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(args, result, self.counters())
            return result

        return traced

    def install(self, package: str, modules, methods=()):
        """Wrap the public functions of `modules` and the (class, attribute)
        pairs in `methods`.

        Span names are "<module>.<function>" and "<module>.<Class>.<method>",
        with the package prefix dropped from the module name.  Every module
        in sys.modules under `package` that binds a wrapped function under
        any name is patched too.
        """
        wrappers = {}
        for mod in modules:
            layer = _layer(mod.__name__)
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for cls, attr in methods:
            fn = vars(cls)[attr]
            name = f"{_layer(cls.__module__)}.{cls.__name__}.{attr}"
            self._patch(cls, attr, fn, self.wrap(name, fn))
        owners = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == package
                                        or n.startswith(package + "."))]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(owner, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """{"spans": {name: {calls, s, self_s}}, "counters": {...}} summed
        over threads."""
        spans = {}
        counters = Counter()
        with self._lock:
            threads = list(self._threads)
        for _, stats, _, ctr in threads:
            for name, (calls, total, self_s) in stats.items():
                rec = spans.setdefault(name, {"calls": 0, "s": 0.0,
                                              "self_s": 0.0})
                rec["calls"] += calls
                rec["s"] += total
                rec["self_s"] += self_s
            counters.update(ctr)
        return {"spans": spans, "counters": dict(counters)}


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]
