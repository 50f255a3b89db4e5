"""Spans around the public functions of every jetframe module, installed from outside.

The tracer replaces each public module-level function of the traced modules,
and a fixed list of methods, by a wrapper that records a span: its name, the
name of the span that called it, its duration, and whether it raised.  Spans
are aggregated in memory per (name, parent), because a battery crosses these
boundaries about a million times; :meth:`Tracer.table` writes them out.

Modules bind each other's names directly (``from .taylor import series_pow``),
so a function is replaced in every ``jetframe`` module that binds it, not only
in the one that defines it.  Methods are replaced once, on the class, under
every attribute name that refers to them (``__rmul__`` is ``__mul__``).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

LAYERS = ("taylor", "solutions", "jets", "group", "frame", "invariants", "verify", "cli")

# (module, class, method, span name); one span name may cover several methods
METHOD_SPANS = (
    ("taylor", "TruncatedSeries", "__mul__", "taylor.mul"),
    ("jets", "Jet", "__init__", "jets.Jet"),
    ("solutions", "Constant", "series", "solutions.series"),
    ("solutions", "Rational", "series", "solutions.series"),
    ("solutions", "Soliton", "series", "solutions.series"),
    ("solutions", "Custom", "series", "solutions.series"),
    ("invariants", "SolutionGerm", "invariant_series", "invariants.SolutionGerm.invariant_series"),
    ("invariants", "SolutionGerm", "differentiate", "invariants.SolutionGerm.differentiate"),
)

# Methods that are only counted, without a span: they are too frequent and
# too short for a span to measure anything but its own cost.
METHOD_COUNTERS = (("taylor", "TruncatedSeries", "__init__", "taylor.series.allocs"),)


def triangle_size(order):
    return (order + 1) * (order + 2) // 2


def dense_mul_flops(order):
    """Multiply-adds of a dense product of two series of total order `order`."""
    return sum((d + 1) * triangle_size(order - d) for d in range(order + 1))


def _method(layer, cls_name, method):
    """The class and the function it defines under `method`; either is None when absent."""
    cls = getattr(sys.modules.get(f"jetframe.{layer}"), cls_name, None)
    original = vars(cls).get(method) if isinstance(cls, type) else None
    return cls, original if inspect.isfunction(original) else None


class Tracer:
    """Installs span wrappers into the imported ``jetframe`` modules and removes them."""

    def __init__(self):
        self.stats = {}  # (name, parent) -> [calls, total_s, self_s, raised]
        self.counters = Counter()
        self._stack = []  # [name, time covered by child spans] per open span
        self._patches = []  # (owner, attribute, original)
        self._flops = {}

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, on_call=None):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                rec[3] += raised
                if on_call is not None:
                    on_call(args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_mul_flops(self, args):
        a, b = args[0], args[1]
        order = a.order
        if type(b) is type(a):
            flops = self._flops.get(order)
            if flops is None:
                flops = self._flops[order] = dense_mul_flops(order)
        else:
            flops = triangle_size(order)
        self.counters["taylor.mul.flops"] += flops

    # -- installation --------------------------------------------------------

    def _replace(self, owner, original, replacement):
        names = [k for k, v in vars(owner).items() if v is original]
        for name in names:
            self._patches.append((owner, name, original))
            setattr(owner, name, replacement)

    def install(self):
        """Wrap every traced function and method of the imported package.

        A module, class or method that no longer exists is skipped, so its
        spans read 0 instead of the run failing.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "jetframe"]
        for layer in LAYERS:
            module = sys.modules.get(f"jetframe.{layer}")
            for attr, obj in list(vars(module).items()) if module else ():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)  # a span would end before its work
                ):
                    continue
                wrapper = self._span(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    self._replace(ns, obj, wrapper)
        for layer, cls_name, method, name in METHOD_SPANS:
            cls, original = _method(layer, cls_name, method)
            if original is not None:
                on_call = self._count_mul_flops if name == "taylor.mul" else None
                self._replace(cls, original, self._span(name, original, on_call))
        for layer, cls_name, method, key in METHOD_COUNTERS:
            cls, original = _method(layer, cls_name, method)
            if original is not None:
                self._replace(cls, original, self._counter(key, original))

    def uninstall(self):
        """Put every original function back, newest replacement first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def totals(self):
        """name -> {"calls", "self_s", "total_s", "raised"} summed over parents.

        total_s double-counts a span that calls itself; self_s never does.
        """
        out = {}
        for (name, _parent), (calls, total, self_s, raised) in self.stats.items():
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "raised": 0})
            agg["calls"] += calls
            agg["self_s"] += self_s
            agg["total_s"] += total
            agg["raised"] += raised
        return out

    def table(self):
        """Every (name, parent) aggregate, slowest self time first."""
        rows = [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s, "raised": r}
            for (n, p), (c, t, s, r) in self.stats.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
