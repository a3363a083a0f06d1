"""Spans around the public functions of each dp5 layer, installed from outside.

`from .p1 import pgcd` binds the name when the importing module loads, so a
target is replaced in every dp5 module namespace that holds it, and
restored afterwards. Calls into count, bundles, gf, picard, constants,
motivic and cli become one span each: (name, start, end, parent, task id,
time covered by children, note). The p1 leaves run millions of times, so
they are aggregated per enclosing span instead: calls, total time and self
time. Self time is duration minus the time covered by direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (layer name, module, attribute, kind)
TARGETS = (
    ("cli.main", "dp5.cli", "main", "span"),
    ("count.count_fast", "dp5.count", "count_fast", "span"),
    ("bundles.plucker_kernel", "dp5.bundles", "plucker_kernel", "span"),
    ("bundles.nullspace", "dp5.bundles", "nullspace", "span"),
    ("picard.chamber_normalize", "dp5.picard", "chamber_normalize", "span"),
    ("gf.field_of_order", "dp5.gf", "field_of_order", "span"),
    ("constants.leading_constant_direct", "dp5.constants",
     "leading_constant_direct", "span"),
    ("constants.leading_constant_zeta", "dp5.constants",
     "leading_constant_zeta", "span"),
    ("motivic.motivic_constant", "dp5.motivic", "motivic_constant", "span"),
    ("motivic.witt_exponents", "dp5.motivic", "witt_exponents", "span"),
    ("motivic.SeriesL.mul", "dp5.motivic", "SeriesL.__mul__", "span"),
    ("motivic.SeriesL.pow", "dp5.motivic", "SeriesL.pow", "span"),
    ("p1.pgcd", "dp5.p1", "pgcd", "leaf"),
    ("p1.pdivmod", "dp5.p1", "pdivmod", "leaf"),
    ("p1.pmul", "dp5.p1", "pmul", "leaf"),
)

# what a span keeps of its function's result
NOTES = {"count.count_fast": lambda res: res.work}


class Tracer:
    """In-memory spans and leaf aggregates of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, task, cover, note]
        self.leaves = {}  # (parent span, name) -> [calls, total_s, self_s]
        self.task = None
        # one frame per open call: [time covered by children, span index]
        self._stack = [[0.0, -1]]

    def span(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            rec = [name, 0.0, 0.0, parent[1], self.task, 0.0, None]
            spans.append(rec)
            frame = [0.0, sid]
            stack.append(frame)
            rec[1] = clock()
            try:
                res = fn(*args, **kwargs)
                if note is not None:
                    rec[6] = note(res)
                return res
            finally:
                rec[2] = clock()
                stack.pop()
                rec[5] = frame[0]
                parent[0] += rec[2] - rec[1]

        return wrapper

    def leaf(self, name, fn):
        stack, leaves = self._stack, self.leaves
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                key = (frame[1], name)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]

        return wrapper

    def totals(self) -> dict:
        """Per layer name: calls, self_s, wall_s (inclusive) and sum of notes."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "wall_s": 0.0,
                                   "note": 0})
        for name, start, end, _parent, _task, cover, note in self.spans:
            t = out[name]
            t["calls"] += 1
            t["wall_s"] += end - start
            t["self_s"] += end - start - cover
            t["note"] += note or 0
        for (_parent, name), (calls, total, self_s) in self.leaves.items():
            t = out[name]
            t["calls"] += calls
            t["wall_s"] += total
            t["self_s"] += self_s
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "leaves": [[p, n, *agg] for (p, n), agg in self.leaves.items()]},
                      fh)


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dp5" or name.startswith("dp5."))]


class installed:
    """Context manager: wrap the chosen targets, restore them on exit."""

    def __init__(self, tracer: Tracer, names=None):
        self.tracer = tracer
        self.targets = [t for t in TARGETS if names is None or t[0] in names]
        self.undo = []

    def __enter__(self):
        # import every target module first, so that the namespace scan in
        # _wrap sees all of them
        modules = {t[1]: importlib.import_module(t[1]) for t in self.targets}
        try:
            for name, module, attr, kind in self.targets:
                self._wrap(name, modules[module], attr, kind)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self.tracer

    def _wrap(self, name, module, attr, kind):
        make = self.tracer.span if kind == "span" else self.tracer.leaf
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            self.undo.append((cls, meth, orig))
            setattr(cls, meth, make(name, orig))
            return
        orig = getattr(module, attr)
        wrapper = make(name, orig)
        for mod in _modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self.undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def __exit__(self, *exc):
        while self.undo:
            owner, key, orig = self.undo.pop()
            setattr(owner, key, orig)
        return False
