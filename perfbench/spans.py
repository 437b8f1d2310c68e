"""Spans for the traced benchmark run.

A `Tracer` wraps each layer's public entry points (the table `LAYERS`) and
records one span per call: name, start, end, parent span and op id, plus a
few counts taken at the boundary. Spans stay in memory until the run ends.
Nothing here is imported or installed by an untraced run.

Leaf entry points that run millions of times in one round (`det` under the
equivalence search, polynomial products under localization) would need
hundreds of megabytes as one span per call. Their calls under one parent
span are folded into a single record, from the first start to the last end,
whose self time is the sum of the calls and whose `calls` count says how
many there were.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# Span record fields.
NAME, START, END, PARENT, OP, SELF, ATTRS = range(7)


def _snf_attrs(args, kwargs):
    a = args[0]
    return {"cells": a.rows * a.cols, "bits": max((abs(x).bit_length() for x in a.entries), default=0)}


def _kernel_cache(args, kwargs):
    ring, d = args[0], args[1]
    return {"hit": int(d in ring._gkm)}


def _mul_terms(args, result):
    return {"terms": len(result.terms)} if hasattr(result, "terms") else None


def _iso_found(args, result):
    return {"found": len(result)}


# (module, owner inside the module or None, attribute, span name,
#  counts taken from the arguments, counts taken from arguments and result)
LAYERS = (
    ("gkmcalc.intlinalg", None, "smith_normal_form", "intlinalg.snf", _snf_attrs, None),
    ("gkmcalc.intlinalg", None, "kernel_saturated", "intlinalg.kernel", None, None),
    ("gkmcalc.intlinalg", None, "solve_with_snf", "intlinalg.solve", None, None),
    ("gkmcalc.intlinalg", "IntMatrix", "apply", "intlinalg.apply", None, None),
    ("gkmcalc.intlinalg", "IntMatrix", "det", "intlinalg.det", None, None),
    ("gkmcalc.intlinalg", "IntMatrix", "inverse_unimodular", "intlinalg.inverse", None, None),
    ("gkmcalc.polyring", "IntPolynomial", "__mul__", "polyring.mul", None, _mul_terms),
    ("gkmcalc.cohomology", "CohomologyRing", "__init__", "cohomology.init", None, None),
    ("gkmcalc.cohomology", "CohomologyRing", "gkm_basis", "cohomology.kernel", _kernel_cache, None),
    ("gkmcalc.cohomology", "CohomologyRing", "ordinary", "cohomology.quotient", None, None),
    ("gkmcalc.cohomology", "CohomologyRing", "express", "cohomology.express", None, None),
    ("gkmcalc.charclasses", None, "localize_integral", "charclasses.localize", None, None),
    ("gkmcalc.charclasses", None, "descend", "charclasses.descend", None, None),
    ("gkmcalc.gkm", None, "find_isomorphisms", "gkm.iso", None, _iso_found),
    ("gkmcalc.wjz", None, "invariant_system", "wjz.invariants", None, None),
    ("gkmcalc.wjz", None, "are_equivalent", "wjz.equiv", None, None),
    ("gkmcalc.cli", None, "main", "cli.main", None, None),
)
# Entry points that call no other entry point and whose calls are folded.
LEAVES = {"intlinalg.apply", "intlinalg.det", "polyring.mul"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.active = False  # set while the wrappers are installed
        self._open = []  # indices of open spans, innermost last
        self._child_time = {}
        self._folded = {}  # (name, parent) -> index of the folded record
        self._undo = []

    def begin(self, name, attrs=None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None, attrs])
        self._open.append(index)
        return index

    def end(self, index):
        now = time.perf_counter()
        span = self.spans[index]
        span[END] = now
        duration = now - span[START]
        span[SELF] = duration - self._child_time.pop(index, 0.0)
        self._open.pop()
        if span[PARENT] is not None:
            self._child_time[span[PARENT]] = self._child_time.get(span[PARENT], 0.0) + duration

    @contextmanager
    def span(self, name, attrs=None):
        index = self.begin(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def fold(self, name, start, end, attrs):
        """Add one call of a leaf entry point to its folded record."""
        parent = self._open[-1] if self._open else None
        index = self._folded.get((name, parent))
        if index is None:
            index = self._folded[(name, parent)] = len(self.spans)
            self.spans.append([name, start, end, parent, self.op, 0.0, {"calls": 0}])
        span = self.spans[index]
        span[END] = end
        span[SELF] += end - start
        counts = span[ATTRS]
        counts["calls"] += 1
        for key, value in (attrs or {}).items():
            counts[key] = max(counts.get(key, value), value)
        if parent is not None:
            self._child_time[parent] = self._child_time.get(parent, 0.0) + (end - start)

    def _wrap(self, fn, name, pre, post):
        tracer = self

        if name in LEAVES:
            @functools.wraps(fn)
            def folded(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                tracer.fold(name, start, time.perf_counter(), post(args, result) if post else None)
                return result

            return folded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name, pre(args, kwargs) if pre else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if post:
                extra = post(args, result)
                if extra:
                    span = tracer.spans[index]
                    span[ATTRS] = {**(span[ATTRS] or {}), **extra}
            return result

        return traced

    def install(self):
        """Wrap every entry point in `LAYERS`, and rebind each module-level
        name that refers to one of them in the gkmcalc modules."""
        for modname, owner, attr, name, pre, post in LAYERS:
            mod = importlib.import_module(modname)
            if owner is None:
                original = getattr(mod, attr)
                wrapped = self._wrap(original, name, pre, post)
                for holder in [m for n, m in list(sys.modules.items()) if n.startswith("gkmcalc")]:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            self._undo.append((holder, key, original))
            else:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, name, pre, post))
                self._undo.append((cls, attr, original))
        self.active = True

    def uninstall(self):
        self.active = False
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def adopt(self, records, parent):
        """Append spans recorded in a child process under span `parent`."""
        offset = len(self.spans)
        op = self.spans[parent][OP]
        for rec in records:
            rec = list(rec)
            rec[PARENT] = parent if rec[PARENT] is None else rec[PARENT] + offset
            rec[OP] = op
            self.spans.append(rec)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "self_s", "attrs"], "spans": self.spans}, fh)


def layer_metrics(spans):
    """Per-layer metrics from a list of span records."""
    calls, self_s = {}, {}
    attrs = {}
    inside_equiv = [False] * len(spans)
    candidates = 0
    main_s = 0.0
    process_s = 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        n = (s[ATTRS] or {}).get("calls", 1)
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + s[SELF]
        parent = s[PARENT]
        inside_equiv[i] = name == "wjz.equiv" or (parent is not None and inside_equiv[parent])
        if name == "intlinalg.det" and inside_equiv[i]:
            candidates += n
        for key, value in (s[ATTRS] or {}).items():
            attrs.setdefault((name, key), []).append(value)
        if name == "cli.main":
            main_s += s[END] - s[START]
        if name == "cli.process":
            process_s += s[END] - s[START]

    def total(name, key):
        return sum(attrs.get((name, key), ()))

    def peak(name, key):
        return max(attrs.get((name, key), ()), default=0)

    out = {}
    for layer in ("intlinalg.snf", "intlinalg.solve", "intlinalg.apply", "intlinalg.inverse",
                  "intlinalg.det", "polyring.mul", "cohomology.kernel", "cohomology.quotient",
                  "cohomology.express", "charclasses.localize", "gkm.iso", "wjz.equiv"):
        out[layer + ".calls"] = calls.get(layer, 0)
        out[layer + ".self_s"] = self_s.get(layer, 0.0)
    out["intlinalg.snf.cells"] = total("intlinalg.snf", "cells")
    out["intlinalg.snf.max_bits"] = peak("intlinalg.snf", "bits")
    out["intlinalg.kernel.calls"] = calls.get("intlinalg.kernel", 0)
    out["polyring.mul.max_terms"] = peak("polyring.mul", "terms")
    out["cohomology.rings_built"] = calls.get("cohomology.init", 0)
    out["cohomology.kernel.cache_hits"] = total("cohomology.kernel", "hit")
    for layer in ("charclasses.descend", "gkm.parse", "gkm.validate", "wjz.invariants", "cli.main"):
        out[layer + ".self_s"] = self_s.get(layer, 0.0)
    out["gkm.iso.found"] = total("gkm.iso", "found")
    out["wjz.equiv.candidates"] = candidates
    out["cli.import_s"] = self_s.get("cli.import", 0.0)
    out["cli.process_s"] = process_s - main_s
    return out
