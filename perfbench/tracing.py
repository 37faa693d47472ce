"""Spans around calls into mirrorcalc's public functions, recorded from
outside the library.

A ``Tracer`` replaces each traced function, wherever a mirrorcalc module
or class holds it, by a wrapper that records one span per call: name,
start, end, parent span and item id.  Spans stay in memory until
``summary`` folds them into per-name totals.  Leaving the ``with``
block puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

WRAPPED_MARK = "__perfbench_wrapped__"

# (span name, module, attribute).  RationalFunction's __sub__ and
# __rsub__ compute through ``+``, so the __add__ span counts every
# addition and subtraction once.
TARGETS = (
    ("pipeline.run_pipeline", "mirrorcalc.pipeline", "run_pipeline"),
    ("pipeline.build_hypergeom_series", "mirrorcalc.pipeline", "build_hypergeom_series"),
    ("pipeline.compute_normalization", "mirrorcalc.pipeline", "compute_normalization"),
    ("pipeline.canonical_alpha_degrees", "mirrorcalc.pipeline", "canonical_alpha_degrees"),
    ("pipeline.frobenius_basis", "mirrorcalc.pipeline", "frobenius_basis"),
    ("pipeline.extract_euler_numbers", "mirrorcalc.pipeline", "extract_euler_numbers"),
    ("pipeline.invert_multicover", "mirrorcalc.pipeline", "invert_multicover"),
    ("cohomseries.integrate_pn", "mirrorcalc.cohomseries", "integrate_pn"),
    ("cohomseries.scale_by", "mirrorcalc.cohomseries", "scale_by"),
    ("qseries.ScalarQSeries.mul", "mirrorcalc.qseries", "ScalarQSeries.__mul__"),
    ("qseries.ScalarQSeries.exp", "mirrorcalc.qseries", "ScalarQSeries.exp"),
    ("qseries.ScalarQSeries.inverse", "mirrorcalc.qseries", "ScalarQSeries.inverse"),
    ("qseries.TSeries.mul", "mirrorcalc.qseries", "TSeries.__mul__"),
    ("eulerdata.to_table", "mirrorcalc.eulerdata", "to_table"),
    ("eulerdata.check_gluing", "mirrorcalc.eulerdata", "check_gluing"),
    ("eulerdata.check_reciprocity", "mirrorcalc.eulerdata", "check_reciprocity"),
    ("eulerdata.check_degree_bound", "mirrorcalc.eulerdata", "check_degree_bound"),
    ("eulerdata.mirror_transform", "mirrorcalc.eulerdata", "mirror_transform"),
    ("eulerdata.lagrange_map", "mirrorcalc.eulerdata", "lagrange_map"),
    ("eulerdata.check_linked", "mirrorcalc.eulerdata", "check_linked"),
    ("algebra.Polynomial.mul", "mirrorcalc.algebra", "Polynomial.__mul__"),
    ("algebra.Polynomial.substitute", "mirrorcalc.algebra", "Polynomial.substitute"),
    ("algebra.RationalFunction.add", "mirrorcalc.algebra", "RationalFunction.__add__"),
    ("algebra.RationalFunction.substitute", "mirrorcalc.algebra", "RationalFunction.substitute"),
    ("algebra.rf_equal", "mirrorcalc.algebra", "rf_equal"),
    ("algebra.bar_involution", "mirrorcalc.algebra", "bar_involution"),
    ("cli.run_command", "mirrorcalc.cli", "run_command"),
)


def _coeff_bits(values):
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _count_pipeline_result(counts, result):
    bits = _coeff_bits(list(result.K) + list(result.mirror_shift.coeffs)
                       + list(result.scaling.coeffs))
    counts["pipeline.max_coeff_bits"] = max(counts["pipeline.max_coeff_bits"], bits)


def _count_report(counts, report):
    for r in report.results:
        counts["eulerdata.results"] += 1
        counts["eulerdata.inconclusive"] += r.status == "inconclusive"


# span name -> function(counts, return value) run after each call
COUNTERS = {
    "pipeline.run_pipeline": _count_pipeline_result,
    "pipeline.build_hypergeom_series":
        lambda counts, series: counts.update({"pipeline.cells": len(series.cells)}),
    "algebra.Polynomial.mul":
        lambda counts, poly: counts.update({"algebra.Polynomial.mul.terms_out": len(poly.terms)}),
    "eulerdata.check_gluing": _count_report,
    "eulerdata.check_reciprocity": _count_report,
    "eulerdata.check_degree_bound": _count_report,
    "eulerdata.check_linked": _count_report,
}


def _mirrorcalc_modules():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mirrorcalc" or name.startswith("mirrorcalc."))]


def _holders(module_name, attr):
    """Every (owner, attribute) through which callers reach the target:
    the defining module or class under any alias, and every mirrorcalc
    module that imported it by name."""
    module = importlib.import_module(module_name)
    cls_name, _, fn_name = attr.rpartition(".")
    if cls_name:
        cls = getattr(module, cls_name)
        original = cls.__dict__[fn_name]
        return original, [(cls, key) for key, val in vars(cls).items() if val is original]
    original = getattr(module, fn_name)
    owners = [(mod, key) for _, mod in _mirrorcalc_modules()
              for key, val in vars(mod).items() if val is original]
    return original, owners


def installed_wrappers():
    """(owner, attribute) pairs in mirrorcalc that currently hold a wrapper."""
    found = []
    for name, mod in _mirrorcalc_modules():
        for key, val in vars(mod).items():
            if getattr(val, WRAPPED_MARK, False):
                found.append((mod, key))
            if isinstance(val, type) and val.__module__ == name:
                found += [(val, k) for k, v in vars(val).items()
                          if getattr(v, WRAPPED_MARK, False)]
    return found


class Tracer:
    """In-memory span recorder; entering patches, leaving restores."""

    def __init__(self):
        self.names = []          # span name id -> name
        self._name_ids = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.items = []          # item id -> item label
        self.counts = Counter()
        self._item_id = -1
        self._stack = []
        self._patched = []

    def set_item(self, label):
        self.items.append(label)
        self._item_id = len(self.items) - 1

    def __enter__(self):
        for span, module_name, attr in TARGETS:
            original, owners = _holders(module_name, attr)
            wrapper = self._wrap(span, original)
            for owner, key in owners:
                self._patched.append((owner, key, original))
                setattr(owner, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def _wrap(self, span, fn):
        name_id = self._name_ids.setdefault(span, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span)
        count = COUNTERS.get(span)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self._item_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def summary(self, item_scale=None):
        """Per span name: calls, total seconds (a call nested in one of
        the same name is not counted twice) and self seconds (duration
        minus the direct child spans).  ``item_scale[k]`` multiplies the
        durations of spans recorded during the k-th item."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        if item_scale is not None:
            duration = [d * item_scale[k] for d, k in zip(duration, self.item)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        calls, total, self_s = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.span_name[i]
            calls[name] += 1
            self_s[name] += duration[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.span_name[p] != name:
                p = self.parent[p]
            if p < 0:
                total[name] += duration[i]
        return {self.names[k]: {"calls": calls[k], "s": total[k], "self_s": self_s[k]}
                for k in calls}
