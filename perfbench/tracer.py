"""Binding-aware call tracer for the octaq layer modules.

Every public function of a layer module is replaced by a wrapper that
records a span (name, start, end, parent span, item id) in memory.  The
modules import names from each other directly (``from .rationals import
factorize``), so rebinding the defining module alone would miss most
calls: ``install`` rebinds every ``octaq.*`` attribute that holds the
same function object.  It matches by identity, never by name, because
unrelated functions share names (``gl2f9.mat_mul`` and
``polynomials.mat_mul``).

The tracer only observes: it never changes arguments or results, so a
traced pass computes exactly what an untraced pass computes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from math import lcm

LAYERS = ("rationals", "hilbert", "polynomials", "roots", "quartic",
          "embedding", "qcurve", "tables", "gl2f9")

# The conjugacy scan calls the per-element GL2(F9) helpers about a million
# times each.  A span per call would cost more than the work, so mat_mul is
# only counted and the others stay unwrapped; only gl2f9 calls them, so
# their time is gl2f9 self time either way.
COUNTED_ONLY = frozenset({"gl2f9.mat_mul"})
UNWRAPPED = frozenset({"gl2f9.mat_entries", "gl2f9.scalar_mul",
                       "gl2f9.pgl_canon"})

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("rationals.self_s", "s", "lower"),
    ("rationals.factorize.calls", "count", "lower"),
    ("rationals.factorize.distinct", "count", "lower"),
    ("rationals.factorize.incomplete", "count", "lower"),
    ("rationals.factorize.max_bits", "bit", "lower"),
    ("hilbert.self_s", "s", "lower"),
    ("hilbert.brauer_class.calls", "count", "lower"),
    ("hilbert.hilbert_symbol.calls", "count", "lower"),
    ("quartic.self_s", "s", "lower"),
    ("quartic.is_irreducible_quartic.calls", "count", "lower"),
    ("quartic.is_irreducible_quartic.large_c0", "count", "lower"),
    ("quartic.trace_form.calls", "count", "lower"),
    ("quartic.is_principal.calls", "count", "lower"),
    ("quartic.principalize.calls", "count", "lower"),
    ("quartic.principalize.time_s", "s", "lower"),
    ("quartic.same_field.calls", "count", "lower"),
    ("quartic.same_field.time_s", "s", "lower"),
    ("quartic.same_field.found", "count", "higher"),
    ("roots.self_s", "s", "lower"),
    ("roots.complex_roots.calls", "count", "lower"),
    ("roots.complex_roots.digits_over_60", "count", "lower"),
    ("polynomials.self_s", "s", "lower"),
    ("polynomials.discriminant.calls", "count", "lower"),
    ("polynomials.char_poly.calls", "count", "lower"),
    ("polynomials.resultant_bivariate.time_s", "s", "lower"),
    ("embedding.self_s", "s", "lower"),
    ("embedding.classify.calls", "count", "lower"),
    ("embedding.endo_algebras.calls", "count", "lower"),
    ("qcurve.self_s", "s", "lower"),
    ("qcurve.family.calls", "count", "lower"),
    ("qcurve.family.rejected", "count", "lower"),
    ("qcurve.symbolic_suite.time_s", "s", "lower"),
    ("tables.self_s", "s", "lower"),
    ("tables.verify_table_row.calls", "count", "lower"),
    ("tables.parse_table.time_s", "s", "lower"),
    ("gl2f9.self_s", "s", "lower"),
    ("gl2f9.closure.calls", "count", "lower"),
    ("gl2f9.mat_mul.calls", "count", "lower"),
    ("gl2f9.s4_conjugacy_scan.time_s", "s", "lower"),
    ("gl2f9.verify_outer_involutions.time_s", "s", "lower"),
)

LARGE_C0 = 10**12  # is_irreducible_quartic switches to mod-p certificates here


# -- observers: per-call statistics that need arguments or results ------------


def _observe_factorize(tracer, args, kwargs, result, exc):
    n = abs(args[0])
    tracer.factorized.add(n)
    tracer.stats["rationals.factorize.max_bits"] = max(
        tracer.stats["rationals.factorize.max_bits"], n.bit_length())
    if result is not None and not result.complete:
        tracer.stats["rationals.factorize.incomplete"] += 1


def _observe_irreducible(tracer, args, kwargs, result, exc):
    coeffs = [Fraction(c) for c in args[0].coeffs]
    if len(coeffs) != 5:
        return
    # constant term of the monic integer model X -> X/e
    scale = lcm(*(c.denominator for c in coeffs))
    if abs(coeffs[0] * scale**4) >= LARGE_C0:
        tracer.stats["quartic.is_irreducible_quartic.large_c0"] += 1


def _observe_same_field(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.stats["quartic.same_field.found"] += 1


def _observe_complex_roots(tracer, args, kwargs, result, exc):
    digits = args[1] if len(args) > 1 else kwargs.get("digits")
    if digits is not None and digits > 60:
        tracer.stats["roots.complex_roots.digits_over_60"] += 1


def _observe_family(tracer, args, kwargs, result, exc):
    from octaq.errors import NotPrimitive, Reducible
    if isinstance(exc, (Reducible, NotPrimitive)):
        tracer.stats["qcurve.family.rejected"] += 1


OBSERVERS = {
    "rationals.factorize": _observe_factorize,
    "quartic.is_irreducible_quartic": _observe_irreducible,
    "quartic.same_field": _observe_same_field,
    "roots.complex_roots": _observe_complex_roots,
    "qcurve.family": _observe_family,
}


class Tracer:
    """Spans and counters for one pass; ``item`` is set by the caller
    before each item so every span of that item carries its id."""

    def __init__(self):
        self.names: list[str] = []
        # [name id, parent span index or -1, item id, start ns, end ns]
        self.spans: list[list[int]] = []
        self.stack = [-1]
        self.item = -1
        self.counted: Counter = Counter()
        self.stats: Counter = Counter()
        self.factorized: set[int] = set()

    def install(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module("octaq." + layer)
            for attr, fn in vars(module).items():
                qual = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or qual in UNWRAPPED):
                    continue
                wrap = self._counted if qual in COUNTED_ONLY else self._spanned
                wrappers[fn] = wrap(fn, qual)
        # functions compare and hash by identity, so this lookup matches
        # the very object, whatever name it is bound under
        for name, module in list(sys.modules.items()):
            if name != "octaq" and not name.startswith("octaq."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        return self

    def _counted(self, fn, qual):
        counted = self.counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counted[qual] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, fn, qual):
        name_id = len(self.names)
        self.names.append(qual)
        observe = OBSERVERS.get(qual)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, stack[-1], tracer.item, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = clock()
                stack.pop()
                if observe:
                    observe(tracer, args, kwargs, None, exc)
                raise
            span[4] = clock()
            stack.pop()
            if observe:
                observe(tracer, args, kwargs, result, None)
            return result
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value.  A layer's self time is the time of
        its spans minus the time of their child spans."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        inclusive_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for index, (name_id, _, _, start, end) in enumerate(self.spans):
            qual = self.names[name_id]
            calls[qual] += 1
            inclusive_ns[qual] += end - start
            self_ns[qual.split(".", 1)[0]] += end - start - child_ns[index]
        calls.update(self.counted)
        values = dict(self.stats)
        values["rationals.factorize.distinct"] = len(self.factorized)
        out = {}
        for name, _, _ in LAYER_METRICS:
            qual, _, stat = name.rpartition(".")
            if stat == "self_s":
                out[name] = self_ns[qual] / 1e9
            elif stat == "calls":
                out[name] = calls[qual]
            elif stat == "time_s":
                out[name] = inclusive_ns[qual] / 1e9
            else:
                out[name] = values.get(name, 0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "item", "start_ns",
                                  "end_ns"],
                       "names": self.names, "spans": self.spans,
                       "counted": dict(self.counted)}, fh)
