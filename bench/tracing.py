"""Per-layer tracing from outside the program.

The tracer wraps public functions of each troplift module.  A wrapper is
installed on every name that refers to the function, in every troplift
module and in workloads.py, so that `troplift.lifting.dimension` is wrapped
as well as `troplift.ideals.dimension`; methods are wrapped on their class,
together with aliases such as `__rmul__ = __mul__`.

Two kinds of pass use it:
* a span pass records (name, start, end, parent span, operation) for the
  functions in SPANS; self time is a span's duration minus that of the
  spans directly inside it;
* a count-only pass counts the very hot calls in COUNTS, and the standard
  basis bookkeeping, so that their wrapping cost stays out of span timings.
Spans are kept in memory and written out by the caller at the end.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, metric prefix): functions timed in the span pass
SPANS = [
    ("troplift.tropical", "trop_member", "tropical.trop_member"),
    ("troplift.tropical", "trop_enumerate", "tropical.trop_enumerate"),
    ("troplift.tropical", "trop_hypersurface", "tropical.trop_hypersurface"),
    ("troplift.valfan", "initial_ideal", "valfan.initial_ideal"),
    ("troplift.valfan", "groebner_cone", "valfan.groebner_cone"),
    ("troplift.ideals", "_mora_std", "ideals.std_basis.local"),
    ("troplift.ideals", "_buchberger", "ideals.std_basis.global"),
    ("troplift.ideals", "normal_form", "ideals.normal_form"),
    ("troplift.ideals", "saturate", "ideals.saturate"),
    ("troplift.ideals", "eliminate", "ideals.eliminate"),
    ("troplift.ideals", "ideal_quotient", "ideals.ideal_quotient"),
    ("troplift.ideals", "ideals_equal", "ideals.ideals_equal"),
    ("troplift.ideals", "contains_monomial", "ideals.contains_monomial"),
    ("troplift.ideals", "dimension", "ideals.dimension"),
    ("troplift.ideals", "torus_point", "ideals.torus_point"),
    ("troplift.polyring", "initial_form", "polyring.initial_form"),
    ("troplift.scalars", "factor_univariate", "scalars.factor_univariate"),
    ("troplift.scalars", "roots_in_extension", "scalars.roots_in_extension"),
    ("troplift.scalars", "adjoin_root", "scalars.adjoin_root"),
    ("troplift.series", "substitute", "series.substitute"),
    ("troplift.series", "poly_to_series_coeffs", "series.poly_to_series_coeffs"),
    ("troplift.lifting", "lift_point", "lifting.lift_point"),
    ("troplift.lifting", "descend", "lifting.descend"),
    ("troplift.lifting", "newton_puiseux", "lifting.newton_puiseux"),
    ("troplift.lifting", "verify_lift", "lifting.verify_lift"),
    ("troplift.linalg", "find_strict_point", "linalg.find_strict_point"),
    ("troplift.parsing", "parse_poly", "parsing.parse_poly"),
]

# (module, Class.method, counter): very hot calls, counted only
COUNTS = [
    ("troplift.polyring", "OrderDescriptor.key", "polyring.order_key.calls"),
    ("troplift.polyring", "Polynomial.__mul__", "polyring.poly_mul.calls"),
    ("troplift.scalars", "ValueScalar.__init__", "scalars.value_scalar.created"),
    ("troplift.scalars", "AlgebraicNumber.__mul__", "scalars.algebraic_mul.calls"),
    ("troplift.series", "ValuedSeries.__mul__", "series.mul.calls"),
]

_CALLER_MODULES = ("troplift", "workloads")


class Patches:
    """Replaces functions and methods; restore() undoes every replacement."""

    def __init__(self):
        self._undo = []

    def function(self, module, attr, make):
        orig = getattr(sys.modules[module], attr)
        wrapper = make(orig)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name.split(".")[0] not in _CALLER_MODULES:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def method(self, module, dotted, make):
        cls_name, meth = dotted.split(".")
        cls = getattr(sys.modules[module], cls_name)
        orig = cls.__dict__[meth]
        wrapper = make(orig)
        for key, value in list(vars(cls).items()):
            if value is orig:
                setattr(cls, key, wrapper)
                self._undo.append((cls, key, orig))

    def restore(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)


class Tracer:
    """Holds the spans of a span pass and the counters of a count pass.
    `op` is the index of the running operation; spans of one operation
    share it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._seen = set()
        self._patches = Patches()

    # -- span pass

    def install_spans(self):
        for module, attr, name in SPANS:
            self._patches.function(module, attr, lambda fn, name=name: self._span(name, fn))

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    def span_totals(self):
        """{name: (calls, self seconds)} over the recorded spans."""
        child = Counter()
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child[idx])
        return out

    # -- count pass

    def install_counts(self):
        counts = self.counts
        for module, dotted, name in COUNTS:
            self._patches.method(module, dotted, lambda fn, name=name: _counting(counts, name, fn))
        self._patches.method("troplift.ideals", "IdealPresentation.standard_basis",
                             self._memo_probe)
        self._patches.function("troplift.ideals", "_mora_std", self._basis_probe)
        self._patches.function("troplift.ideals", "_buchberger", self._basis_probe)
        self._patches.method("troplift.scalars", "NumberField.adjoin", self._height_probe)

    def begin_op(self, index):
        self.op = index
        self._seen.clear()

    def _memo_probe(self, fn):
        counts = self.counts

        def standard_basis(presentation):
            if presentation._basis is not None:
                counts["ideals.std_basis.memo_hits"] += 1
            return fn(presentation)

        return standard_basis

    def _basis_probe(self, fn):
        counts, seen = self.counts, self._seen

        def compute(gens, order):
            gens = list(gens)
            key = (
                gens[0].ring.vars if gens else (),
                order.mode,
                order.weights,
                tuple(tuple(sorted(g.coeffs.items(), key=lambda t: t[0])) for g in gens),
            )
            if key in seen:
                counts["ideals.std_basis.repeats"] += 1
            seen.add(key)
            basis, reductions, reduced = fn(gens, order)
            counts["ideals.std_basis.spair_reductions"] += reductions
            if not reduced:
                counts["ideals.std_basis.unreduced"] += 1
            return basis, reductions, reduced

        return compute

    def _height_probe(self, fn):
        counts = self.counts

        def adjoin(field, *args, **kwargs):
            out = fn(field, *args, **kwargs)
            counts["scalars.field_height.max"] = max(
                counts["scalars.field_height.max"], field.height()
            )
            return out

        return adjoin

    def uninstall(self):
        self._patches.restore()


def _counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper
