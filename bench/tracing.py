"""Per-module tracing from outside the program.

``Tracer.install`` replaces the public functions at each module boundary
with timing wrappers: the module attribute, and the same object wherever a
cfx module imported it with ``from ... import``.  Each wrapper records a span
[name, layer, start_ns, end_ns, parent span, operation id, note] in memory;
the spans are written out when the run ends.  A few functions called many
thousands of times are only counted.  ``layer_metrics`` turns spans into
the per-module metrics: a layer's self time is the time its outermost spans
cover minus the time covered by nested spans of other layers.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time

# (layer, module, attribute) of every span-recording wrapper.
SPAN_TARGETS = [
    ("cli", "cfx.cli", "main"),
    ("context", "cfx.cumulants", "model_lnF"),
    ("context", "cfx.cumulants", "model_studentized_mean"),
    ("context", "cfx.cumulants", "model_sample_variance"),
    ("context", "cfx.cumulants", "model_gamma"),
    ("context", "cfx.cumulants", "model_from_config"),
    ("context", "cfx.engine", "ExpansionContext.raw"),
    ("context", "cfx.engine", "ExpansionContext.matched_gamma"),
    ("symbolic", "cfx.engine", "h_formal"),
    ("symbolic", "cfx.engine", "fg_formal"),
    ("symbolic", "cfx.engine", "coefficient_table"),
    ("standardize", "cfx.engine", "e_r_standardized"),
    ("standardize", "cfx.engine", "_density_e"),
    ("numeric", "cfx.hbasis", "hp_eval"),
    ("numeric", "cfx.basedist", "NormalBase.h_seq"),
    ("numeric", "cfx.basedist", "GammaBase.h_seq"),
    ("numeric", "cfx.basedist", "AffineBase.h_seq"),
    ("inverse", "cfx.basedist", "NormalBase.inv_cdf"),
    ("inverse", "cfx.basedist", "GammaBase.inv_cdf"),
    ("inverse", "cfx.basedist", "AffineBase.inv_cdf"),
    ("inverse", "cfx.basedist", "inv_reg_inc_gamma"),
    ("exact", "cfx.oracle", "exact_lnF_quantile"),
    ("reversion", "cfx.oracle", "reversion_fg"),
    ("mc", "cfx.oracle", "mc_cdf"),
]
# Counted, not timed: one counter per (attribute, innermost open span).
COUNT_TARGETS = [
    ("cfx.hbasis", "hp_diff"),
    ("cfx.basedist", "reg_inc_gamma"),
]

SETUP_OP = -1


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = SETUP_OP
        self._stack = []
        self._patches = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, layer, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, 0, 0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
                if layer == "mc":
                    # replications asked for, and the process RSS high-water
                    # once the call is over
                    reps = kwargs.get("N", args[3] if len(args) > 3 else 0)
                    span[6] = [reps, _rss_mb()]
        return wrapper

    def _count_wrapper(self, name, fn):
        counts, spans, stack = self.counts, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, spans[stack[-1]][0] if stack else "", self.op)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        for layer, module, attr in SPAN_TARGETS:
            name = f"{module[4:]}.{attr}"
            self._patch(module, attr,
                        lambda fn, n=name, l=layer: self._span_wrapper(n, l, fn))
        for module, attr in COUNT_TARGETS:
            name = f"{module[4:]}.{attr}"
            self._patch(module, attr,
                        lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module, attr, make):
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            static = inspect.getattr_static(cls, meth)
            if isinstance(static, classmethod):
                replacement = classmethod(make(static.__func__))
            else:
                replacement = make(static)
            self._patches.append((cls, meth, static))
            setattr(cls, meth, replacement)
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        # the defining module, and every cfx module that imported the name
        for other_name, other in list(sys.modules.items()):
            if other_name.split(".")[0] != "cfx" or other is None:
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, key, original))
                    setattr(other, key, wrapper)

    def dump(self):
        """The spans and counters as plain JSON-ready data."""
        return {"spans": self.spans,
                "counts": [[k[0], k[1], k[2], v] for k, v in self.counts.items()]}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def self_times(spans):
    """{(layer, op): self seconds} and {(layer, op): outermost spans}."""
    n = len(spans)
    other = [0] * n    # ns covered by nested spans of other layers
    for i in range(n - 1, -1, -1):
        parent = spans[i][4]
        if parent < 0:
            continue
        if spans[parent][1] == spans[i][1]:
            other[parent] += other[i]
        else:
            other[parent] += spans[i][3] - spans[i][2]
    self_s, roots = {}, {}
    for i, (_, layer, t0, t1, parent, op, _) in enumerate(spans):
        if parent >= 0 and spans[parent][1] == layer:
            continue
        key = (layer, op)
        self_s[key] = self_s.get(key, 0.0) + (t1 - t0 - other[i]) / 1e9
        roots[key] = roots.get(key, 0) + 1
    return self_s, roots


def layer_metrics(spans, counts, traced_ops, traced_passes, import_ms,
                  n_table_terms, overhead_pct):
    """The per-module metrics of one traced run.

    ``traced_ops`` are the operation ids of the traced passes; set-up spans
    carry ``SETUP_OP``.  Figures per operation or per pass are over the
    traced passes; a layer a workload never enters reads 0."""
    ops = set(traced_ops)
    n_ops = max(len(traced_ops), 1)
    passes = max(traced_passes, 1)
    self_s, roots = self_times(spans)

    def loop_s(layer):
        return sum(v for (l, op), v in self_s.items() if l == layer and op in ops)

    def loop_calls(layer, name=None):
        return sum(1 for s in spans if s[1] == layer and s[5] in ops
                   and (name is None or s[0] == name))

    def loop_count(name, inside=None):
        return sum(v for attr, parent, op, v in counts
                   if attr == name and op in ops
                   and (inside is None or parent == inside))

    def per_call(layer):
        calls = sum(v for (l, op), v in roots.items() if l == layer and op in ops)
        return loop_s(layer) * 1e3 / calls if calls else 0.0

    inverse_calls = loop_calls("inverse", "basedist.inv_reg_inc_gamma")
    mc = [s for s in spans if s[1] == "mc" and s[5] in ops]
    mc_s = sum((s[3] - s[2]) / 1e9 for s in mc)
    return {
        "cli.import_ms": (import_ms, "ms"),
        "cli.self_ms": (loop_s("cli") * 1e3 / n_ops, "ms/op"),
        "cumulants.context_ms": (loop_s("context") * 1e3 / n_ops, "ms/op"),
        "symbolic.build_s": (loop_s("symbolic") / passes, "s/pass"),
        "symbolic.hp_diff_calls": (loop_count("hbasis.hp_diff") / passes,
                                   "count/pass"),
        "symbolic.table_terms": (n_table_terms, "count"),
        "setup.context_ms": (self_s.get(("context", SETUP_OP), 0.0) * 1e3, "ms"),
        "setup.symbolic_build_s": (self_s.get(("symbolic", SETUP_OP), 0.0), "s"),
        "engine.standardize_calls": (loop_calls("standardize") / n_ops,
                                     "count/op"),
        "engine.standardize_ms": (loop_s("standardize") * 1e3 / n_ops, "ms/op"),
        "numeric.eval_ms": (loop_s("numeric") * 1e3 / n_ops, "ms/op"),
        "basedist.inverse_ms": (per_call("inverse"), "ms/call"),
        "basedist.cdf_evals_per_inverse": (
            loop_count("basedist.reg_inc_gamma", "basedist.inv_reg_inc_gamma")
            / inverse_calls if inverse_calls else 0.0, "count"),
        "oracle.exact_ms": (per_call("exact"), "ms/call"),
        "oracle.reversion_s": (loop_s("reversion") / passes, "s/pass"),
        "oracle.mc_replications_per_s": (
            sum(s[6][0] for s in mc) / mc_s if mc_s else 0.0, "1/s"),
        "oracle.mc_peak_rss_mb": (max((s[6][1] for s in mc), default=0.0), "MB"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def table_terms(order=8):
    """H-terms in the h, f and g tables through ``order``, read through
    ``engine.coefficient_table``."""
    from cfx import engine
    return sum(len(val.terms) for kind in ("h", "f", "g")
               for r in range(1, order + 1)
               for _, val in engine.coefficient_table(kind, r))
