"""Per-layer spans recorded from outside the program.

The tracer replaces each traced function at the place its callers look it up
(every module global of the heckepoly package bound to the function, and
``ExactMatrix.__mul__`` on the class) with a wrapper that records a span.  The
program's source is not edited.  Spans stay in memory until the run ends.
"""

import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (metric prefix, module, attribute, end-to-end metrics it should move, workloads)
TARGETS = (
    ("cli.main", "cli", "main", "latency_p50_s", "highweight largeindex"),
    ("serialize.matrix_json", "serialize", "matrix_json", "latency_p50_s", "highweight largeindex"),
    ("serialize.coeffs_json", "serialize", "coeffs_json", "latency_p50_s", "highweight largeindex"),
    ("heckeop.hecke_computation", "heckeop", "hecke_computation", "- (coverage parent)", "all"),
    ("periodpoly.s_poly", "periodpoly", "s_poly", "requests_per_s", "crosscheck (reuse), not highweight"),
    ("heckesum.enumerate_H_neg", "heckesum", "enumerate_H_neg", "latency_p50_s latency_tail_s", "largeindex"),
    ("heckesum.sign_restricted_sum", "heckesum", "sign_restricted_sum", "latency_p50_s latency_tail_s", "largeindex"),
    ("heckesum.diagonal_sum", "heckesum", "diagonal_sum", "latency_p50_s latency_tail_s", "highweight"),
    ("heckesum.moebius_correction", "heckesum", "moebius_correction", "latency_p50_s latency_tail_s", "highweight"),
    ("polyring.coeff_inner_product", "polyring", "coeff_inner_product", "latency_p50_s", "highweight"),
    ("polyring.compose_linear", "polyring", "compose_linear", "latency_p50_s", "highweight"),
    ("polyring.reciprocal_scale", "polyring", "reciprocal_scale", "latency_p50_s", "highweight"),
    ("exactnum.bernoulli_number", "exactnum", "bernoulli_number", "setup_s", "all"),
    ("exactnum.bernoulli_poly0", "exactnum", "bernoulli_poly0", "setup_s", "all"),
    ("exactlinalg.mat_inverse", "exactlinalg", "mat_inverse", "latency_p50_s latency_tail_s peak_rss_mib", "highweight"),
    ("exactlinalg.matmul", "exactlinalg", "ExactMatrix.__mul__", "latency_p50_s latency_tail_s peak_rss_mib", "highweight"),
    ("exactlinalg.charpoly", "exactlinalg", "charpoly", "latency_p50_s latency_tail_s peak_rss_mib", "highweight"),
    ("exactlinalg.solve_right", "exactlinalg", "solve_right", "requests_per_s", "crosscheck"),
    ("exactlinalg.rank", "exactlinalg", "rank", "latency_p50_s", "highweight"),
    ("qoracle.cusp_basis_gamma02", "qoracle", "cusp_basis_gamma02", "requests_per_s", "crosscheck"),
    ("qoracle.eta_quotient", "qoracle", "eta_quotient", "requests_per_s", "crosscheck"),
    ("qoracle.eisenstein_level1", "qoracle", "eisenstein_level1", "requests_per_s", "crosscheck"),
    ("qoracle.hecke_on_qseries", "qoracle", "hecke_on_qseries", "requests_per_s", "crosscheck"),
    ("qoracle.hecke_matrix_oracle", "qoracle", "hecke_matrix_oracle", "- (coverage parent)", "crosscheck"),
)

# Their self time is glue between layers, so it counts as unattributed.
COVERAGE_PARENTS = frozenset(("heckeop.hecke_computation", "qoracle.hecke_matrix_oracle"))
COVERAGE_FLOOR = 0.9
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name, *_ in TARGETS))

# (metric, unit, better); counted by the AFTER hooks below or by summary()
COUNTS = (
    ("heckeop.dim_sum", "count", "lower"),  # sum of d over the Hecke matrices computed
    ("periodpoly.s_poly.calls_per_level_w", "count", "lower"),  # s_poly calls per distinct (level, w)
    ("heckesum.h_neg_size", "count", "lower"),  # sum of |H_neg| over the enumerations
    ("exactlinalg.s1_bits_max", "bits", "lower"),  # largest numerator or denominator bit length in S1
    ("exactlinalg.s2_bits_max", "bits", "lower"),  # ... in S2
    ("exactlinalg.t_bits_max", "bits", "lower"),  # ... in T
    ("qoracle.prec_sum", "count", "lower"),  # sum of the q-series precisions of the oracle calls
    ("trace.coverage", "frac", "higher"),  # share of request wall time inside named layer spans
    ("trace.coverage_min", "frac", "higher"),  # the lowest per-request coverage
    ("trace.overhead_frac", "frac", "lower"),  # traced / untraced wall time of the same requests - 1
    ("trace.wall_s", "s", "lower"),  # traced request wall time, the denominator of every self_frac
)


def per_layer_catalogue():
    """Every per-layer metric as (name, unit, better)."""
    rows = []
    for name, *_ in TARGETS:
        rows.append((name + ".calls", "count", "lower"))
        rows.append((name + ".self_frac", "frac", "lower"))
    rows += [("layer.%s.self_frac" % layer, "frac", "lower") for layer in LAYERS]
    rows += COUNTS
    return rows


def _bits(mat):
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for row in mat.entries for x in row), default=0)


def _after_hecke_computation(tracer, args, comp):
    tracer.counts["heckeop.dim_sum"] += comp.t.rows
    for name, mat in (("s1", comp.s1), ("s2", comp.s2), ("t", comp.t)):
        key = "exactlinalg.%s_bits_max" % name
        tracer.counts[key] = max(tracer.counts[key], _bits(mat))


def _after_s_poly(tracer, args, result):
    ctx = args[0]
    tracer.level_w.add((ctx.level, ctx.w))


def _after_enumerate(tracer, args, result):
    tracer.counts["heckesum.h_neg_size"] += len(result)


def _after_cusp_basis(tracer, args, result):
    tracer.counts["qoracle.prec_sum"] += args[1]


AFTER = {
    "heckeop.hecke_computation": _after_hecke_computation,
    "periodpoly.s_poly": _after_s_poly,
    "heckesum.enumerate_H_neg": _after_enumerate,
    "qoracle.cusp_basis_gamma02": _after_cusp_basis,
}


class Tracer:
    """Spans as [name, start, end, parent index, request id], in call order."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.counts = Counter()
        self.level_w = set()
        self.missing = []

    def _wrap(self, name, fn):
        spans, stack, after = self.spans, self.stack, AFTER.get(name)

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target; a target the program no longer has is recorded as missing."""
        owners = {}
        for _, module, _, _, _ in TARGETS:
            try:
                owners[module] = importlib.import_module("heckepoly." + module)
            except ImportError:
                owners[module] = None
        modules = [m for n, m in list(sys.modules.items()) if n == "heckepoly" or n.startswith("heckepoly.")]
        for name, module, attr, _, _ in TARGETS:
            owner = owners[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(name)
                    continue
                setattr(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    @contextmanager
    def request_span(self, request_id):
        """One request; its root span carries the name 'request'."""
        record = ["request", 0.0, 0.0, -1, request_id]
        self.request = request_id
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self.stack.pop()
            self.request = None

    def summary(self):
        """Per-layer metrics computed from the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_time = Counter(), defaultdict(float)
        walls, unattributed = defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent, request) in enumerate(self.spans):
            own = end - start - child_time[i]
            if name == "request":
                walls[request] += end - start
                unattributed[request] += own
                continue
            calls[name] += 1
            self_time[name] += own
            if name in COVERAGE_PARENTS:
                unattributed[request] += own
        wall = sum(walls.values())
        metrics = {}
        for name, *_ in TARGETS:
            metrics[name + ".calls"] = calls[name]
            metrics[name + ".self_frac"] = self_time[name] / wall
        for layer in LAYERS:
            metrics["layer.%s.self_frac" % layer] = sum(
                self_time[name] / wall for name, *_ in TARGETS if name.split(".")[0] == layer
            )
        hooked = ("heckeop.dim_sum", "heckesum.h_neg_size", "qoracle.prec_sum")
        hooked += tuple("exactlinalg.%s_bits_max" % m for m in ("s1", "s2", "t"))
        for name in hooked:
            metrics[name] = self.counts[name]
        metrics["periodpoly.s_poly.calls_per_level_w"] = calls["periodpoly.s_poly"] / max(len(self.level_w), 1)
        metrics["trace.coverage"] = 1 - sum(unattributed.values()) / wall
        metrics["trace.coverage_min"] = min(1 - unattributed[r] / walls[r] for r in walls)
        metrics["trace.wall_s"] = wall
        return metrics

    def write(self, path):
        """All spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

