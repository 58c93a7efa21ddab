"""Spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: around
the public functions the workloads call, and around the names a fracsum
module imports from the module below it (for example the rule constructor as
fracsum.kernel sees it, or compress as fracsum.solver sees it), by replacing
those module attributes with recording wrappers.  The wrapped modules look
the names up at call time, so the library itself is unchanged.  Problem
callbacks are counted and timed without spans, because a solve calls them
thousands of times.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace

LAYERS = ("quadrature", "kernel", "solver", "oracle", "specialfn", "problems")


class Tracer:
    """Keeps spans in memory: (id, parent, name, start, end, request, callback_s).

    callback_s is the time problem callbacks spent directly inside the span;
    it belongs to the problems layer, not to the span's own.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self.request = None
        self._stack: list[list] = []
        self._next_id = 0

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, perf_counter(), 0.0])
        self._next_id += 1

    def close(self, name: str | None = None) -> None:
        sid, parent, opened, start, callback_s = self._stack.pop()
        self.spans.append((sid, parent, name or opened, start, perf_counter(),
                           self.request, callback_s))

    def record(self, name: str, start: float, end: float) -> None:
        """A finished root span, such as a correctness check."""
        self.spans.append((self._next_id, None, name, start, end, self.request, 0.0))
        self._next_id += 1

    def wrap(self, name: str, fn, observe=None):
        """fn inside a span; observe(counts, args, result) adds counts."""
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if observe is not None:
                observe(self.counts, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        """fn with its calls counted, no span."""
        def counted(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def callback(self, name: str, fn):
        """A problem callback: counted, timed, and its time charged to the
        problems layer instead of the enclosing span."""
        if fn is None:
            return None

        def timed(*args):
            if not self.enabled:
                return fn(*args)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                self.counts[name] += 1
                if self._stack:
                    self._stack[-1][4] += elapsed
        return timed

    def rule(self, fn):
        """The cached rule constructor: each call is a lookup or a build,
        told apart by the cache's own miss count."""
        info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            misses = info().misses if info else None
            self.open("quadrature.rule_lookup")
            built = False
            try:
                result = fn(*args, **kwargs)
                built = info is None or info().misses > misses
            finally:
                self.close("quadrature.rule_build" if built else None)
            self.counts["quadrature.rule_requests"] += 1
            self.counts["quadrature.rules_built"] += built
            return result
        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as out:
            for sid, parent, name, start, end, request, callback_s in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start - t0, "end": end - t0,
                    "request": request, "callback_s": callback_s,
                }) + "\n")


def _observe_solver_kernel(counts, args, result):
    counts["kernel.terms_built"] += result.terms
    counts["solver.aux_terms"] += result.terms


def _observe_terms(counts, args, result):
    counts["kernel.terms_built"] += result.terms


def _observe_scan(counts, args, result):
    n = len(result[1])
    counts["kernel.scan_points"] += n
    counts["kernel.scan_point_terms"] += n * args[0].terms


def _observe_solve(counts, args, result):
    counts["solver.steps"] += len(result.times) - 1
    counts["solver.newton_iters"] += int(result.newton_iterations.sum())


def _observe_ml(counts, args, result):
    counts["specialfn.ml_points"] += int(getattr(result, "size", 1))


def public_api(fracsum, tracer: Tracer | None):
    """The library functions the workloads call, wrapped when tracing."""
    names = {
        "select_parameters": ("kernel.select_parameters", None),
        "compress": ("kernel.compress", _observe_terms),
        "estimate_error": ("kernel.estimate_error", None),
        "relative_error_scan": ("kernel.relative_error_scan", _observe_scan),
        "solve": ("solver.solve", _observe_solve),
        "mlf_exact_solution": ("oracle.mlf_exact_solution", None),
    }
    api = {}
    for attr, (span, observe) in names.items():
        fn = getattr(fracsum, attr)
        api[attr] = fn if tracer is None else tracer.wrap(span, fn, observe)
    return SimpleNamespace(**api)


def install(tracer: Tracer) -> None:
    """Wrap the names each fracsum module imports from the one below it.

    Names a module no longer has are skipped, so their metrics read zero.
    """
    from fracsum import kernel, oracle, solver, specialfn

    wrappers = [
        (kernel, "_rule_extended", tracer.rule),
        (kernel, "regularized_upper_gamma",
         lambda fn: tracer.count("specialfn.gamma_calls", fn)),
        (oracle, "log_gamma", lambda fn: tracer.count("specialfn.gamma_calls", fn)),
        (solver, "select_parameters",
         lambda fn: tracer.wrap("kernel.select_parameters", fn)),
        (solver, "compress",
         lambda fn: tracer.wrap("kernel.compress", fn, _observe_solver_kernel)),
        (oracle, "mittag_leffler",
         lambda fn: tracer.wrap("specialfn.mittag_leffler", fn, _observe_ml)),
        (specialfn, "_mpmath_point",
         lambda fn: tracer.wrap("specialfn.ml_fallback", fn)),
    ]
    for module, name, make in wrappers:
        original = getattr(module, name, None)
        if original is not None:
            setattr(module, name, make(original))


def trace_problem(tracer: Tracer, problem):
    """The problem with its rhs and Jacobian counted and timed."""
    return dataclasses.replace(
        problem,
        rhs=tracer.callback("solver.rhs_calls", problem.rhs),
        jacobian=tracer.callback("solver.jacobian_calls", problem.jacobian),
    )


def summarize(tracer: Tracer, n_requests: int) -> dict[str, float]:
    """Per-request layer metrics: self times (span minus child spans minus
    callbacks), inclusive times where named, counts and ratios."""
    child_s: dict = defaultdict(float)
    by_id = {}
    for span in tracer.spans:
        sid, parent, name, start, end, _, _ = span
        by_id[sid] = span
        if parent is not None:
            child_s[parent] += end - start
    spans_named: Counter = Counter()
    self_s: dict = defaultdict(float)
    total_s: dict = defaultdict(float)
    layer_self: dict = defaultdict(float)
    kernel_setup_s = 0.0
    callback_s = 0.0
    for sid, parent, name, start, end, _, cb in tracer.spans:
        own = (end - start) - child_s[sid] - cb
        spans_named[name] += 1
        self_s[name] += own
        total_s[name] += end - start
        callback_s += cb
        layer_self[name.split(".")[0]] += own
        if (name.startswith("kernel.") and parent is not None
                and by_id[parent][2] == "solver.solve"):
            kernel_setup_s += end - start
    layer_self["problems"] += callback_s

    n = max(n_requests, 1)
    c = tracer.counts

    def per_req(x):
        return x / n

    def ms(x):
        return 1e3 * x / n

    def ratio(num, base):
        return num / base if base else 0.0

    rule_requests = c["quadrature.rule_requests"]
    steps = c["solver.steps"]
    metrics = {
        "quadrature.rule_requests": (per_req(rule_requests), "count"),
        "quadrature.rules_built": (per_req(c["quadrature.rules_built"]), "count"),
        "quadrature.rule_cache_hit_ratio": (
            ratio(rule_requests - c["quadrature.rules_built"], rule_requests), "ratio"),
        "quadrature.rule_build_ms": (ms(total_s["quadrature.rule_build"]), "ms"),
        "kernel.select_parameters_ms": (ms(self_s["kernel.select_parameters"]), "ms"),
        "kernel.compress_ms": (ms(self_s["kernel.compress"]), "ms"),
        "kernel.terms_built": (per_req(c["kernel.terms_built"]), "count"),
        "kernel.estimate_error_ms": (ms(self_s["kernel.estimate_error"]), "ms"),
        "kernel.scan_ms": (ms(self_s["kernel.relative_error_scan"]), "ms"),
        "kernel.scan_points": (per_req(c["kernel.scan_points"]), "count"),
        "kernel.scan_ns_per_point_term": (
            1e9 * ratio(self_s["kernel.relative_error_scan"],
                        c["kernel.scan_point_terms"]), "ns"),
        "solver.solve_ms": (ms(self_s["solver.solve"]), "ms"),
        "solver.kernel_setup_ms": (ms(kernel_setup_s), "ms"),
        "solver.steps": (per_req(steps), "count"),
        "solver.step_us": (1e6 * ratio(self_s["solver.solve"], steps), "us"),
        "solver.newton_iters": (per_req(c["solver.newton_iters"]), "count"),
        "solver.rhs_calls": (per_req(c["solver.rhs_calls"]), "count"),
        "solver.jacobian_calls": (per_req(c["solver.jacobian_calls"]), "count"),
        "solver.callback_ms": (ms(callback_s), "ms"),
        "solver.aux_terms": (per_req(c["solver.aux_terms"]), "count"),
        "oracle.mlf_exact_ms": (ms(self_s["oracle.mlf_exact_solution"]), "ms"),
        "specialfn.mittag_leffler_ms": (ms(self_s["specialfn.mittag_leffler"]), "ms"),
        "specialfn.ml_points": (per_req(c["specialfn.ml_points"]), "count"),
        "specialfn.ml_fallback_points": (per_req(spans_named["specialfn.ml_fallback"]), "count"),
        "specialfn.ml_fallback_ratio": (
            ratio(spans_named["specialfn.ml_fallback"], c["specialfn.ml_points"]), "ratio"),
        "specialfn.ml_fallback_ms": (ms(total_s["specialfn.ml_fallback"]), "ms"),
        "specialfn.gamma_calls": (per_req(c["specialfn.gamma_calls"]), "count"),
        "bench.check_ms": (ms(total_s["bench.check"]), "ms"),
        "bench.request_ms": (ms(total_s["bench.request"]), "ms"),
        "bench.glue_ms": (ms(self_s["bench.request"]), "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (ms(layer_self[layer]), "ms")
    return metrics
