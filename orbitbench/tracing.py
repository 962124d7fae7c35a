"""Spans around the public calls of each orbitforge layer, recorded from outside.

`install(tracer)` replaces the public functions of `field`, `semilinear`,
`action`, `constructions`, `permutation`, `search` and `specfile` with
wrappers that record one span per call.  Every module-level name that still
points at an original function is rebound, so calls between modules (for
example `constructions.wolf_family` -> `action.enumerate_orbits`) are traced
too.  Nothing under `src/` changes.

A span is (request id, name, parent, start, end).  Spans live in memory and
are written out once, by `Tracer.dump`, when the run ends.  A layer's self
time is its spans' durations minus the parts covered by their child spans;
the benchmark's own request span is the root, so the self times of one
request add up to its traced duration exactly.
"""

import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

ROOT = "bench.request"

# (name, unit, better): every per-layer metric a traced run reports
_SPANNED = ("action.enumerate_orbits", "action.closure", "semilinear.subgroup_closure",
            "action.is_irreducible", "semilinear.regular_orbit_criterion",
            "semilinear.covering_prime_witness", "constructions.build_wreath",
            "constructions.wolf_family", "field.make_field", "field.element_ops")
LAYER_METRICS = (
    [(f"{name}.calls", "count", "lower") for name in _SPANNED]
    + [(f"{name}.self_s", "s", "lower") for name in _SPANNED]
    + [("action.enumerate_orbits.points", "count", "lower"),
       ("action.enumerate_orbits.orbits", "count", "lower"),
       ("action.closure.elements", "count", "lower"),
       ("semilinear.subgroup_closure.elements", "count", "lower"),
       ("action.perm_array.calls_per_sweep", "ratio", "lower"),
       ("action.is_irreducible.calls_per_record", "ratio", "lower"),
       ("action.orbit_implication_report.self_s", "s", "lower"),
       ("field.make_field.builds", "count", "lower"),
       ("field.make_field.build_s", "s", "lower"),
       ("field.make_field.hit_ratio", "ratio", "higher"),
       ("field.tracemalloc_peak_mib", "MiB", "lower"),
       ("permutation.self_s", "s", "lower"),
       ("search.requests", "count", "lower"),
       ("search.attempts", "count", "lower"),
       ("search.kept", "count", "higher"),
       ("search.cap_skips", "count", "lower"),
       ("search.accept_ratio", "ratio", "higher"),
       ("search.self_s", "s", "lower"),
       ("specfile.instance_from_spec.self_s", "s", "lower"),
       ("specfile.instance_to_spec.self_s", "s", "lower"),
       ("bench.self_s", "s", "lower"),
       ("trace.requests", "count", "higher"),
       ("trace.untraced_requests_per_s", "1/s", "higher"),
       ("trace.traced_requests_per_s", "1/s", "higher"),
       ("trace.overhead_frac", "ratio", "lower"),
       ("trace.self_time_coverage", "ratio", "higher")]
    + [(f"action.perm_array.{b}.{part}", unit, "lower")
       for b in ("SemilinearAction", "MatrixAction", "WreathAction")
       for part, unit in (("calls", "count"), ("points", "count"), ("self_s", "s"))]
)

# span name -> layer prefix of the per-layer metrics
FUNCTION_SPANS = {
    ("field", "make_field"): "field.make_field",
    ("semilinear", "subgroup_closure"): "semilinear.subgroup_closure",
    ("semilinear", "regular_orbit_criterion"): "semilinear.regular_orbit_criterion",
    ("semilinear", "covering_prime_witness"): "semilinear.covering_prime_witness",
    ("action", "closure"): "action.closure",
    ("action", "enumerate_orbits"): "action.enumerate_orbits",
    ("action", "is_irreducible"): "action.is_irreducible",
    ("action", "orbit_implication_report"): "action.orbit_implication_report",
    ("constructions", "build_wreath"): "constructions.build_wreath",
    ("constructions", "wolf_family"): "constructions.wolf_family",
    ("search", "iter_search"): "search",
    ("specfile", "instance_from_spec"): "specfile.instance_from_spec",
    ("specfile", "instance_to_spec"): "specfile.instance_to_spec",
}
BACKENDS = ("SemilinearAction", "MatrixAction", "WreathAction")


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans = []          # [request id, name, parent index, start, end]
        self.stack = []
        self.request_id = None
        self.counts = defaultdict(float)
        self.field_keys = set()
        self.build_spans = []

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.request_id, name, parent, time.perf_counter(), None])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][4] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: closed {index}, top was {popped}")

    def wrap(self, name, fn, after=None):
        """Record a span per call; `after(result, args, span index)` updates counters."""
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                index = self._open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(index)
            return traced_gen

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result, args, index)
            return result
        return traced

    def count(self, key, amount=1):
        if self.request_id is not None:
            self.counts[key] += amount

    # -- aggregation --

    def request_spans(self):
        return [s for s in self.spans if s[0] is not None]

    def self_times(self, scale=None):
        """(per-layer self seconds, per-request (self sum, root duration)).

        With scale (request id -> factor) every span of a request is scaled.
        """
        child_time = defaultdict(float)
        for rid, name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        by_layer = defaultdict(float)
        by_request = defaultdict(lambda: [0.0, 0.0])
        for index, (rid, name, parent, start, end) in enumerate(self.spans):
            if rid is None:
                continue
            factor = scale.get(rid, 1.0) if scale else 1.0
            own = ((end - start) - child_time[index]) * factor
            by_layer[layer_of(name)] += own
            by_request[rid][0] += own
            if parent is None:
                by_request[rid][1] += (end - start) * factor
        return by_layer, by_request

    def calls(self):
        out = defaultdict(int)
        for s in self.request_spans():
            out[s[1]] += 1
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for rid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"request": rid, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def layer_metrics(tracer, scale):
    """Per-layer metrics of the traced requests (the trace.* rates come from run.py).

    Times are scaled per request by scale (request id -> factor), like the
    end-to-end latencies.
    """
    by_layer, by_request = tracer.self_times(scale)
    calls = tracer.calls()
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in _SPANNED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = by_layer[name]
    for key in ("action.enumerate_orbits.points", "action.enumerate_orbits.orbits",
                "action.closure.elements", "semilinear.subgroup_closure.elements",
                "field.make_field.builds", "search.attempts", "search.kept", "search.cap_skips"):
        out[key] = counts[key]
    perm_calls = 0
    for backend in BACKENDS:
        name = f"action.perm_array.{backend}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.points"] = counts[f"{name}.points"]
        out[f"{name}.self_s"] = by_layer[name]
        perm_calls += calls[name]
    out["action.perm_array.calls_per_sweep"] = ratio(perm_calls, calls["action.enumerate_orbits"])
    out["action.is_irreducible.calls_per_record"] = ratio(calls["action.is_irreducible"],
                                                          counts["search.kept"])
    out["action.orbit_implication_report.self_s"] = by_layer["action.orbit_implication_report"]
    out["field.make_field.build_s"] = sum(
        (tracer.spans[i][4] - tracer.spans[i][3]) * scale.get(tracer.spans[i][0], 1.0)
        for i in tracer.build_spans)
    out["field.make_field.hit_ratio"] = ratio(
        calls["field.make_field"] - counts["field.make_field.builds"], calls["field.make_field"])
    out["permutation.self_s"] = by_layer["permutation"]
    out["search.requests"] = calls["search"]
    out["search.accept_ratio"] = ratio(counts["search.kept"], counts["search.attempts"])
    out["search.self_s"] = by_layer["search"]
    out["specfile.instance_from_spec.self_s"] = by_layer["specfile.instance_from_spec"]
    out["specfile.instance_to_spec.self_s"] = by_layer["specfile.instance_to_spec"]
    out["bench.self_s"] = by_layer[ROOT]
    out["trace.requests"] = len(by_request)
    out["trace.self_time_coverage"] = ratio(sum(v[0] for v in by_request.values()),
                                            sum(v[1] for v in by_request.values()))
    return out


def self_time_gaps(tracer):
    """Requests whose layer self times do not add up to the request's duration."""
    _, by_request = tracer.self_times()
    return [rid for rid, (own, total) in sorted(by_request.items())
            if abs(own - total) > 1e-9 + 1e-9 * total]


def layer_of(name):
    """Layer whose self time a span counts toward."""
    if name.startswith("permutation."):
        return "permutation"
    return name


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "orbitforge" or n.startswith("orbitforge.")) and m is not None]


def _rebind(original, replacement):
    """Point every orbitforge module-level reference to original at replacement."""
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap the public layer functions of orbitforge with tracer spans."""
    import orbitforge
    from orbitforge import action, permutation, search

    afters = {
        "action.enumerate_orbits": lambda rep, args, index: (
            tracer.count("action.enumerate_orbits.points", args[0].point_count),
            tracer.count("action.enumerate_orbits.orbits", len(rep.orbits))),
        "action.closure": lambda res, args, index: tracer.count("action.closure.elements", len(res)),
        "semilinear.subgroup_closure": lambda res, args, index: tracer.count(
            "semilinear.subgroup_closure.elements", len(res)),
        "field.make_field": lambda ctx, args, index: _count_field(tracer, ctx, index),
    }
    for (mod_name, attr), span_name in FUNCTION_SPANS.items():
        module = getattr(orbitforge, mod_name)
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(span_name, original, afters.get(span_name)))

    for backend in BACKENDS:
        cls = getattr(action, backend)
        name = f"action.perm_array.{backend}"
        cls.perm_array = tracer.wrap(
            name, cls.perm_array,
            lambda res, args, index, name=name: tracer.count(f"{name}.points", len(res)))

    for attr in permutation.__all__:
        original = getattr(permutation, attr)
        if inspect.isfunction(original):
            _rebind(original, tracer.wrap(f"permutation.{attr}", original))
    elements = permutation.PermGroup.elements
    permutation.PermGroup.elements = property(
        tracer.wrap("permutation.PermGroup.elements", elements.fget))

    # one search attempt is one drawn sample; counted, not spanned
    draw = search._draw_instance

    def counted_draw(*args, **kwargs):
        tracer.count("search.attempts")
        return draw(*args, **kwargs)
    search._draw_instance = counted_draw


def _count_field(tracer, ctx, index):
    # the first call for a key in this process builds its tables
    key = (ctx.p, ctx.k, ctx.n)
    if key not in tracer.field_keys:
        tracer.field_keys.add(key)
        if tracer.request_id is not None:
            tracer.count("field.make_field.builds")
            tracer.build_spans.append(index)


def install_field_memory(tracer):
    """Record the tracemalloc peak of every make_field call, and nothing else."""
    from orbitforge import field

    original = field.make_field

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.counts["field.tracemalloc_peak_mib"] = max(
                tracer.counts["field.tracemalloc_peak_mib"], peak / 2 ** 20)
    _rebind(original, measured)
