"""Spans around calls into the library's layers, installed from outside.

The tracer replaces module attributes (for example
`fuchslab.constructions.ideal_span`) and three class methods
(`Ideal.__post_init__`, `Algebra.__post_init__`, `QuotientRing.__init__`)
with wrappers that record a span per call, and restores the originals
afterwards; no file under `src/` changes. Every public function of a layer
is wrapped wherever a layer module holds it, except those called once per
element or per vector, where a span (about a microsecond) would cost more
than the work: `gf2.reduce_vector` (about 10^6 calls per pass) is only
counted, while `gf2.rref` (about 10^4 calls per pass) is timed.

A span's self time is its duration minus the durations of its direct
children, so the self times of one request sum to its root span.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("cli", "groups", "gf2", "algebra", "endo", "constructions")

_UNSPANNED = {
    "groups": {"element_index", "add_elements", "scale_element", "identity_element",
               "element_order", "prime_power_split"},
    # QuotientRing.__init__ is spanned as algebra.quotient instead
    "algebra": {"is_unit", "product_element", "quotient"},
}
# units and units_capped both enumerate units; report them as one
_ALIASES = {"algebra.units_capped": "algebra.units"}
_METHODS = (
    ("Ideal", "__post_init__", "algebra.ideal_validate"),
    ("Algebra", "__post_init__", "algebra.algebra_validate"),
    ("QuotientRing", "__init__", "algebra.quotient"),
)
ROOT_SPAN = "cli.run"
# Times that are exactly 0 on a workload that never makes the call; they are
# printed, but left out of the result line so that no reported time is a
# constant.
PRINTED_ONLY = {"endo.fully_realizes.self_ms", "constructions.chain_ring_ideals.ms",
                "constructions.construct_witness.self_ms", "constructions.classify.ms"}


def _layer_of(obj) -> str | None:
    if isinstance(obj, type) or not callable(obj):
        return None
    parts = (getattr(obj, "__module__", None) or "").split(".")
    if len(parts) == 2 and parts[0] == "fuchslab" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    """Spans and counters for the requests run while it is installed."""

    def __init__(self, modules: dict) -> None:
        self._mods = modules
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self.spans: list[tuple | None] = []  # (request, name, parent, t0, t1, self)
        self.request = -1
        self.rows_in = 0
        self.reduce_calls = 0
        self.endos = self.checks = self.endo_checks = self.workers = 0
        self.witness_generators = 0

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for caller in ("groups", "algebra", "endo", "constructions", "cli"):
            mod = self._mods[caller]
            for attr, fn in list(vars(mod).items()):
                layer = _layer_of(fn)
                if (attr.startswith("_") or layer in (None, "cli", "gf2")
                        or attr in _UNSPANNED.get(layer, ())):
                    continue
                name = f"{layer}.{attr}"
                self._replace(mod, attr, self._span(_ALIASES.get(name, name), fn))
        algebra = self._mods["algebra"]
        for cls, method, name in _METHODS:
            owner = getattr(algebra, cls, None)
            if owner is not None and method in vars(owner):
                self._replace(owner, method, self._span(name, vars(owner)[method]))
        gf2 = self._mods["gf2"]
        if hasattr(gf2, "rref"):
            self._replace(gf2, "rref", self._rref(gf2.rref))
        if hasattr(gf2, "reduce_vector"):
            self._replace(gf2, "reduce_vector", self._counted(gf2.reduce_vector))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _timed(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[1] += t1 - t0
            self.spans[index] = (self.request, name, parent[0] if parent else -1,
                                 t0, t1, t1 - t0 - frame[1])

    def _span(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            result = self._timed(name, fn, args, kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _rref(self, fn):
        def rref(rows, *args, **kwargs):
            rows = rows if isinstance(rows, (list, tuple)) else list(rows)
            self.rows_in += len(rows)
            return self._timed("gf2.rref", fn, (rows, *args), kwargs)

        return rref

    def _counted(self, fn):
        def reduce_vector(*args, **kwargs):
            self.reduce_calls += 1
            return fn(*args, **kwargs)

        return reduce_vector

    def run_request(self, call):
        """Run one request, `call()`, as a root span."""
        self.request += 1
        return self._timed(ROOT_SPAN, call, (), {})


def _observe_scan(tracer: Tracer, args, kwargs, result) -> None:
    # count_preserving(g, ideal, total, workers): the seed's scan checks the
    # nonzero recorded generators, else the RREF basis
    ideal = args[1] if len(args) > 1 else kwargs.get("ideal")
    total = args[2] if len(args) > 2 else kwargs.get("total", 0)
    workers = args[3] if len(args) > 3 else kwargs.get("workers", 1)
    if not (isinstance(total, int) and isinstance(workers, int)):
        return  # a changed signature leaves the counters at 0, not the request failed
    vectors = getattr(ideal, "generators", None) or getattr(ideal, "rref_basis", ())
    checks = sum(1 for v in vectors if v)
    tracer.endos += total
    tracer.checks += checks
    tracer.endo_checks += total * checks
    tracer.workers = max(tracer.workers, workers)


def _observe_witness(tracer: Tracer, args, kwargs, result) -> None:
    ideal = getattr(result, "ideal", None)
    tracer.witness_generators += len(getattr(ideal, "generators", None) or ())


_OBSERVERS = {
    "endo.count_preserving": _observe_scan,
    "constructions.construct_witness": _observe_witness,
}


def check_nesting(spans: list, tol: float = 1e-6) -> list[str]:
    """Problems with the span tree: each span closed and inside its parent,
    and per request the self times summing to the root span."""
    problems = []
    roots: dict[int, tuple] = {}
    self_sum: dict[int, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if span is None:
            problems.append(f"span {index} was never closed")
            continue
        request, name, parent, t0, t1, self_s = span
        self_sum[request] += self_s
        if parent < 0:
            roots[request] = span
            continue
        p = spans[parent]
        if p is None or p[0] != request or not p[3] <= t0 <= t1 <= p[4]:
            problems.append(f"{name} (span {index}) is not inside its parent")
    for request, root in roots.items():
        duration = root[4] - root[3]
        if abs(self_sum[request] - duration) > tol * max(duration, 1e-3):
            problems.append(f"request {request}: self times sum to "
                            f"{self_sum[request]:.9f} s, its span is {duration:.9f} s")
    return problems


def layer_metrics(tracer: Tracer, search_examined: int, default_workers: int) -> dict:
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    root_s = children_s = 0.0
    search_requests = set()
    for request, name, parent, t0, t1, s in spans:
        calls[name] += 1
        total[name] += t1 - t0
        self_t[name] += s
        layer_self[name.split(".", 1)[0]] += s
        if parent < 0:
            root_s += t1 - t0
        elif spans[parent][2] < 0:
            children_s += t1 - t0
        if name == "constructions.bounded_ideal_search":
            search_requests.add(request)
    search_spans = sum(1 for r, name, *_ in spans
                       if r in search_requests and name == "algebra.ideal_span")
    search_quotients = sum(1 for r, name, *_ in spans
                           if r in search_requests and name == "algebra.quotient")
    scan_s = total["endo.count_preserving"]
    out = {
        "endo.count_preserving.ms": scan_s * 1e3,
        "endo.ns_per_endo": scan_s * 1e9 / tracer.endos if tracer.endos else 0.0,
        "endo.ns_per_endo_check":
            scan_s * 1e9 / tracer.endo_checks if tracer.endo_checks else 0.0,
        "endo.endos_scanned": tracer.endos,
        "endo.check_vectors": tracer.checks,
        "endo.fully_realizes.self_ms": self_t["endo.fully_realizes"] * 1e3,
        "endo.worker_count": tracer.workers or default_workers,
        "algebra.ideal_span.calls": calls["algebra.ideal_span"],
        "algebra.ideal_span.self_ms": self_t["algebra.ideal_span"] * 1e3,
        "gf2.rref.calls": calls["gf2.rref"],
        "gf2.rref.rows_in": tracer.rows_in,
        "gf2.rref.ms": total["gf2.rref"] * 1e3,
        "gf2.reduce_vector.calls": tracer.reduce_calls,
        "algebra.ideal_validate.calls": calls["algebra.ideal_validate"],
        "algebra.ideal_validate.ms": total["algebra.ideal_validate"] * 1e3,
        "algebra.algebra_validate.ms": total["algebra.algebra_validate"] * 1e3,
        "algebra.quotient.calls": calls["algebra.quotient"],
        "algebra.quotient.self_ms": self_t["algebra.quotient"] * 1e3,
        "algebra.units.ms": total["algebra.units"] * 1e3,
        "algebra.invariants_from_units.ms": total["algebra.invariants_from_units"] * 1e3,
        "algebra.group_algebra.ms": total["algebra.group_algebra"] * 1e3,
        "constructions.search.span_calls": search_spans,
        "constructions.search.distinct_ratio":
            search_examined / search_spans if search_spans else 0.0,
        "constructions.search.quotient_ratio":
            search_quotients / search_examined if search_examined else 0.0,
        "constructions.chain_ring_ideals.ms": total["constructions.chain_ring_ideals"] * 1e3,
        "constructions.construct_witness.self_ms":
            self_t["constructions.construct_witness"] * 1e3,
        "constructions.witness_generators": tracer.witness_generators,
        "constructions.classify.ms": total["constructions.classify"] * 1e3,
        "trace.coverage": children_s / root_s if root_s else 0.0,
    }
    for layer in LAYERS:
        if layer != "gf2":  # gf2's only span is gf2.rref
            out[f"{layer}.self_ms"] = layer_self[layer] * 1e3
    return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("ms"):
        return "ms"
    if ".ns_per" in metric:
        return "ns"
    if metric.endswith("_ratio") or metric == "trace.coverage":
        return "ratio"
    return "count"
