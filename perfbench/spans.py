"""Span tracing for the traced run, from outside the program.

`instrument` wraps the public functions of each stcores module (plus the
private `search._result`, the only named place where the canonical sort
happens) for the duration of one request.  Every call to a wrapped
function records a span: name, start, end, parent index and an optional
detail.  A stage without a wrapped name, such as the order-ideal walk
inside `enumerate_core`, is reported as its parent's self time.  If a
later version of the program renames or removes a target, it is skipped
and its time moves into its caller's self time in the same way.

Spans are kept in memory; the per-layer metrics are computed from the
list afterwards, so a span file alone determines them.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute).  The span name doubles as the layer name.
FUNCTION_TARGETS = (
    ("cli", "stcores.cli", "main"),
    ("claims", "stcores.claims", "run_claim"),
    ("search.walk", "stcores.search", "enumerate_core"),
    ("search.sort", "stcores.search", "_result"),
    ("search.gap_poset", "stcores.search", "gap_poset"),
    ("search.perimeter_enum", "stcores.search", "enumerate_distinct_by_perimeter"),
    ("search.perimeter_enum", "stcores.search", "enumerate_odd_by_perimeter"),
    ("search.twin_free_tuples", "stcores.search", "count_twin_free_tuples"),
    ("betaset.decode", "stcores.betaset", "from_beta"),
    ("partition.conjugate", "stcores.partition", "conjugate"),
    ("bijection.map", "stcores.bijection", "distinct_to_odd"),
    ("bijection.map", "stcores.bijection", "odd_to_distinct"),
    ("sequences.closed_form", "stcores.sequences", "fibonacci"),
    ("sequences.closed_form", "stcores.sequences", "anderson_count"),
    ("sequences.closed_form", "stcores.sequences", "catalan"),
    ("sequences.closed_form", "stcores.sequences", "fms_selfconjugate_count"),
    ("sequences.closed_form", "stcores.sequences", "m_poly"),
    ("sequences.closed_form", "stcores.sequences", "n_poly"),
)
FILTER_SPAN = "search.filter"  # each value of search.FILTERS
VALIDATE_SPAN = "partition.validate"  # Partition.__post_init__
ROOT_SPAN = "bench"  # one per request; its self time is the harness's own

LAYERS = (
    "cli", "claims", "search.walk", "search.sort", "search.gap_poset", "search.perimeter_enum",
    "search.twin_free_tuples", FILTER_SPAN, "betaset.decode", VALIDATE_SPAN, "partition.conjugate",
    "bijection.map", "sequences.closed_form", ROOT_SPAN,
)
NAME, START, END, PARENT, DETAIL = range(5)


class Tracer:
    """Collects spans of the calls made while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name: str, fn, detail=None):
        """`fn` recording a span per call; `detail(args, result)` fills the span's detail."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if detail is not None:
                span[DETAIL] = detail(args, result)
            return result

        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _family(args, result):
    return [args[0], args[1], args[2] if len(args) > 2 else "all"]


_DETAILS = {
    "search.walk": _family,
    "claims": lambda args, report: len(report.cases),
}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install wrappers on stcores for the duration of the block, then restore."""
    undo = []

    def setattr_undo(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    modules = [m for n, m in list(sys.modules.items()) if n == "stcores" or n.startswith("stcores.")]
    for name, module_name, attr in FUNCTION_TARGETS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            continue
        traced = tracer.wrap(name, original, _DETAILS.get(name))
        # Rebind every module-level alias, e.g. `from .search import enumerate_core`.
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr_undo(module, key, traced)

    search = sys.modules["stcores.search"]
    filters = getattr(search, "FILTERS", {})
    saved_filters = dict(filters)
    for key, predicate in saved_filters.items():
        filters[key] = tracer.wrap(FILTER_SPAN, predicate, lambda args, kept: bool(kept))

    partition_cls = sys.modules["stcores.partition"].Partition
    post_init = partition_cls.__dict__.get("__post_init__")
    if post_init is not None:
        setattr_undo(partition_cls, "__post_init__", tracer.wrap(VALIDATE_SPAN, post_init))
    try:
        yield
    finally:
        filters.update(saved_filters)
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name: each span's duration minus its direct children's."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span[NAME]] += span[END] - span[START] - covered[index]
    return dict(totals)


def _has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self-time shares and work counters of one traced pass.

    Self times are given as a share (%) of the time under root spans, so the
    shares of all layers add up to 100.
    """
    times = self_times(spans)
    wall = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    metrics = {f"{layer}_pct": 100.0 * times.get(layer, 0.0) / wall for layer in LAYERS}
    metrics.update({f"{layer}_s": times.get(layer, 0.0) for layer in LAYERS})

    calls = Counter(s[NAME] for s in spans)
    kept = sum(1 for s in spans if s[NAME] == FILTER_SPAN and s[DETAIL])
    families = [
        tuple(s[DETAIL])
        for i, s in enumerate(spans)
        if s[NAME] == "search.walk" and _has_ancestor(spans, i, "claims")
    ]
    decoded = calls["betaset.decode"]
    metrics.update(
        {
            "search.ideals": calls[FILTER_SPAN],
            "search.kept": kept,
            "search.keep_ratio": kept / decoded if decoded else 0.0,
            "search.gap_poset_calls": calls["search.gap_poset"],
            "betaset.decoded": decoded,
            "partition.constructed": calls[VALIDATE_SPAN],
            "cli.output_bytes": sum(s[DETAIL] or 0 for s in spans if s[NAME] == ROOT_SPAN),
            "claims.cases": sum(s[DETAIL] for s in spans if s[NAME] == "claims"),
            "claims.family_calls": len(families),
            "claims.family_unique": len(set(families)),
            "bijection.maps": calls["bijection.map"],
            "bench.traced_wall_s": wall,
        }
    )
    return metrics
