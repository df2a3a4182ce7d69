"""Traced mode: spans around calls into each layer, and per-layer metrics.

Spans are recorded from the benchmark's own files only: the public entry
points of each layer are wrapped on the live instances (and the parse
function the catalog module calls), then unwrapped again.  A span is
``[name, start, end, parent, request_id, scale]``; the parent is the span
open on the same thread, or, for the first span on the server's handler
thread, the client request that caused it, and ``scale`` is the host-speed
factor of :class:`run.HostClock` when the span began.  Spans stay in memory and are
written out as JSON when the run ends.

A layer's self time is its span minus the part of it that the listed
child spans cover, times the span's scale.  Timings are medians per call; counts come from the
program's own counters in ``catalog.metrics``.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

import repro.core.catalog as catalog_module

SPAN_NAME, SPAN_START, SPAN_END, SPAN_PARENT, SPAN_REQUEST, SPAN_SCALE = range(6)
CLIENT_SPAN = "client.request"


class SpanRecorder:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.request_id = 0
        self._local = threading.local()
        self._remote_parent: Optional[int] = None
        self._patched: List[tuple] = []

    def wrap(self, name: str, fn):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else recorder._remote_parent
            span = [name, 0.0, 0.0, parent, recorder.request_id, recorder.clock.scale]
            # One thread runs wrapped code at a time: the client waits on
            # the socket while the server's handler thread works.
            index = len(recorder.spans)
            recorder.spans.append(span)
            stack.append(index)
            if name == CLIENT_SPAN:
                recorder._remote_parent = index
            span[SPAN_START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[SPAN_END] = time.perf_counter()
                stack.pop()
                if name == CLIENT_SPAN:
                    recorder._remote_parent = None

        return traced

    # ------------------------------------------------------------------
    def install(self, instance, client) -> None:
        """Wrap every layer's entry points on ``instance``."""
        catalog = instance.catalog
        targets = [
            (instance.service, ("query", "fetch", "search_slice", "add_file"), "service"),
            (catalog, ("query", "fetch", "ingest", "plan_for"), "catalog"),
            (catalog.store, ("match_objects", "build_responses", "run_transaction"), "store"),
            (catalog.shredder, ("shred",), "shredder"),
        ]
        if instance.server is not None:
            for handler in ("handle_query", "handle_fetch", "handle_search", "handle_add_file"):
                self._patch(instance.server, handler, "server.handler")
        if client is not None:
            self._patch(client, "request", CLIENT_SPAN)
        for obj, methods, layer in targets:
            for method in methods:
                self._patch(obj, method, f"{layer}.{method}")
        original = catalog_module.parse
        catalog_module.parse = self.wrap("xmlkit.parse", original)
        self._patched.append((catalog_module, "parse", original))

    def _patch(self, obj, attr: str, name: str) -> None:
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))
        self._patched.append((obj, attr, None))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            if original is None:
                delattr(obj, attr)  # the class's method shows through again
            else:
                setattr(obj, attr, original)
        self._patched = []

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump([
                {"id": i, "name": s[SPAN_NAME], "start": s[SPAN_START],
                 "end": s[SPAN_END], "parent": s[SPAN_PARENT], "request": s[SPAN_REQUEST],
                 "scale": s[SPAN_SCALE]}
                for i, s in enumerate(self.spans)
            ], out)


# ---------------------------------------------------------------------------
# Per-layer timings from the spans
# ---------------------------------------------------------------------------
def _covered(start: float, end: float, intervals: Iterable[tuple]) -> float:
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_timings(spans: Sequence[list], skip_requests: set) -> Dict[str, tuple]:
    """Median milliseconds per call for every span-based metric:
    name -> (value, "ms")."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[SPAN_PARENT] is not None:
            children.setdefault(span[SPAN_PARENT], []).append(index)

    def self_ms(name: str, minus: Sequence[str], parent: Optional[str] = None) -> float:
        values = []
        for index, span in enumerate(spans):
            if span[SPAN_NAME] != name or span[SPAN_REQUEST] in skip_requests:
                continue
            if parent is not None and (
                span[SPAN_PARENT] is None or spans[span[SPAN_PARENT]][SPAN_NAME] != parent
            ):
                continue
            start, end = span[SPAN_START], span[SPAN_END]
            covered = _covered(start, end, (
                (spans[c][SPAN_START], spans[c][SPAN_END])
                for c in children.get(index, ())
                if any(spans[c][SPAN_NAME].startswith(m) for m in minus)
            ))
            values.append((end - start - covered) * span[SPAN_SCALE] * 1000.0)
        return statistics.median(values) if values else 0.0, "ms"

    return {
        "server.framing_ms": self_ms(CLIENT_SPAN, ["server.handler"]),
        "server.handler_self_ms": self_ms("server.handler", ["service."]),
        "service.self_ms": self_ms("service.query", ["catalog."]),
        "catalog.query_self_ms": self_ms("catalog.query", ["store.match_objects"]),
        "catalog.plan_ms": self_ms("catalog.plan_for", []),
        "store.match_objects_ms": self_ms("store.match_objects", []),
        "store.build_responses_ms": self_ms("store.build_responses", []),
        "xmlkit.parse_ms": self_ms("xmlkit.parse", []),
        "shredder.shred_ms": self_ms("shredder.shred", []),
        "store.write_txn_ms": self_ms("store.run_transaction", [], parent="catalog.ingest"),
        "catalog.ingest_self_ms": self_ms(
            "catalog.ingest", ["xmlkit.parse", "shredder.shred", "store.run_transaction"]
        ),
    }


# ---------------------------------------------------------------------------
# Counts from the program's counters
# ---------------------------------------------------------------------------
COUNTERS = (
    "catalog_queries_total", "query_cache_hits_total", "plan_cache_hits_total",
    "plan_cache_misses_total", "planner_queries_total", "sqlite_statements_total",
    "sqlite_rows_fetched_total", "service_visibility_denied_total",
    "response_bytes_total", "response_documents_total", "shredder_documents_total",
    "shredder_attribute_rows_total", "shredder_element_rows_total",
    "shredder_inverted_rows_total", "txn_commits_total",
)


def read_counters(registry) -> Dict[str, float]:
    out = {}
    for name in COUNTERS:
        family = registry.get(name)
        out[name] = sum(m.value for _l, m in family.series()) if family else 0.0
    family = registry.get("planner_stage_rows")
    out["planner_stage_rows"] = sum(m.sum for _l, m in family.series()) if family else 0.0
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(before: Dict[str, float], after: Dict[str, float],
                 ops: Dict[str, int], matches: List[int]) -> Dict[str, tuple]:
    """Count metrics over the timed rounds: name -> (value, unit)."""
    d = {name: after[name] - before[name] for name in after}
    queries = d["catalog_queries_total"]
    all_ops = sum(ops.values())
    plan_lookups = d["plan_cache_hits_total"] + d["plan_cache_misses_total"]
    shred_rows = (d["shredder_attribute_rows_total"] + d["shredder_element_rows_total"]
                  + d["shredder_inverted_rows_total"])
    return {
        "catalog.result_cache_hits_per_query": (_ratio(d["query_cache_hits_total"], queries), "1"),
        "catalog.plan_cache_hits_per_query": (_ratio(d["plan_cache_hits_total"], plan_lookups), "1"),
        "planner.stage_rows_per_query": (
            _ratio(d["planner_stage_rows"], d["planner_queries_total"]), "rows"),
        "store.sqlite_statements_per_op": (_ratio(d["sqlite_statements_total"], all_ops), "1"),
        "store.sqlite_rows_fetched_per_op": (_ratio(d["sqlite_rows_fetched_total"], all_ops), "rows"),
        "service.denied_per_query": (_ratio(d["service_visibility_denied_total"], queries), "ids"),
        "query.matches_per_query": (_ratio(sum(matches), len(matches)), "ids"),
        "response.bytes_per_doc": (
            _ratio(d["response_bytes_total"], d["response_documents_total"]), "B"),
        "shredder.rows_per_doc": (_ratio(shred_rows, d["shredder_documents_total"]), "rows"),
        "store.txn_commits_per_write": (_ratio(d["txn_commits_total"], ops.get("ingest", 0)), "1"),
    }
