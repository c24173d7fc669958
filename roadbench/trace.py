"""Spans around the calls into each layer, installed from the benchmark.

:class:`Tracer` replaces public functions of the program with wrappers
that record a span — name, parent, request, start, end — and puts the
originals back on :meth:`Tracer.uninstall`.  The program itself carries no
tracing code.  The parent of a span is the span open in the caller's
context (a ``contextvars`` variable, so each admitted query's asyncio
task keeps its own chain); spans of one HTTP request share that request's
id.  A batch span is linked to every admitted query it serves.

High-rate leaf calls (``PageManager.read``) are counted at the boundary
instead of spanned: hundreds of page reads per query would otherwise
dwarf the work they measure.

Spans stay in memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import heapq
import json
import time
from typing import Callable, Dict, List, Optional

#: Layer of each span name, for self-time attribution.
LAYER = {
    "http.app": "http",
    "wire.decode": "wire",
    "wire.encode": "wire",
    "metrics.lookup": "metrics",
    "service.submit": "admission",
    "cache.lookup": "cache",
    "cache.store": "cache",
    "cache.invalidate": "cache",
    "kernel.execute_many": "kernel",
    "kernel.execute": "kernel",
    "maintenance.road": "maintenance",
    "maintenance.patch": "maintenance",
}

_NS = 1e-6  # nanoseconds to milliseconds


class Span:
    __slots__ = ("sid", "parent", "rid", "name", "start", "end", "info")

    def __init__(self, sid, parent, rid, name, start):
        self.sid = sid
        self.parent = parent
        self.rid = rid
        self.name = name
        self.start = start
        self.end = start
        self.info: Optional[dict] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * _NS

    def record(self) -> list:
        return [self.sid, self.parent, self.rid, self.name,
                self.start, self.end, self.info]


class Tracer:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "roadbench_span", default=None
        )
        self._patches: List[tuple] = []
        self._waiting: Dict[object, List[Span]] = {}
        #: Page reads counted at ``PageManager.read``: calls, misses by
        #: page kind, and time inside the call.
        self.pager = {"calls": 0, "ns": 0, "misses": {}}

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._current.get()
        span = Span(
            len(self.spans),
            None if parent is None else parent.sid,
            None if parent is None else parent.rid,
            name,
            time.perf_counter_ns(),
        )
        if span.rid is None and name == "http.app":
            span.rid = span.sid
        self.spans.append(span)
        return span

    def _sync(self, name: str, fn: Callable, after=None) -> Callable:
        current = self._current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            token = current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                current.reset(token)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def _async(self, name: str, fn: Callable, before=None, after=None):
        current = self._current

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = self.open(name)
            token = current.set(span)
            if before is not None:
                before(span, args, kwargs)
            try:
                return await fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                current.reset(token)
                if after is not None:
                    after(span, args, kwargs)

        return wrapper

    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until uninstall."""
        self._patches.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- what gets wrapped --------------------------------------------------
    def install_setup(self) -> None:
        """Spans around the set-up path: files to a frozen snapshot."""
        import repro.graph.io as graph_io
        from repro.core.framework import ROAD

        self.patch(graph_io, "load_network",
                   lambda fn: self._sync("setup.load", fn))

        def report(span, args, kwargs, road):
            span.info = dataclasses.asdict(road.build_report)

        self.patch(ROAD, "build", lambda fn: staticmethod(
            self._sync("setup.build", fn, after=report)))
        self.patch(ROAD, "attach_objects",
                   lambda fn: self._sync("setup.attach", fn))
        self.patch(ROAD, "freeze", lambda fn: self._sync("setup.freeze", fn))

    def install_serving(self) -> None:
        """Spans around every layer a request or a write passes through."""
        import repro.serving.http as http
        from repro.baselines.road_adapter import ROADEngine
        from repro.core.framework import ROAD
        from repro.core.frozen import FrozenRoad
        from repro.serving.metrics import MetricsRegistry
        from repro.serving.result_cache import MISS, ResultCache
        from repro.serving.service import RoadService
        from repro.storage.pager import PageManager

        self.patch(http.RoadServiceApp, "__call__",
                   lambda fn: self._async("http.app", fn))
        self.patch(http, "decode_query",
                   lambda fn: self._sync("wire.decode", fn))
        self.patch(http, "encode_result",
                   lambda fn: self._sync("wire.encode", fn))
        for attr in ("counter", "histogram"):
            self.patch(MetricsRegistry, attr,
                       lambda fn: self._sync("metrics.lookup", fn))
        self.patch(RoadService, "submit",
                   lambda fn: self._async("service.submit", fn,
                                          before=self._admit,
                                          after=self._release))
        self.patch(ROADEngine, "execute_many",
                   lambda fn: self._sync("kernel.execute_many", fn,
                                         after=self._link_batch))
        self.patch(ROADEngine, "execute",
                   lambda fn: self._sync("kernel.execute", fn,
                                         after=self._link_one))

        def hit(span, args, kwargs, result):
            span.info = {"hit": result is not MISS}

        def invalidated(span, args, kwargs, result):
            span.info = {"dropped": result}

        self.patch(ResultCache, "lookup",
                   lambda fn: self._sync("cache.lookup", fn, after=hit))
        self.patch(ResultCache, "store",
                   lambda fn: self._sync("cache.store", fn))
        self.patch(ResultCache, "invalidate_report",
                   lambda fn: self._sync("cache.invalidate", fn,
                                         after=invalidated))
        for attr in ("insert_object", "delete_object", "update_object_attrs",
                     "update_edge_distance"):
            self.patch(ROAD, attr,
                       lambda fn: self._sync("maintenance.road", fn))

        def outcome(span, args, kwargs, result):
            span.info = {"outcome": result}

        for attr in ("apply", "apply_object_delta"):
            self.patch(FrozenRoad, attr,
                       lambda fn: self._sync("maintenance.patch", fn,
                                             after=outcome))
        self.patch(PageManager, "read", self._count_reads)

    # -- span hooks ---------------------------------------------------------
    def _admit(self, span, args, kwargs) -> None:
        self._waiting.setdefault(args[1], []).append(span)

    def _release(self, span, args, kwargs) -> None:
        waiting = self._waiting.get(args[1])
        if waiting:
            waiting.remove(span)
            if not waiting:
                del self._waiting[args[1]]

    def _links(self, queries) -> List[int]:
        return [s.sid for q in queries for s in self._waiting.get(q, ())]

    def _link_batch(self, span, args, kwargs, result) -> None:
        span.info = {"queries": len(args[1]), "links": self._links(args[1])}

    def _link_one(self, span, args, kwargs, result) -> None:
        span.info = {"queries": 1, "links": self._links([args[1]])}

    def _count_reads(self, fn: Callable) -> Callable:
        """Count reads made by queries (inside a kernel span) only."""
        counts = self.pager
        current = self._current

        @functools.wraps(fn)
        def wrapper(pager, page_id):
            span = current.get()
            if span is None or not span.name.startswith("kernel."):
                return fn(pager, page_id)
            misses = pager.stats.misses
            start = time.perf_counter_ns()
            page = fn(pager, page_id)
            counts["ns"] += time.perf_counter_ns() - start
            counts["calls"] += 1
            if pager.stats.misses != misses:
                kind = counts["misses"]
                kind[page.kind] = kind.get(page.kind, 0) + 1
            return page

        return wrapper

    # -- output ---------------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.record(), default=repr))
                handle.write("\n")


_ABSENT = object()


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Milliseconds of each layer's self time inside HTTP requests.

    Every instant of a request is charged to the deepest span open at
    that instant (the latest-started one among equals), so concurrent
    sibling spans, such as the 64 queries of one batch request waiting in
    admission together, are not counted once per sibling.  The layer
    totals therefore add up to the requests' wall time exactly when every
    span of a request lies inside it.
    """
    by_request: Dict[int, List[Span]] = {}
    for span in spans:
        if span.rid is not None:
            by_request.setdefault(span.rid, []).append(span)
    depth: Dict[int, int] = {}
    totals: Dict[str, float] = {}
    for members in by_request.values():
        for span in members:
            parent = span.parent
            depth[span.sid] = 0 if parent is None else depth.get(parent, 0) + 1
        events = []
        for span in members:
            events.append((span.start, 0, span))
            events.append((span.end, 1, span))
        events.sort(key=lambda e: (e[0], e[1]))
        active: list = []
        closed = set()
        last = None
        for at, kind, span in events:
            while active and active[0][3].sid in closed:
                heapq.heappop(active)
            if active and last is not None and at > last:
                top = active[0][3]
                layer = LAYER.get(top.name, top.name)
                totals[layer] = totals.get(layer, 0.0) + (at - last) * _NS
            last = at
            if kind == 0:
                heapq.heappush(
                    active, (-depth[span.sid], -span.start, -span.sid, span)
                )
            else:
                closed.add(span.sid)
    return totals
