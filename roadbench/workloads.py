"""The four workloads and what each one measures.

Every workload sets the program up from the network files four times,
warms up with one unmeasured round, runs whole rounds until ``seconds``
have passed, and sets up four more times (``setup_s`` is the median of the
eight).  A round is the same list of operations each time, so every run
attempts whole rounds.  Each answer
is checked against the oracle after its request has returned, outside the
time that request is charged with; a mismatch, a non-200 reply or a write
the program refuses counts as one failed operation.

The serving workloads drive :class:`RoadServiceApp` in process, one ASGI
call at a time (no socket, one request in flight).  Single-query requests
give ``latency_p50_ms``; requests of ``max_batch`` queries fill the
admission bucket at once, so their flushes never wait on the timer, and
give ``throughput_qps``.  ``paged-cold`` calls ``RoadService.run`` on the
charged engine with an emptied buffer before every query.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional

import repro.graph.io as graph_io
from repro.core.search import SearchStats
from repro.objects.model import ObjectSet, SpatialObject
from repro.serving import RoadService, ServiceConfig
from repro.serving.http import RoadServiceApp
from repro.serving.wire import decode_query
from repro.storage.pager import PageManager

from inputs import TYPES, Inputs
from trace import Tracer, self_times

#: Queries per batch request: ServiceConfig.max_batch, so a batch request
#: flushes its admission bucket the moment it is admitted.
BATCH = 64
#: Set-ups per run, before and after the measured rounds (the machine's
#: speed drifts over seconds, so both ends of the run are sampled);
#: setup_s is their median.
SETUPS_BEFORE = 4
SETUPS_AFTER = 4
#: The CA mini profile's buffer: the paper's buffer-to-data ratio.
BUFFER_PAGES = 6
#: zipf-churn: skew, cache budget (below the pool size), reads per round.
ZIPF_S = 1.1
CACHE_BUDGET = 256
ZIPF_SINGLES = 16
ZIPF_BATCHES = 8
HOT_NODES = 64
#: Retag-and-restore write pairs per round (zipf-churn has its own mix,
#: and analysis-batch sends one write before each OD request).
WRITE_PAIRS = 4
#: Single-query requests per round of point-edge.  analysis-batch sends
#: each OD matrix of its pool alone: a median over 30 ms OD and 3 ms
#: service-area requests sits on the edge between the two and moved 15%
#: between seeds.
POINT_SINGLES = 64


def service_config(**changes) -> ServiceConfig:
    """Every field spelled out, so no default or environment leaks in."""
    fields = dict(
        engine="ROAD", mode="frozen", maintenance="patch", backend="list",
        directory=None, directories=None, levels=4, fanout=4,
        max_batch=BATCH, max_delay_ms=2.0, coalesce=True, replicas=0,
        replica_mode="thread", result_cache=False, cache_budget=2048,
    )
    fields.update(changes)
    return ServiceConfig(**fields)


TYPE_NAMES = [name for name, _share in TYPES]

CONFIGS = {
    "point-edge": service_config(),
    "analysis-batch": service_config(),
    "zipf-churn": service_config(result_cache=True, cache_budget=CACHE_BUDGET),
    "paged-cold": service_config(mode="charged"),
}


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self, oracle) -> None:
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, query: dict, rows) -> None:
        self.attempted += 1
        problem = self.oracle.check(query, rows)
        if problem:
            self.fail(f"{query['type']}: {problem}")

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class Samples:
    """What one measuring phase recorded."""

    def __init__(self) -> None:
        self.latency: List[float] = []
        self.updates: List[float] = []
        #: Seconds of the n-th timed batch of each round, and its size.
        self.batches: Dict[int, List[float]] = {}
        self.batch_sizes: Dict[int, int] = {}
        self.position = 0
        self.response_bytes = 0
        self.requests = 0

    def batch(self, seconds: float, queries: int) -> None:
        self.batches.setdefault(self.position, []).append(seconds)
        self.batch_sizes[self.position] = queries
        self.position += 1

    def throughput(self) -> float:
        """Queries per second of a typical round: each batch position
        counts with its median time over the rounds, so a stall that
        hits a few batches (the machine is shared) does not move it."""
        seconds = sum(statistics.median(t) for t in self.batches.values())
        return sum(self.batch_sizes.values()) / seconds


async def call(app, path: str, payload: dict):
    """One POST through the ASGI app: (status, body, seconds)."""
    body = json.dumps(payload).encode()
    replies: List[dict] = []

    async def receive():
        return {"type": "http.request", "body": body, "more_body": False}

    async def send(message):
        replies.append(message)

    start = time.perf_counter()
    await app({"type": "http", "method": "POST", "path": path}, receive, send)
    elapsed = time.perf_counter() - start
    return replies[0]["status"], replies[1]["body"], elapsed


def object_set(objects) -> ObjectSet:
    return ObjectSet(
        SpatialObject(object_id, edge, delta, dict(attrs))
        for object_id, (edge, delta, attrs) in objects.items()
    )


def build(inputs: Inputs, config: ServiceConfig) -> RoadService:
    """Load the network files and build the configured service."""
    network = graph_io.load_network(inputs.node_path, inputs.edge_path)
    return RoadService.build(
        network, object_set(inputs.objects), config=config,
        pager=PageManager(buffer_pages=BUFFER_PAGES, name="road"),
    )


class Workload:
    """Shared machinery: set-up, writes, rounds, the reports."""

    name = ""

    def __init__(self, inputs: Inputs, seconds: float) -> None:
        self.inputs = inputs
        self.seconds = seconds
        self.config = CONFIGS[self.name]
        self.oracle = inputs.oracle()
        self.tally = Tally(self.oracle)
        self.service: Optional[RoadService] = None
        self.app: Optional[RoadServiceApp] = None
        self.samples = Samples()
        self.effort: Dict[str, float] = {}
        self.setups: List[float] = []
        self.pool = self.make_pool()
        self.object_ids = sorted(inputs.objects)
        self.pair_rng = inputs.rng("pairs")

    def make_pool(self) -> List[dict]:
        raise NotImplementedError

    # -- set-up ------------------------------------------------------------
    async def setup_all(self, count: int, tracer: Optional[Tracer]) -> None:
        """``count`` set-ups from the files; the last one stays in service."""
        if tracer:
            tracer.install_setup()
        try:
            for _ in range(count):
                self.close()
                gc.collect()
                self.setups.append(await self.setup_once(self.pool[0]))
        finally:
            if tracer:
                tracer.uninstall()

    def check_setup(self, probe: dict, rows) -> None:
        """The first answer is checked against the data as loaded."""
        self.tally.attempted += 1
        problem = self.inputs.oracle().check(probe, rows)
        if problem:
            self.tally.fail(f"first answer after set-up: {problem}")

    async def setup_once(self, probe: dict) -> float:
        start = time.perf_counter()
        self.service = build(self.inputs, self.config)
        self.app = RoadServiceApp(self.service)
        status, raw, _s = await call(self.app, "/query", {"query": probe})
        elapsed = time.perf_counter() - start
        if status != 200:
            self.tally.attempted += 1
            self.tally.fail(f"first answer after set-up: HTTP {status}")
        else:
            self.check_setup(probe, json.loads(raw)["result"])
        return elapsed

    # -- requests ------------------------------------------------------------
    async def single(self, query: dict) -> None:
        status, raw, seconds = await call(self.app, "/query", {"query": query})
        self.samples.latency.append(seconds)
        self.samples.response_bytes += len(raw)
        self.samples.requests += 1
        if status != 200:
            self.tally.attempted += 1
            self.tally.fail(f"{query['type']}: HTTP {status} {raw[:120]!r}")
            return
        self.tally.check(query, json.loads(raw)["result"])

    async def batch(self, queries: List[dict]) -> None:
        status, raw, seconds = await call(
            self.app, "/query", {"queries": queries}
        )
        self.samples.batch(seconds, len(queries))
        self.samples.response_bytes += len(raw)
        self.samples.requests += 1
        if status != 200:
            self.tally.attempted += len(queries)
            for query in queries:
                self.tally.fail(f"{query['type']}: HTTP {status}")
            return
        for query, rows in zip(queries, json.loads(raw)["results"]):
            self.tally.check(query, rows)

    async def write(self, payload: dict, mirror: Callable[[], None]) -> None:
        """One POST /maintenance; the oracle follows when it succeeds."""
        status, raw, seconds = await call(self.app, "/maintenance", payload)
        self.samples.updates.append(seconds)
        self.tally.attempted += 1
        if status != 200:
            self.tally.fail(f"{payload['op']}: HTTP {status} {raw[:120]!r}")
            return
        mirror()

    def retag_pairs(self, pairs: int = WRITE_PAIRS):
        """Live edits undone at once: an object changes type, then gets
        its own type back.  Yields (object id, attrs) per write."""
        rng = self.pair_rng
        for _ in range(pairs):
            object_id = rng.choice(self.object_ids)
            own = self.inputs.objects[object_id][2]
            other = rng.choice([t for t in TYPE_NAMES if t != own["type"]])
            yield object_id, {"type": other}
            yield object_id, dict(own)

    async def retag(self, object_id: int, attrs: dict) -> None:
        await self.write(
            {"op": "update_object_attrs", "object_id": object_id,
             "attrs": attrs},
            lambda: self.oracle.retag(object_id, attrs),
        )

    async def edit_round(self) -> None:
        for object_id, attrs in self.retag_pairs():
            await self.retag(object_id, attrs)

    # -- phases ----------------------------------------------------------------
    async def rounds(self, seconds: float, tracer: Optional[Tracer] = None):
        """Whole rounds until ``seconds`` have passed (at least one).

        With a tracer, rounds alternate between untraced and traced, so
        both halves see the same mix of states; returns (plain, traced).
        """
        plain, traced = Samples(), Samples()
        deadline = time.perf_counter() + seconds
        while True:
            for samples, on in ((plain, False), (traced, True)):
                if on and tracer is None:
                    continue
                self.samples = samples
                samples.position = 0
                if on:
                    tracer.install_serving()
                try:
                    await self.round()
                finally:
                    if on:
                        tracer.uninstall()
            if time.perf_counter() >= deadline:
                return plain, traced

    async def round(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks made once per run, after the measured rounds."""

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = self.app = None

    def live_facts(self) -> dict:
        """What the per-layer report reads off the measured service."""
        executor = self.service.executor
        frozen = executor.frozen
        return {
            "stats": self.service.stats(),
            "effort": self.effort or self.replay(),
            "kinds": self.kernel_kinds(),
            "index_mb": executor.road.index_size_bytes() / 1e6,
            "snapshot_mb": (
                frozen.memory_stats()["total_bytes"] / 1e6 if frozen else 0.0),
        }

    # -- reports -----------------------------------------------------------------
    def end_to_end(self, samples: Samples) -> Dict[str, tuple]:
        return {
            "setup_s": (statistics.median(self.setups), "s"),
            "latency_p50_ms": (
                statistics.median(samples.latency) * 1e3, "ms"),
            "throughput_qps": (samples.throughput(), "1/s"),
            "update_p50_ms": (
                statistics.median(samples.updates) * 1e3, "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }

    def replay(self) -> Dict[str, float]:
        """Search effort per query, replaying the pool with SearchStats."""
        queries = [decode_query(q) for q in self.pool]
        stats = SearchStats()
        self.service.run_many(queries, stats=stats)
        return {
            name: getattr(stats, name) / len(queries)
            for name in ("nodes_popped", "edges_relaxed", "shortcuts_taken",
                         "rnets_bypassed", "rnets_descended")
        }

    def kernel_kinds(self) -> Dict[str, float]:
        """Per-kind kernel time of the multi-source queries, by replay."""
        return {}


class PointEdge(Workload):
    """Distinct point queries, result cache off."""

    name = "point-edge"

    def make_pool(self):
        return self.inputs.point_pool()

    async def round(self):
        await self.edit_round()
        for query in self.pool[:POINT_SINGLES]:
            await self.single(query)
        for start in range(0, len(self.pool), BATCH):
            await self.batch(self.pool[start:start + BATCH])


class AnalysisBatch(Workload):
    """OD matrices, service areas and route kNN, result cache off."""

    name = "analysis-batch"

    def make_pool(self):
        return self.inputs.analysis_pool()

    async def round(self):
        # One write before each OD request, a retag and its undo in turn.
        # A round lasts over a second, so writes bunched at its start
        # would sample the machine's speed at a dozen instants a run; here
        # every write follows a read, so all meet the same caches.  OD
        # matrices read no objects, and the last undo lands before the
        # batches, which do.
        singles = [q for q in self.pool if q["type"] == "od_matrix"]
        writes = self.retag_pairs(len(singles) // 2)
        for query in singles:
            write = next(writes, None)
            if write is not None:
                await self.retag(*write)
            await self.single(query)
        for start in range(0, len(self.pool), BATCH):
            await self.batch(self.pool[start:start + BATCH])

    def kernel_kinds(self):
        out = {}
        cells = 0
        for kind in ("od_matrix", "service_area", "route_knn"):
            chosen = [q for q in self.pool if q["type"] == kind]
            queries = [decode_query(q) for q in chosen]
            start = time.perf_counter()
            self.service.run_many(queries)
            out[kind] = (time.perf_counter() - start) / len(queries)
            if kind == "od_matrix":
                cells = sum(len(q["sources"]) * len(q["targets"]) for q in chosen)
                out["od_cells_per_s"] = cells / (out[kind] * len(queries))
        return out


class ZipfChurn(Workload):
    """Zipf-skewed point reads behind the result cache, with live writes."""

    name = "zipf-churn"

    def __init__(self, inputs, seconds):
        super().__init__(inputs, seconds)
        ranks = range(len(self.pool))
        self.weights = [1.0 / (rank + 1) ** ZIPF_S for rank in ranks]
        hot = []
        for query in self.pool:
            if query["node"] not in hot:
                hot.append(query["node"])
            if len(hot) == HOT_NODES:
                break
        self.hot_edges = sorted({
            (min(n, m), max(n, m))
            for n in hot for m in self.oracle.adj[n]
        })
        self.retag_ids = sorted(
            object_id for object_id, (edge, _d, _a) in inputs.objects.items()
            if edge[0] in hot or edge[1] in hot
        ) or sorted(inputs.objects)
        self.next_id = max(inputs.objects) + 1
        self.churn_rng = inputs.rng("churn")
        self.round_index = 0
        self.last_insert: Optional[int] = None

    def make_pool(self):
        return self.inputs.zipf_pool()

    async def round(self):
        rng = self.inputs.rng(f"draws:{self.round_index}")
        self.round_index += 1
        await self.churn()
        draws = rng.choices(
            self.pool, self.weights,
            k=ZIPF_SINGLES + ZIPF_BATCHES * BATCH,
        )
        for query in draws[:ZIPF_SINGLES]:
            await self.single(query)
        for start in range(ZIPF_SINGLES, len(draws), BATCH):
            await self.batch(draws[start:start + BATCH])

    async def churn(self):
        """Four writes at edges around the hottest query nodes: a reweigh,
        an insert, the delete of the previous round's insert, a retag."""
        rng = self.churn_rng
        u, v = rng.choice(self.hot_edges)
        distance = round(self.inputs.lengths[(u, v)] * rng.uniform(0.8, 1.25), 6)
        await self.write(
            {"op": "update_edge_distance", "u": u, "v": v,
             "distance": distance},
            lambda: self.oracle.reweigh(u, v, distance),
        )
        a, b = rng.choice(self.hot_edges)
        delta = round(self.oracle.lengths[(a, b)] * rng.uniform(0.05, 0.95), 6)
        attrs = {"type": rng.choice(TYPE_NAMES)}
        new_id = self.next_id
        self.next_id += 1
        await self.write(
            {"op": "insert_object",
             "object": {"object_id": new_id, "edge": [a, b], "delta": delta,
                        "attrs": attrs}},
            lambda: self.oracle.insert(new_id, (a, b), delta, attrs),
        )
        if self.last_insert is not None:
            old = self.last_insert
            await self.write(
                {"op": "delete_object", "object_id": old},
                lambda: self.oracle.delete(old),
            )
        self.last_insert = new_id
        target = rng.choice(self.retag_ids)
        tag = {"type": rng.choice(TYPE_NAMES)}
        await self.write(
            {"op": "update_object_attrs", "object_id": target, "attrs": tag},
            lambda: self.oracle.retag(target, tag),
        )


class PagedCold(Workload):
    """The paper's protocol on the charged engine: every query cold."""

    name = "paged-cold"

    def __init__(self, inputs, seconds):
        super().__init__(inputs, seconds)
        self.queries = [decode_query(q) for q in self.pool]
        self.cold_pages: Optional[List[int]] = None

    def make_pool(self):
        return self.inputs.paged_pool()

    async def setup_once(self, probe):
        start = time.perf_counter()
        self.service = build(self.inputs, self.config)
        rows = self.service.run(decode_query(probe))
        elapsed = time.perf_counter() - start
        self.check_setup(probe, _rows(rows))
        return elapsed

    async def round(self):
        service = self.service
        engine = service.executor
        for object_id, attrs in self.retag_pairs():
            start = time.perf_counter()
            service.update_object_attrs(object_id, attrs)
            self.samples.updates.append(time.perf_counter() - start)
            self.tally.attempted += 1
            self.oracle.retag(object_id, attrs)
        pages = []
        for query, wire in zip(self.queries, self.pool):
            engine.reset_io()
            start = time.perf_counter()
            rows = service.run(query)
            seconds = time.perf_counter() - start
            pages.append(engine.pager.stats.reads)
            self.samples.latency.append(seconds)
            self.samples.batch(seconds, 1)
            self.tally.check(wire, _rows(rows))
        # pages_per_query is the first cold pass, so it depends only on
        # the seed.  Later rounds are not held to it: on some seeds a
        # retag and its undo leave the Association Directory's B+-tree a
        # page larger, and every round after reads a few pages more.
        if self.cold_pages is None:
            self.cold_pages = pages

    def finish(self):
        # The point of ROAD: a search over these objects must bypass
        # some object-free Rnets.
        self.effort = self.replay()
        self.tally.attempted += 1
        if not self.effort["rnets_bypassed"] > 0:
            self.tally.fail("no Rnet was bypassed over the whole pool")


def _rows(entries) -> List[dict]:
    return [{"object_id": e.object_id, "distance": e.distance} for e in entries]


WORKLOADS = {
    cls.name: cls for cls in (PointEdge, AnalysisBatch, ZipfChurn, PagedCold)
}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
async def _run(workload: Workload, trace: bool):
    tracer = Tracer() if trace else None
    await workload.setup_all(SETUPS_BEFORE, tracer)
    await workload.rounds(0)  # warm-up: one unmeasured round
    plain, traced = await workload.rounds(workload.seconds, tracer)
    workload.finish()
    live = workload.live_facts() if trace else None
    await workload.setup_all(SETUPS_AFTER, tracer)
    if not trace:
        notes = [tail("latency", plain.latency), tail("update", plain.updates)]
        return workload.end_to_end(plain), notes, None
    metrics, notes = per_layer(workload, tracer, live, plain, traced)
    return metrics, notes, tracer


def tail(what: str, seconds: List[float]) -> str:
    """The highest of p99/p90 with at least ten samples beyond it."""
    ordered = sorted(seconds)
    for share in (0.99, 0.9):
        if len(ordered) * (1 - share) >= 10:
            value = ordered[int(share * len(ordered))] * 1e3
            return (f"{what} p{round(share * 100)} {value:.3f} ms "
                    f"over {len(ordered)} samples")
    return f"{what}: {len(ordered)} samples, too few for a tail"


def run(name: str, inputs: Inputs, seconds: float, trace: bool):
    """Run one workload: (metrics, notes, tally, tracer or None, config)."""
    workload = WORKLOADS[name](inputs, seconds)
    try:
        metrics, notes, tracer = asyncio.run(_run(workload, trace))
    finally:
        workload.close()
    config = dataclasses.asdict(workload.config)
    return metrics, notes, workload.tally, tracer, config


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced phase
# ---------------------------------------------------------------------------
def per_layer(workload: Workload, tracer: Tracer, live: dict,
              plain: Samples, traced: Samples):
    """(metrics, notes): the per-layer metrics and what else to print."""
    setup = [s for s in tracer.spans if s.name.startswith("setup.")]
    spans = [s for s in tracer.spans if not s.name.startswith("setup.")]
    by_name: Dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total_ms(name):
        return sum(s.ms for s in by_name.get(name, ()))

    def mean(values, default=0.0):
        values = list(values)
        return statistics.fmean(values) if values else default

    requests = len(by_name.get("http.app", ()))

    def per_request(ms):
        return ms / requests if requests else 0.0

    selfs = self_times(spans)
    app_ms = total_ms("http.app")
    starts = {s.sid: s.start for s in by_name.get("service.submit", ())}
    kernel = by_name.get("kernel.execute_many", []) + by_name.get(
        "kernel.execute", [])
    kernel_queries = sum(s.info["queries"] for s in kernel if s.info)
    kernel_ms = sum(s.ms for s in kernel)
    waits = [
        (s.start - starts[link]) * 1e-6
        for s in kernel if s.info for link in s.info["links"] if link in starts
    ]
    batches = [s.info["queries"] for s in kernel if s.info]
    lookups = by_name.get("cache.lookup", [])
    hits = sum(1 for s in lookups if s.info and s.info["hit"])
    invalidations = by_name.get("cache.invalidate", [])
    writes = max(len(traced.updates), 1)
    sids = {s.sid: s for s in spans}
    patches = [  # outermost patch spans: apply calls apply_object_delta
        s for s in by_name.get("maintenance.patch", ())
        if s.parent not in sids or sids[s.parent].name != "maintenance.patch"
    ]
    counts = live["stats"]["service"]
    cache_stats = live["stats"].get("result_cache", {})
    kinds = live["kinds"]
    pager = tracer.pager
    misses = pager["misses"]
    overlay_reads = sum(n for kind, n in misses.items()
                        if kind.startswith("route-overlay"))
    directory_reads = sum(n for kind, n in misses.items()
                          if not kind.startswith("route-overlay"))

    def setup_median(name, field=None):
        values = [
            s.info[field] if field else s.ms / 1e3
            for s in setup if s.name == name
        ]
        return statistics.median(values) if values else 0.0

    metrics = {
        "http.app_ms": (per_request(app_ms), "ms"),
        "http.self_ms": (per_request(selfs.get("http", 0.0)), "ms"),
        "wire.decode_ms": (per_request(total_ms("wire.decode")), "ms"),
        "wire.encode_ms": (per_request(total_ms("wire.encode")), "ms"),
        "wire.self_ms": (per_request(selfs.get("wire", 0.0)), "ms"),
        "wire.response_bytes": (
            traced.response_bytes / max(traced.requests, 1), "bytes"),
        "metrics.ms_per_request": (per_request(total_ms("metrics.lookup")), "ms"),
        "admission.wait_ms": (mean(waits), "ms"),
        "admission.self_ms": (per_request(selfs.get("admission", 0.0)), "ms"),
        "admission.batch_size": (mean(batches), "count"),
        "admission.coalesced": (
            counts["coalesced"] / max(counts["submitted"], 1), "ratio"),
        "cache.hit_ratio": (hits / len(lookups) if lookups else 0.0, "ratio"),
        "cache.lookup_ms": (mean(s.ms for s in lookups), "ms"),
        "cache.self_ms": (per_request(selfs.get("cache", 0.0)), "ms"),
        "cache.invalidated_per_update": (
            mean(s.info["dropped"] for s in invalidations if s.info), "count"),
        "cache.evictions": (
            1000.0 * cache_stats.get("evictions", 0)
            / max(cache_stats.get("hits", 0) + cache_stats.get("misses", 0), 1),
            "per_1k_lookups"),
        "kernel.ms_per_query": (kernel_ms / max(kernel_queries, 1), "ms"),
        "kernel.self_ms": (per_request(selfs.get("kernel", 0.0)), "ms"),
        "kernel.od_matrix_ms": (kinds.get("od_matrix", 0.0) * 1e3, "ms"),
        "kernel.service_area_ms": (kinds.get("service_area", 0.0) * 1e3, "ms"),
        "kernel.route_knn_ms": (kinds.get("route_knn", 0.0) * 1e3, "ms"),
        "kernel.od_cells_per_s": (kinds.get("od_cells_per_s", 0.0), "1/s"),
        "maintenance.road_ms": (total_ms("maintenance.road") / writes, "ms"),
        "maintenance.patch_ms": (sum(s.ms for s in patches) / writes, "ms"),
        "maintenance.invalidate_ms": (total_ms("cache.invalidate") / writes, "ms"),
        "maintenance.fallbacks": (
            sum(1 for s in patches if s.info and s.info["outcome"] != "patched")
            / writes, "ratio"),
        "pager.overlay_reads": (overlay_reads / max(kernel_queries, 1), "count"),
        "pager.directory_reads": (
            directory_reads / max(kernel_queries, 1), "count"),
        "pager.hit_ratio": (
            1 - sum(misses.values()) / pager["calls"] if pager["calls"] else 0.0,
            "ratio"),
        "pager.read_ms": (pager["ns"] * 1e-6 / max(kernel_queries, 1), "ms"),
        "charged.ms_per_query": (
            kernel_ms / max(kernel_queries, 1)
            if workload.config.mode == "charged" else 0.0, "ms"),
        "pages_per_query": (
            statistics.fmean(workload.cold_pages)
            if isinstance(workload, PagedCold) else 0.0, "count"),
        "setup.load_s": (setup_median("setup.load"), "s"),
        "setup.partition_s": (
            setup_median("setup.build", "partition_seconds"), "s"),
        "setup.shortcut_s": (
            setup_median("setup.build", "shortcut_seconds"), "s"),
        "setup.overlay_s": (
            setup_median("setup.build", "overlay_seconds"), "s"),
        "setup.attach_s": (setup_median("setup.attach"), "s"),
        "setup.freeze_s": (setup_median("setup.freeze"), "s"),
        "setup.index_mb": (live["index_mb"], "MB"),
        "frozen.snapshot_mb": (live["snapshot_mb"], "MB"),
        "trace.overhead_pct": (
            100.0 * (plain.throughput() / traced.throughput() - 1.0), "%"),
    }
    for name, value in live["effort"].items():
        metrics[f"search.{name}"] = (value, "count")
    notes = [f"spans  {len(spans)} in the traced rounds"]
    if app_ms:
        notes.append(
            "self times of the layers inside HTTP requests add up to "
            f"{100 * sum(selfs.values()) / app_ms:.2f}% of http.app_ms"
        )
    return metrics, notes
