"""An answer oracle that shares no code with the program under test.

The oracle keeps its own copy of the road network (parsed from the same
Li-format files the program loads) and of the object set, and answers
every query kind with a plain ``heapq`` Dijkstra.  The benchmark mirrors
every write it sends to the program into this copy, so answers served
after an edge reweigh or an object insert, delete or retag are checked
against the state the program should be in.

Queries and answers are the wire forms: a query is the JSON object sent
in ``POST /query`` and an answer is the decoded list of result rows.
:meth:`Oracle.check` returns ``None`` for a correct answer and a short
reason otherwise.  Besides agreeing with Dijkstra, answers must have the
properties the method promises: distances in ascending order, every
object matching the predicate, OD cells zero on the diagonal and
symmetric when sources and targets coincide.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Absolute tolerance on a distance.  Network files carry six decimals
#: and the program sums shortcut weights in another order than Dijkstra.
TOL = 1e-6

Edge = Tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def read_network(node_path: str, edge_path: str):
    """Coordinates and undirected edge lengths from Li-format files."""
    coords: Dict[int, Tuple[float, float]] = {}
    with open(node_path) as handle:
        for line in handle:
            parts = line.split()
            if parts:
                coords[int(parts[0])] = (float(parts[1]), float(parts[2]))
    lengths: Dict[Edge, float] = {}
    with open(edge_path) as handle:
        for line in handle:
            parts = line.split()
            if parts:
                key = edge_key(int(parts[1]), int(parts[2]))
                lengths.setdefault(key, float(parts[3]))
    return coords, lengths


class Oracle:
    """Dijkstra ground truth over the benchmark's own copy of the data.

    ``objects`` maps object id to ``(edge, delta, attrs)``; ``delta`` is
    measured from the edge's smaller node id, as on the wire.
    """

    def __init__(
        self,
        lengths: Dict[Edge, float],
        objects: Dict[int, Tuple[Edge, float, Dict[str, str]]],
    ) -> None:
        self.lengths = dict(lengths)
        self.adj: Dict[int, Dict[int, float]] = {}
        for (u, v), length in self.lengths.items():
            self.adj.setdefault(u, {})[v] = length
            self.adj.setdefault(v, {})[u] = length
        self.base = dict(lengths)
        self.objects: Dict[int, Tuple[Edge, float, Dict[str, str]]] = {}
        self.on_node: Dict[int, set] = {}
        for object_id, (edge, delta, attrs) in objects.items():
            edge = edge_key(*edge)
            self.objects[object_id] = (edge, delta, dict(attrs))
            for node in edge:
                self.on_node.setdefault(node, set()).add(object_id)
        # Answers are memoised per state: a write that undoes the one
        # before it (an edge set back to its length on file, an object
        # given its tag back) returns to a state whose answers are known.
        # Node distances and OD matrices are memoised per network state,
        # which object writes leave as it is.
        self.base_objects = dict(self.objects)
        self._edits: Dict[object, object] = {}
        self._memo: Dict[str, dict] = {}
        self._current: Optional[dict] = None
        self._network_memo: Dict[str, dict] = {}
        self._network: Optional[dict] = None

    # -- writes, mirrored from the ones sent to the program -------------
    def reweigh(self, u: int, v: int, distance: float) -> None:
        key = edge_key(u, v)
        factor = distance / self.lengths[key]
        self.lengths[key] = distance
        self.adj[u][v] = distance
        self.adj[v][u] = distance
        self._edited(key, distance, self.base[key])
        for object_id in list(self.on_node.get(key[0], ())):
            edge, delta, attrs = self.objects[object_id]
            if edge == key:
                self._set(object_id, (edge, delta * factor, attrs))

    def insert(
        self, object_id: int, edge: Edge, delta: float, attrs: Dict[str, str]
    ) -> None:
        edge = edge_key(*edge)
        self._set(object_id, (edge, delta, dict(attrs)))
        for node in edge:
            self.on_node.setdefault(node, set()).add(object_id)

    def delete(self, object_id: int) -> None:
        edge, _delta, _attrs = self.objects[object_id]
        self._set(object_id, None)
        for node in edge:
            self.on_node[node].discard(object_id)

    def retag(self, object_id: int, attrs: Dict[str, str]) -> None:
        edge, delta, _old = self.objects[object_id]
        self._set(object_id, (edge, delta, dict(attrs)))

    def _set(self, object_id: int, value) -> None:
        if value is None:
            del self.objects[object_id]
        else:
            self.objects[object_id] = value
        self._edited(object_id, value, self.base_objects.get(object_id))

    def _edited(self, key, value, base) -> None:
        if value == base:
            self._edits.pop(key, None)
        else:
            self._edits[key] = value
        self._current = None
        if isinstance(key, tuple):  # an edge, not an object id
            self._network = None

    def _state(self) -> dict:
        """The memo of the current network and object state."""
        if self._current is None:
            self._current = _memo_of(self._memo, self._edits.items())
        return self._current

    def _network_state(self) -> dict:
        """The memo of the current edge lengths."""
        if self._network is None:
            edges = [
                (key, value) for key, value in self._edits.items()
                if isinstance(key, tuple)
            ]
            self._network = _memo_of(self._network_memo, edges)
        return self._network

    # -- search ----------------------------------------------------------
    def distances(self, source: int) -> Dict[int, float]:
        """Every node's distance from ``source`` (memoised per network)."""
        full = self._network_state()["full"]
        dist = full.get(source)
        if dist is None:
            if len(full) >= 64:
                full.clear()
            dist = full[source] = self._sweep([source], math.inf, None, None)[0]
        return dist

    def _offset(self, object_id: int, node: int) -> float:
        (a, b), delta, _attrs = self.objects[object_id]
        if node == a:
            return delta
        return max(self.lengths[(a, b)] - delta, 0.0)

    def _matches(self, object_id: int, predicate: Dict[str, str]) -> bool:
        attrs = self.objects[object_id][2]
        return all(attrs.get(key) == value for key, value in predicate.items())

    def _sweep(
        self,
        seeds: Iterable[int],
        radius: float,
        predicate: Optional[Dict[str, str]],
        k: Optional[int],
    ):
        """Dijkstra from ``seeds`` at distance 0.

        Settles nodes up to ``radius``; with a ``predicate`` it also
        collects matching objects, and with ``k`` it stops once no
        unsettled node can bring an object nearer than the k-th found.
        Returns (node distances, {object id: distance}).
        """
        dist: Dict[int, float] = {}
        found: Dict[int, float] = {}
        best: List[float] = []  # max-heap (negated) of the k smallest
        heap = [(0.0, seed) for seed in set(seeds)]
        heapq.heapify(heap)
        while heap:
            d, node = heapq.heappop(heap)
            if node in dist:
                continue
            if d > radius + TOL:
                break
            if k is not None and len(best) == k and d > -best[0] + TOL:
                break
            dist[node] = d
            if predicate is not None:
                for object_id in self.on_node.get(node, ()):
                    if not self._matches(object_id, predicate):
                        continue
                    reach = d + self._offset(object_id, node)
                    old = found.get(object_id)
                    if old is not None and old <= reach:
                        continue
                    found[object_id] = reach
                    if k is not None:
                        if old is None:
                            if len(best) < k:
                                heapq.heappush(best, -reach)
                            elif reach < -best[0]:
                                heapq.heapreplace(best, -reach)
                        else:
                            best = [-v for v in sorted(found.values())[:k]]
                            heapq.heapify(best)
            for neighbour, length in self.adj.get(node, {}).items():
                if neighbour not in dist:
                    heapq.heappush(heap, (d + length, neighbour))
        return dist, found

    # -- answers ---------------------------------------------------------
    def solve(self, query: Dict[str, object]):
        """The ground truth for one wire query (memoised per state)."""
        # OD cells are node distances: object writes leave them as they are.
        if query["type"] == "od_matrix":
            answers = self._network_state()["answers"]
        else:
            answers = self._state()["answers"]
        key = _query_key(query)
        answer = answers.get(key)
        if answer is None:
            answer = answers[key] = self._solve(query)
        return answer

    def _solve(self, query):
        kind = query["type"]
        predicate = dict(query.get("predicate") or {})
        if kind == "knn":
            _dist, found = self._sweep(
                [query["node"]], math.inf, predicate, query["k"]
            )
            return found
        if kind == "range":
            _dist, found = self._sweep(
                [query["node"]], query["radius"], predicate, None
            )
            return found
        if kind == "service_area":
            _dist, found = self._sweep(
                [query["node"]], max(query["breaks"]), predicate, None
            )
            return found
        if kind == "route_knn":
            _dist, found = self._sweep(
                query["path"], math.inf, predicate, query["k"]
            )
            return found
        if kind == "aggregate_knn":
            combine = {"sum": sum, "max": max, "min": min}[query["agg"]]
            tables = [self.distances(node) for node in query["nodes"]]
            found = {}
            for object_id, (edge, _delta, _attrs) in self.objects.items():
                if not self._matches(object_id, predicate):
                    continue
                parts = []
                for table in tables:
                    reach = [
                        table[n] + self._offset(object_id, n)
                        for n in edge
                        if n in table
                    ]
                    if not reach:
                        break
                    parts.append(min(reach))
                else:
                    found[object_id] = combine(parts)
            return found
        if kind == "od_matrix":
            return [
                [self.distances(s).get(t, math.inf) for t in query["targets"]]
                for s in query["sources"]
            ]
        raise ValueError(f"oracle has no rule for query type {kind!r}")

    def check(self, query: Dict[str, object], rows: Sequence[dict]) -> Optional[str]:
        """None when ``rows`` is a correct answer to ``query``."""
        if not isinstance(rows, list):
            return f"answer is not a list: {rows!r}"
        kind = query["type"]
        truth = self.solve(query)
        if kind == "od_matrix":
            return _check_od(query, truth, rows)
        if kind in ("knn", "route_knn", "aggregate_knn"):
            return self._check_nearest(query, truth, rows)
        return self._check_within(query, truth, rows)

    def _check_rows(self, query, truth, rows) -> Optional[str]:
        """Shared per-row rules: known object, predicate, distance, order."""
        predicate = dict(query.get("predicate") or {})
        seen = set()
        previous = -math.inf
        for row in rows:
            object_id = row.get("object_id")
            distance = row.get("distance")
            if object_id in seen:
                return f"object {object_id} answered twice"
            seen.add(object_id)
            if object_id not in self.objects:
                return f"object {object_id} does not exist"
            if not self._matches(object_id, predicate):
                return f"object {object_id} fails predicate {predicate}"
            if not isinstance(distance, (int, float)):
                return f"object {object_id} has distance {distance!r}"
            if distance < previous - TOL:
                return "distances not in ascending order"
            previous = distance
            expected = truth.get(object_id)
            if expected is None or abs(expected - distance) > TOL:
                return (
                    f"object {object_id} at {distance!r}, "
                    f"oracle says {expected!r}"
                )
        return None

    def _check_nearest(self, query, truth, rows) -> Optional[str]:
        problem = self._check_rows(query, truth, rows)
        if problem:
            return problem
        ranked = sorted(truth.values())[: query["k"]]
        if len(rows) != len(ranked):
            return f"{len(rows)} answers, oracle has {len(ranked)}"
        for row, expected in zip(rows, ranked):
            if abs(row["distance"] - expected) > TOL:
                return f"rank distance {row['distance']!r} != {expected!r}"
        return None

    def _check_within(self, query, truth, rows) -> Optional[str]:
        problem = self._check_rows(query, truth, rows)
        if problem:
            return problem
        breaks = (
            sorted(query["breaks"])
            if query["type"] == "service_area"
            else [query["radius"]]
        )
        limit = breaks[-1]
        answered = {row["object_id"] for row in rows}
        for object_id, distance in truth.items():
            if distance <= limit - TOL and object_id not in answered:
                return f"object {object_id} at {distance!r} missing"
        for row in rows:
            if row["distance"] > limit + TOL:
                return f"object {row['object_id']} beyond {limit!r}"
        if query["type"] == "service_area":
            for row in rows:
                bucket = row.get("bucket")
                allowed = {
                    index
                    for index, cut in enumerate(breaks)
                    if row["distance"] <= cut + TOL
                    and (index == 0 or row["distance"] > breaks[index - 1] - TOL)
                }
                if bucket not in allowed:
                    return f"object {row['object_id']} in bucket {bucket!r}"
        return None


def _check_od(query, truth, rows) -> Optional[str]:
    sources, targets = query["sources"], query["targets"]
    if len(rows) != len(sources) * len(targets):
        return f"{len(rows)} cells for a {len(sources)}x{len(targets)} matrix"
    cells = {}
    for index, row in enumerate(rows):
        i, j = divmod(index, len(targets))
        if row.get("source") != sources[i] or row.get("target") != targets[j]:
            return f"cell {index} is ({row.get('source')}, {row.get('target')})"
        distance = row.get("distance")
        expected = truth[i][j]
        if math.isinf(expected):
            if distance is not None:
                return f"unreachable cell {index} answered {distance!r}"
        elif distance is None or abs(distance - expected) > TOL:
            return f"cell {index} is {distance!r}, oracle says {expected!r}"
        if sources[i] == targets[j] and distance != 0:
            return f"diagonal cell {index} is {distance!r}"
        cells[(sources[i], targets[j])] = distance
    if sorted(sources) == sorted(targets):
        for (s, t), distance in cells.items():
            mirror = cells[(t, s)]
            if (distance is None) != (mirror is None) or (
                distance is not None and abs(distance - mirror) > TOL
            ):
                return f"cells ({s}, {t}) and ({t}, {s}) differ"
    return None


def _memo_of(memos: Dict[str, dict], edits) -> dict:
    """The memo for the state ``edits`` describe.  Besides it, only the
    state as loaded is kept, which every undone write returns to."""
    key = repr(sorted(edits, key=repr))
    memo = memos.get(key)
    if memo is None:
        loaded = memos.get(_LOADED)
        memos.clear()
        if loaded is not None:
            memos[_LOADED] = loaded
        memo = memos[key] = {"full": {}, "answers": {}}
    return memo


_LOADED = repr([])


def _query_key(query: Dict[str, object]) -> str:
    return repr(sorted(query.items()))
