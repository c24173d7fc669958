"""Inputs made from the seed: the network files, the objects, the queries.

The network is the CA replica at the default mini scale (2100 nodes),
written once to Li-format files under ``.roadbench/data`` in the checkout;
it does not depend on the seed.  Everything else does: the 100 objects
(Table 1's default |O|), their attributes, every query pool and the
writes of ``zipf-churn`` come from ``random.Random`` streams keyed by the
seed, so the same seed gives the same inputs.

Queries are built directly in their wire form (the JSON objects
``POST /query`` takes), so the serving workloads hand the program nothing
but generated bytes.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import subprocess
import sys
from typing import List, Tuple

from oracle import Oracle, read_network

_HERE = os.path.dirname(os.path.abspath(__file__))

#: Table 1 defaults: |O| = 100, k = 5, range radius 0.1 of the diameter.
NUM_OBJECTS = 100
K = 5
RANGE_FRACTION = 0.1

#: Object types and their shares; predicates name one type.
TYPES: Tuple[Tuple[str, float], ...] = (
    ("restaurant", 0.40),
    ("hotel", 0.25),
    ("fuel", 0.20),
    ("charger", 0.15),
)

#: Distinct queries per pool.
POINT_POOL = 640
ANALYSIS_POOL = 96
ZIPF_POOL = 1024
PAGED_POOL = 200

#: Aggregate kNN groups start within this share of the diameter.
GROUP_FRACTION = 0.05

#: Service-area breaks and OD matrix sides.
BREAK_FRACTIONS = (0.05, 0.1, 0.2)
OD_SIDE = 5


def network_files(root: str) -> Tuple[str, str]:
    """The CA replica's node and edge files, written on first use.

    They are written by a child interpreter, so the generator's imports
    never count toward the measured process's peak memory.
    """
    data = os.path.join(root, ".roadbench", "data")
    node_path = os.path.join(data, "CA.cnode")
    edge_path = os.path.join(data, "CA.cedge")
    if not (os.path.exists(node_path) and os.path.exists(edge_path)):
        os.makedirs(data, exist_ok=True)
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), node_path, edge_path],
            check=True,
        )
    return node_path, edge_path


def _write_network(node_path: str, edge_path: str) -> None:
    from repro.eval.datasets import load_dataset
    from repro.graph.io import save_network

    suffix = f".tmp{os.getpid()}"
    save_network(
        load_dataset("CA").network, node_path + suffix, edge_path + suffix
    )
    os.replace(node_path + suffix, node_path)
    os.replace(edge_path + suffix, edge_path)


class Inputs:
    """One seed's objects and query pools over the network files."""

    def __init__(self, node_path: str, edge_path: str, seed: int) -> None:
        self.node_path = node_path
        self.edge_path = edge_path
        self.seed = seed
        self.coords, self.lengths = read_network(node_path, edge_path)
        self.edges = sorted(self.lengths)
        self.nodes = sorted({n for edge in self.edges for n in edge})
        self._oracle_net = Oracle(self.lengths, {})
        self.diameter = _double_sweep(self._oracle_net, self.nodes[0])
        self.radius = round(RANGE_FRACTION * self.diameter, 6)
        xs, ys = zip(*self.coords.values())
        self._box = (min(xs), min(ys), (max(xs) - min(xs)) or 1.0,
                     (max(ys) - min(ys)) or 1.0)
        self.objects = self._place(self.rng("objects"))

    # Inputs are drawn evenly over the map: items in Z-order of their
    # position are cut into equal runs and each run gives one draw.  The
    # seed still picks every object and query, but no seed crowds them
    # into one district, so the work per query varies little by seed.
    def _z_order(self, x: float, y: float) -> int:
        x0, y0, width, height = self._box
        x = int((x - x0) / width * 0xFFFF)
        y = int((y - y0) / height * 0xFFFF)
        code = 0
        for bit in range(16):
            code |= ((x >> bit) & 1) << (2 * bit) | ((y >> bit) & 1) << (2 * bit + 1)
        return code

    def _spread(self, rng: random.Random, items, where, count: int) -> list:
        """``count`` items, one from each of ``count`` runs of the Z-order."""
        ordered = sorted(items, key=lambda item: (self._z_order(*where(item)), item))
        picks = [
            rng.choice(ordered[i * len(ordered) // count:
                               (i + 1) * len(ordered) // count])
            for i in range(count)
        ]
        rng.shuffle(picks)
        return picks

    def _place(self, rng: random.Random):
        """|O| objects spread evenly, with exact type shares."""
        def midpoint(edge):
            (x1, y1), (x2, y2) = self.coords[edge[0]], self.coords[edge[1]]
            return (x1 + x2) / 2, (y1 + y2) / 2

        edges = self._spread(rng, self.edges, midpoint, NUM_OBJECTS)
        types = [name for name, share in TYPES
                 for _ in range(round(share * NUM_OBJECTS))]
        rng.shuffle(types)
        return {
            object_id: (
                edge,
                round(rng.uniform(0.05, 0.95) * self.lengths[edge], 6),
                {"type": types[object_id]},
            )
            for object_id, edge in enumerate(edges)
        }

    def spread_nodes(self, rng: random.Random, count: int) -> List[int]:
        return self._spread(rng, self.nodes, self.coords.__getitem__, count)

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.seed}:{stream}")

    def oracle(self) -> Oracle:
        return Oracle(self.lengths, self.objects)

    # -- query pools -------------------------------------------------------
    def point_pool(self) -> List[dict]:
        """kNN, range and aggregate kNN (2:2:1) at uniform nodes; every
        other query of each kind carries a predicate."""
        return self._mixed("point", ("knn", "range", "knn", "range",
                                     "aggregate_knn"), POINT_POOL)

    def zipf_pool(self) -> List[dict]:
        """kNN and range (1:1) at uniform nodes, every other one filtered;
        the pool's order is the Zipf rank, hottest first."""
        return self._mixed("zipf", ("knn", "range"), ZIPF_POOL)

    def _mixed(self, stream: str, kinds, count: int) -> List[dict]:
        rng = self.rng(stream)
        shapes = itertools.cycle(
            [(kind, False) for kind in kinds] + [(kind, True) for kind in kinds]
        )
        nodes = self.spread_nodes(rng, count)
        return [self._point(rng, *next(shapes), node) for node in nodes]

    def paged_pool(self) -> List[dict]:
        """The paper's protocol: half kNN (k=5), half range (r=0.1 diam),
        no predicate, at distinct uniform nodes."""
        rng = self.rng("paged")
        return [
            {"type": "knn", "node": node, "k": K} if i % 2 == 0
            else {"type": "range", "node": node, "radius": self.radius}
            for i, node in enumerate(self.spread_nodes(rng, PAGED_POOL))
        ]

    def analysis_pool(self) -> List[dict]:
        """OD matrices, multi-break service areas and route kNN, in turn;
        every other service area and route kNN carries a predicate."""
        rng = self.rng("analysis")
        filtered = itertools.cycle((False, False, True, True))
        makers = itertools.cycle((self._od, self._service_area, self._route_knn))
        return [
            next(makers)(rng, next(filtered), node)
            for node in self.spread_nodes(rng, ANALYSIS_POOL)
        ]

    def _point(self, rng, kind: str, filtered: bool, node: int) -> dict:
        if kind == "knn":
            query = {"type": "knn", "node": node, "k": K}
        elif kind == "range":
            query = {"type": "range", "node": node, "radius": self.radius}
        else:
            # A group meeting up: the other two members start nearby.
            ball = self._oracle_net._sweep(
                [node], GROUP_FRACTION * self.diameter, None, None
            )[0]
            near = sorted(n for n in ball if n != node)
            query = {
                "type": "aggregate_knn",
                "nodes": [node] + rng.sample(
                    near if len(near) >= 2 else self.nodes, 2),
                "k": K,
                "agg": rng.choice(("sum", "max", "min")),
            }
        if filtered:
            query["predicate"] = {"type": _pick_type(rng)}
        return query

    def _od(self, rng: random.Random, _filtered: bool, node: int) -> dict:
        sources = [node] + rng.sample(self.nodes, OD_SIDE - 1)
        if rng.random() < 0.5:
            targets = list(reversed(sources))  # square: diagonal, symmetry
        else:
            targets = rng.sample(self.nodes, OD_SIDE)
        return {"type": "od_matrix", "sources": sources, "targets": targets}

    def _service_area(self, rng: random.Random, filtered: bool, node: int) -> dict:
        breaks = [round(f * self.diameter, 6) for f in BREAK_FRACTIONS]
        query = {"type": "service_area", "node": node, "breaks": breaks}
        if filtered:
            query["predicate"] = {"type": _pick_type(rng)}
        return query

    def _route_knn(self, rng: random.Random, filtered: bool, node: int) -> dict:
        path = self.route(node, rng.choice(self.nodes))
        query = {"type": "route_knn", "path": path, "k": K}
        if filtered:
            query["predicate"] = {"type": _pick_type(rng)}
        return query

    def route(self, start: int, end: int) -> List[int]:
        """A shortest path (at most 40 nodes) from ``start`` toward ``end``."""
        adjacency = self._oracle_net.adj
        parent = {start: start}
        dist = {start: 0.0}
        heap = [(0.0, start)]
        done = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            if node == end:
                break
            for nxt, length in adjacency[node].items():
                if nxt not in dist or d + length < dist[nxt]:
                    dist[nxt] = d + length
                    parent[nxt] = node
                    heapq.heappush(heap, (d + length, nxt))
        path = [end]
        while path[-1] != start:
            path.append(parent[path[-1]])
        return list(reversed(path))[:40]


def _pick_type(rng: random.Random) -> str:
    names = [name for name, _share in TYPES]
    shares = [share for _name, share in TYPES]
    return rng.choices(names, shares)[0]


def _double_sweep(oracle: Oracle, start: int) -> float:
    """Diameter estimate: the farthest distance from the farthest node."""
    first = oracle.distances(start)
    far = max(first, key=first.get)
    return max(oracle.distances(far).values())


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
    _write_network(sys.argv[1], sys.argv[2])
