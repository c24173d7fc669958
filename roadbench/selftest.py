"""Self-test of the oracle: it must accept right answers and flag wrong ones.

On a small grid with a detached pair of nodes, right answers come from a
Floyd-Warshall table computed here; the oracle must accept them and must
report each planted fault: a perturbed distance, a dropped object, and an
answer left stale after an edge reweigh (plus a number where an OD cell
is unreachable).  Every benchmark run calls :func:`run` first and reports
``correct: false`` if it returns any problem.

    python3 roadbench/selftest.py      # exits 1 if the oracle misses a fault
"""

from __future__ import annotations

import itertools
import random
import sys
from typing import Dict, List

from oracle import Oracle, edge_key

SIDE = 5


def _network(rng: random.Random):
    lengths = {}
    for x, y in itertools.product(range(SIDE), repeat=2):
        node = x * SIDE + y
        if x + 1 < SIDE:
            lengths[edge_key(node, node + SIDE)] = round(rng.uniform(1, 9), 6)
        if y + 1 < SIDE:
            lengths[edge_key(node, node + 1)] = round(rng.uniform(1, 9), 6)
    lengths[(100, 101)] = 2.5  # a component no query can reach
    objects = {}
    edges = sorted(lengths)
    for object_id in range(8):
        edge = edges[rng.randrange(len(edges) - 1)]
        delta = round(rng.uniform(0.1, 0.9) * lengths[edge], 6)
        objects[object_id] = (edge, delta, {"type": rng.choice("ab")})
    return lengths, objects


def _table(lengths) -> Dict[int, Dict[int, float]]:
    nodes = sorted({n for edge in lengths for n in edge})
    inf = float("inf")
    dist = {u: {v: (0.0 if u == v else inf) for v in nodes} for u in nodes}
    for (u, v), length in lengths.items():
        dist[u][v] = dist[v][u] = length
    for k in nodes:
        for i in nodes:
            for j in nodes:
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def _object_distances(lengths, objects, table, node):
    out = []
    for object_id, ((a, b), delta, _attrs) in objects.items():
        d = min(table[node][a] + delta, table[node][b] + lengths[(a, b)] - delta)
        out.append((d, object_id))
    return sorted(out)


def _rows(pairs):
    return [{"object_id": i, "distance": d} for d, i in pairs]


def run(seed: int = 7) -> List[str]:
    """Problems found with the oracle; empty when it behaves."""
    rng = random.Random(seed)
    lengths, objects = _network(rng)
    table = _table(lengths)
    oracle = Oracle(lengths, objects)
    problems: List[str] = []

    def expect(query, rows, ok: bool, what: str) -> None:
        verdict = oracle.check(query, rows)
        if ok and verdict is not None:
            problems.append(f"{what}: right answer rejected ({verdict})")
        if not ok and verdict is None:
            problems.append(f"{what}: fault not reported")

    knn = {"type": "knn", "node": 12, "k": 3}
    right = _rows(_object_distances(lengths, objects, table, 12)[:3])
    expect(knn, right, True, "knn")
    bent = [dict(row) for row in right]
    bent[1]["distance"] *= 1.01
    expect(knn, bent, False, "perturbed distance")

    radius = 8.0
    ranged = {"type": "range", "node": 6, "radius": radius}
    inside = [p for p in _object_distances(lengths, objects, table, 6)
              if p[0] <= radius]
    expect(ranged, _rows(inside), True, "range")
    expect(ranged, _rows(inside[:-1]), False, "dropped object")
    bent = _rows(inside)
    bent[0]["distance"] *= 0.99
    expect(ranged, bent, False, "perturbed range distance")

    od = {"type": "od_matrix", "sources": [0, 24, 100], "targets": [0, 24, 100]}
    cells = [
        {"source": s, "target": t,
         "distance": None if table[s][t] == float("inf") else table[s][t]}
        for s in od["sources"] for t in od["targets"]
    ]
    expect(od, cells, True, "od matrix")
    filled = [dict(c) for c in cells]
    filled[2]["distance"] = 1.0
    expect(od, filled, False, "unreachable OD cell answered")

    # Reweigh the first road on the way to the nearest object: the
    # answer from before the write is stale afterwards.
    stale = _rows(_object_distances(lengths, objects, table, 12)[:3])
    (a, b), delta, _attrs = objects[stale[0]["object_id"]]
    near = a if table[12][a] + delta <= table[12][b] + lengths[(a, b)] - delta else b
    if near == 12:
        edge = (a, b)
    else:
        hops = [n for e in lengths if 12 in e for n in e if n != 12]
        hop = min(hops, key=lambda n: lengths[edge_key(12, n)] + table[n][near])
        edge = edge_key(12, hop)
    oracle.reweigh(*edge, lengths[edge] * 3)
    lengths = dict(lengths)
    lengths[edge] *= 3
    fresh = _rows(
        _object_distances(lengths, oracle.objects, _table(lengths), 12)[:3]
    )
    expect(knn, fresh, True, "knn after reweigh")
    expect(knn, stale, False, "stale answer after reweigh")
    return problems


if __name__ == "__main__":
    found = run()
    for problem in found:
        print(problem)
    print("oracle self-test:", "FAILED" if found else "ok (all faults flagged)")
    sys.exit(1 if found else 0)
