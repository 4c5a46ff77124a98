"""Shared test corpora: small named matroids, exhaustive graph families,
and seeded random instance generators."""

from __future__ import annotations

import itertools
import random

from matroid_shift import (
    BipartiteGraph,
    GraphicMatroid,
    LinearGf2Matroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
)

TRIANGLE = GraphicMatroid(3, [(1, 2), (2, 3), (1, 3)])
K4 = GraphicMatroid(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
PATH3_EDGES = [(1, 2), (2, 3), (3, 4)]  # a tree: unique spanning tree


def grid_graph(a: int, b: int) -> GraphicMatroid:
    # Edges in the order the benchmark's grids list them, before relabelling.
    idx = lambda i, j: i * b + j + 1  # noqa: E731
    edges = []
    for i in range(a):
        for j in range(b):
            if j + 1 < b:
                edges.append((idx(i, j), idx(i, j + 1)))
            if i + 1 < a:
                edges.append((idx(i, j), idx(i + 1, j)))
    return GraphicMatroid(a * b, edges)


def family_corpus(max_d: int = 4):
    """Hand-picked instances covering all five families plus degenerate cases."""
    out = [
        TRIANGLE,
        GraphicMatroid(3, [(1, 2), (1, 2), (2, 3), (3, 3)]),  # parallel edges + loop
        GraphicMatroid(4, PATH3_EDGES),
        UniformMatroid(2, 1),
        UniformMatroid(3, 0),
        UniformMatroid(4, 2),
        UniformMatroid(4, 4),
        PartitionMatroid([0, 0, 1, 1], [1, 2]),
        PartitionMatroid([0, 1, 0], [0, 2]),
        LinearGf2Matroid([[1, 0], [0, 1], [1, 1], [0, 0]]),
        LinearGf2Matroid([[1], [1], [1]]),
        TransversalMatroid([[0], [0, 1], [1], []], 2),
        TransversalMatroid([[0], [0], [0]], 1),
    ]
    return [m for m in out if m.d <= max_d]


FAMILIES = ("graphic", "uniform", "partition", "linear_gf2", "transversal")


def random_matroid(rng: random.Random, dmax: int = 6, kind: str | None = None):
    """A random matroid of the given family, or of a random one."""
    kind = kind or rng.choice(list(FAMILIES))
    d = rng.randint(1, dmax)
    if kind == "graphic":
        vertices = rng.randint(2, 5)
        edges = [(rng.randint(1, vertices), rng.randint(1, vertices)) for _ in range(d)]
        return GraphicMatroid(vertices, edges)
    if kind == "uniform":
        return UniformMatroid(d, rng.randint(0, d))
    if kind == "partition":
        nb = rng.randint(1, 3)
        return PartitionMatroid([rng.randrange(nb) for _ in range(d)],
                                [rng.randint(0, 2) for _ in range(nb)])
    if kind == "linear_gf2":
        nrows = rng.randint(1, 4)
        return LinearGf2Matroid([[rng.randint(0, 1) for _ in range(nrows)] for _ in range(d)])
    agents = rng.randint(1, 3)
    return TransversalMatroid(
        [[a for a in range(agents) if rng.random() < 0.5] for _ in range(d)], agents)


def random_sbo_matroid(rng: random.Random, d: int):
    """Partition or transversal matroid over [d] (both strongly base orderable)."""
    if rng.random() < 0.5:
        nb = rng.randint(1, 3)
        return PartitionMatroid([rng.randrange(nb) for _ in range(d)],
                                [rng.randint(0, 2) for _ in range(nb)])
    agents = rng.randint(1, 3)
    return TransversalMatroid(
        [[a for a in range(agents) if rng.random() < 0.5] for _ in range(d)], agents)


def connected_graphs_upto(max_vertices: int = 5):
    """All connected graphs on 2..max_vertices vertices, one per iso class.

    Simple graphs, enumerated as edge subsets of the complete graph and
    deduplicated by the minimum edge list over all vertex relabelings.
    """
    graphs = []
    for v in range(2, max_vertices + 1):
        candidates = list(itertools.combinations(range(1, v + 1), 2))
        seen = set()
        for k in range(v - 1, len(candidates) + 1):
            for edge_set in itertools.combinations(candidates, k):
                if not _connected(v, edge_set):
                    continue
                best = min(
                    tuple(sorted(tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in edge_set))
                    for perm in itertools.permutations(range(1, v + 1))
                )
                if best not in seen:
                    seen.add(best)
                    graphs.append((v, [(a, b) for a, b in best]))
    return graphs


def _connected(v: int, edges) -> bool:
    parent = list(range(v + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(x) for x in range(1, v + 1)}) == 1


def bipartite_graphs_upto(max_edges: int = 6):
    """Every bipartite graph with 1..max_edges edges and no isolated vertices,
    one representative per isomorphism class (sides distinguished).

    A graph is encoded as the multiset of left-vertex neighborhoods over the
    covered right side; canonicalizing under right-side permutations makes
    the enumeration exact: the per-edge-count class counts come out as
    1, 3, 6, 16, 34, 90.
    """
    out = []
    for r_side in range(1, max_edges + 1):
        subsets = sorted(
            tuple(i for i in range(r_side) if mask >> i & 1)
            for mask in range(1, 1 << r_side)
        )
        subsets = [s for s in subsets if len(s) <= max_edges]
        seen = set()
        stars: list = []

        def rec(start: int, budget: int, cover: int) -> None:
            if stars and cover == (1 << r_side) - 1:
                best = None
                for perm in itertools.permutations(range(r_side)):
                    key = tuple(sorted(tuple(sorted(perm[x] for x in s)) for s in stars))
                    if best is None or key < best:
                        best = key
                if best not in seen:
                    seen.add(best)
                    edges = [(li + 1, x + 1) for li, s in enumerate(best) for x in s]
                    out.append(BipartiteGraph(len(best), r_side, edges))
            for idx in range(start, len(subsets)):
                s = subsets[idx]
                if len(s) > budget:
                    continue
                stars.append(s)
                rec(idx, budget - len(s), cover | sum(1 << x for x in s))
                stars.pop()

        rec(0, max_edges, 0)
    return out


def random_explicit_system(rng: random.Random, dmax: int = 5, mmax: int = 4):
    d = rng.randint(1, dmax)
    count = rng.randint(1, min(mmax, 2**d))
    members = set()
    while len(members) < count:
        members.add(tuple(rng.randint(0, 1) for _ in range(d)))
    return d, sorted(members)
