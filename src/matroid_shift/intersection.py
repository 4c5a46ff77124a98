"""Shifted optimization over intersections of strongly base orderable matroids.

For two matroids from the uniform/partition/transversal families (all
gammoids, hence strongly base orderable), the shuffle matroids of the two
factors intersect exactly in the shuffle set of the intersection, so the
shifted OPTIMAL VALUE is a weighted matroid intersection over the two shuffle
matroids.  A row's cells are parallel in both of them and its shifted
profits are nonincreasing, so the intersection runs on row counts: each
stage has at most two nodes per row (its next copy and its last copy), and
the engine of each factor's n-union gives every row below n copies its
circuit from the row counts (see constructions.count_union).  The n-union
of a partition matroid with block capacities c_B is the partition matroid
on counts with r[i] <= n and each block summing to at most n * c_B (deal
a block's copies round-robin over the n parts), so a partition factor
answers from block sums, taken afresh at each stage in one pass over the
counts, and so does a uniform one (one block); a transversal factor keeps
one flow, moves it to the counts, and answers every row from one pass
over it (see constructions.AgentFlow).
The same call checks that the counts are still in the union, and reports
a circuit that several rows close once: a full block, or the elements
serving the agents that several rows reach.  The arcs come from those
circuits only: the swaps into a source and out of a sink are never on a
cheapest, fewest-hop path, since such a path would close a cycle, and no
cycle has negative cost (Frank, 1981).  Each shared circuit becomes one hub
node of cost 0, so a stage has one successor list per circuit, not one arc
per pair of rows.  Each stage labels the nodes with one integer, cost * K +
hops, by one Bellman-Ford pass, then walks tight arcs to the
lexicographically smallest cheapest path.  The stages stop at the first
path that gains nothing: the gains never rise.  Recovering a feasible
witness is open in general; it is provided here for matchings in bipartite
graphs, where an n-edge-coloring of the row-sum multigraph splits the
optimal matrix into n matchings.
"""

from __future__ import annotations

from typing import Sequence

from .constructions import AgentFlow, BlockSums, Matrix01, SlotUnion, count_union, edge_coloring
from .errors import DisallowedKindError, InfeasibleError, InputError, InternalError
from .matroids import (Matroid, PartitionMatroid, Subset01, check_weight_guard, checked_ints,
                       copy_count, json_int)
from .solver import ProfitMatrix, ShiftedSolution, _flat_weights, validate, vulnerability_vector

SBO_KINDS = ("uniform", "partition", "transversal")


class BipartiteGraph:
    """Bipartite graph with 1-based sides; edge k (0-based) is ground element k."""

    __slots__ = ("left", "right", "edges")

    def __init__(self, left: int, right: int, edges: Sequence[tuple[int, int]]):
        self.left, self.right = checked_ints("side size", left, right)
        if self.left < 1 or self.right < 1:
            raise InputError("both sides need at least one vertex")
        self.edges = tuple(checked_ints("edge endpoint", l, r) for l, r in edges)
        for l, r in self.edges:
            if not (1 <= l <= self.left and 1 <= r <= self.right):
                raise InputError(f"edge ({l},{r}) outside {self.left}x{self.right} bipartition")
        if not self.edges:
            raise InputError("graph needs at least one edge")

    @property
    def d(self) -> int:
        return len(self.edges)

    @classmethod
    def from_json(cls, obj: dict) -> "BipartiteGraph":
        try:
            return cls(json_int(obj["left"]), json_int(obj["right"]),
                       [(json_int(l), json_int(r)) for l, r in obj["edges"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad bipartite graph description: {exc}") from exc


def degree_matroids(g: BipartiteGraph) -> tuple[PartitionMatroid, PartitionMatroid]:
    """The two partition matroids whose common independent sets are matchings.

    A side's blocks are the vertices its edges touch, numbered 0.. in
    increasing order, so their memory follows the edges and not the
    declared side sizes; a side whose every vertex has an edge keeps
    vertex v as block v - 1.
    """
    def blocks(ends: Sequence[int]) -> PartitionMatroid:
        label = {v: b for b, v in enumerate(sorted(set(ends)))}
        return PartitionMatroid([label[v] for v in ends], [1] * len(label))

    left, right = zip(*g.edges)
    return blocks(left), blocks(right)


def _disallowed(m: Matroid) -> DisallowedKindError:
    return DisallowedKindError(
        f"matroid kind {m.kind!r} is not accepted: the value computation "
        f"requires strongly base orderable matroids (one of {', '.join(SBO_KINDS)})")


class IntersectionInstance:
    """Two strongly-base-orderable matroids on one ground set, plus profits."""

    __slots__ = ("m1", "m2", "n", "c")

    def __init__(self, m1: Matroid, m2: Matroid, n: int, c: ProfitMatrix):
        for m in (m1, m2):
            if m.kind not in SBO_KINDS:
                raise _disallowed(m)
        if m1.d != m2.d:
            raise InputError(f"ground sizes differ: {m1.d} vs {m2.d}")
        if c.d != m1.d:
            raise InputError(f"profit matrix has {c.d} rows, ground size is {m1.d}")
        n = copy_count(n)
        if c.n != n:
            raise InputError(f"profit matrix has {c.n} columns, expected {n}")
        self.m1, self.m2, self.n, self.c = m1, m2, n, c


def weighted_matroid_intersection_max(m1: Matroid, m2: Matroid, w: Sequence[int], n: int = 1) -> Subset01:
    """Maximum-weight common independent set of the shuffle matroids of m1, m2.

    The ground set is the d x n cells, flattened row-major, with weights w
    nonincreasing along each row; n = 1 is plain weighted matroid
    intersection.  The cells of a row are parallel in both shuffle matroids,
    so a set is kept as its row counts r and stands for the first r[i] cells
    of each row, the heaviest ones.  Per cardinality stage, it augments
    along a cheapest source-to-sink path of the exchange digraph (cost =
    weight given up minus weight gained), ties broken by fewest arcs then
    lexicographically smallest path, which keeps the current set extreme
    and the search free of negative cycles (Frank, 1981).  So the best
    weight of a k-set is concave in k: the stage gains never rise, and the
    stages stop, before applying it, at the first path that gains nothing.
    The set then held is the first of greatest weight over all stages (the
    empty set, at 0, included), and it is returned as its cells.  Both
    matroids must be partition, uniform or transversal ones, whose unions
    answer circuits on counts (count_union); any other kind, whose union
    runs on slots, raises DisallowedKindError.
    """
    if m1.d != m2.d:
        raise InputError(f"ground sizes differ: {m1.d} vs {m2.d}")
    n, d = copy_count(n), m1.d
    if len(w) != d * n:
        raise InputError(f"weight vector length {len(w)} != ground size {d * n}")
    check_weight_guard(w)  # first: the row-order check compares the weights
    if any(w[f] < w[f + 1] for f in range(d * n) if f % n != n - 1):
        raise InputError("weights must be nonincreasing along each row")

    unions = (count_union(m1, n), count_union(m2, n))
    for m, union in zip((m1, m2), unions):
        if isinstance(union, SlotUnion):
            raise _disallowed(m)
    r = (0,) * d
    while True:
        path = _augmenting_path(*unions, r, w)
        if path is None:
            break
        counts, gained = list(r), 0
        for node in path:
            i = node >> 1
            if node & 1:  # the row gives up its last copy
                counts[i] -= 1
                gained -= w[i * n + counts[i]]
            else:  # the row takes its next copy
                gained += w[i * n + counts[i]]
                counts[i] += 1
        if gained <= 0:
            break  # the gains never rise, so no later stage beats r
        r = tuple(counts)
    return Subset01.from_indices(d * n, [i * n + j for i, c in enumerate(r) for j in range(c)])


def _augmenting_path(u1: BlockSums | AgentFlow, u2: BlockSums | AgentFlow, r: tuple,
                     w: Sequence[int]) -> list[int] | None:
    # Node 2i is the next copy of row i (it exists when r[i] < n) and node
    # 2i + 1 its last copy (when r[i] > 0); the other copies of a row are
    # parallel to these and never cheaper.  A path alternates between the
    # two kinds, so ordering nodes by row orders paths as their cells.
    n, d = u1.n, len(r)
    outside = [i for i, c in enumerate(r) if c < n]
    # Arcs: x->y when x is on the circuit y closes in I in the first shuffle
    # matroid, y->x when x is on y's circuit in the second.  y is a source
    # (a sink) when I + y is independent in the first (second); the swaps
    # into a source and out of a sink, valid for every x, are left out.  A
    # path that starts at source s and enters source s' from x could start
    # at s' instead: the arc x->s exists, so s..x->s is a cycle, whose cost
    # is >= 0, and the suffix from s' is no dearer and shorter.  A path
    # that leaves sink t for x and ends at sink t' could end at t, since
    # t'->x closes the cycle x..t'->x.  So no cheapest, fewest-hop path uses
    # those arcs, its nodes keep their labels, and the walk below returns
    # the same path.
    # Both calls come first: each checks that r is still in its union.  The
    # caller made r and the rows, so the engines take them unchecked.
    (fits1, shared1), (fits2, shared2) = u1.circuits(r, outside), u2.circuits(r, outside)
    if not fits1:
        return None
    # A label is cost * K + hops, one integer ordered as the pair (cost,
    # hops): hops never reach K, since a label with more hops than there
    # are copies is refused below.  step[v] is what entering v adds to a
    # label, and an unlabelled node holds `far`, above every label.
    K, far = 2 * d + 2, float("inf")
    # Each shared circuit is one hub node, numbered from 2d, which costs 0
    # and adds no hop: x -> hub -> every y that closes it in the first
    # matroid, y -> hub -> every x on it in the second.  So every path and
    # label among the copies is as with one arc per pair, each hub's label
    # is its best predecessor's, and a hub's successors are ascending, as
    # js and the circuit are.  No arc enters a source, so a source's label
    # is its own cost at one hop, and each hub of the second matroid
    # starts from the best source that closes its circuit.  A copy is
    # entered only from a hub, so only those copies get a step.
    size = 2 * d + len(shared1) + len(shared2)
    dist, step, succ = [far] * size, [0] * size, [()] * size
    for y in fits1:
        dist[2 * y] = 1 - w[y * n + r[y]] * K
    hub = 2 * d
    for js, circuit in shared1:
        succ[hub] = [2 * y for y in js]
        for y in js:
            step[2 * y] = 1 - w[y * n + r[y]] * K
        for i in circuit:
            if succ[2 * i + 1]:
                succ[2 * i + 1].append(hub)
            else:
                succ[2 * i + 1] = [hub]
        hub += 1
    queue = []  # FIFO: read in order while it grows
    for js, circuit in shared2:
        succ[hub] = [2 * i + 1 for i in circuit]
        for i in circuit:
            step[2 * i + 1] = w[i * n + r[i] - 1] * K + 1
        arc = (hub,)
        for y in js:
            succ[2 * y] = arc
        dist[hub] = min([dist[2 * y] for y in js])
        if dist[hub] < far:
            queue.append(hub)
        hub += 1

    # FIFO Bellman-Ford from those hubs.  An extreme set leaves no
    # negative cycle, so a label with more hops than there are copies is
    # a bug.
    queued = set(queue)
    for u in queue:
        queued.discard(u)
        du = dist[u]
        if du % K > 2 * d:
            raise InternalError("negative cycle in the exchange graph")
        for v in succ[u]:
            cand = du + step[v]
            if cand < dist[v]:
                dist[v] = cand
                if v not in queued:
                    queue.append(v)
                    queued.add(v)
    ends = [dist[2 * y] for y in fits2]
    best = min(ends, default=far)
    if best == far:
        return None
    top = best % K
    if top == 1:  # the path is one copy: the smallest source among the optimal sinks
        return [2 * fits2[ends.index(best)]]
    good = {2 * y for y, label in zip(fits2, ends) if label == best}

    # Tight arcs (dist[v] == dist[u] + step[v]) raise hops by one into a
    # copy and keep them into a hub, so they form a DAG.  Mark the nodes
    # that reach an optimal sink along tight arcs, by decreasing hops and
    # each hub before the copies of its hops, then walk from the smallest
    # source that reaches one through the smallest good successor: every
    # prefix of the lexicographically smallest optimal path is itself
    # smallest.  A copy's tight successors are those of its tight hubs.
    # Sources come last in that order (one hop, and nothing enters them),
    # so only the first good one is looked for.
    def tight(u: int, v: int) -> bool:
        return dist[v] == dist[u] + step[v]

    def reaches(u: int) -> bool:
        return any(v in good and tight(u, v) for v in succ[u])

    sources = {2 * y for y in fits1}
    inner = [u for u in range(size) if dist[u] < far and dist[u] % K < top and u not in sources]
    for u in sorted(inner, key=lambda u: (u < 2 * d) - 2 * (dist[u] % K)):
        if reaches(u):
            good.add(u)
    path = [next(2 * y for y in fits1 if 2 * y in good or reaches(2 * y))]
    while dist[path[-1]] != best:
        u = path[-1]
        path.append(min(next(v for v in succ[h] if v in good and tight(h, v))
                        for h in succ[u] if h in good and tight(u, h)))
    return path


def _shifted_intersection_cells(inst: IntersectionInstance) -> tuple[int, tuple[int, ...]]:
    """The optimal shifted value and the flat cells that reach it."""
    w = _flat_weights(inst.c.shifted())
    cells = weighted_matroid_intersection_max(inst.m1, inst.m2, w, inst.n).indices()
    return sum(w[f] for f in cells), cells


def shifted_value_intersection(inst: IntersectionInstance) -> int:
    """Optimal shifted value over columns common to both matroids.

    Only the value: a column-feasible witness is not recovered in general
    (see solve_shifted_bipartite_matching for the matching case).
    """
    return _shifted_intersection_cells(inst)[0]


def fiber_bipartite_matching(g: BipartiteGraph, n: int, x: Matrix01) -> Matrix01:
    """Split x into n matching columns by edge-coloring its row-sum multigraph.

    Row e of x contributes row_sum(e) parallel copies of edge e; a bipartite
    multigraph with maximum degree at most n always n-edge-colors, and the
    color classes become the columns of y, so y ~ x.  Larger degree means x
    is not equivalent to any n-tuple of matchings.
    """
    if x.d != g.d:
        raise InputError(f"matrix has {x.d} rows, graph has {g.d} edges")
    n = copy_count(n)
    if x.n != n:
        raise InputError(f"matrix has {x.n} columns, expected {n}")

    multiplicity = x.row_sums()
    degree: dict[int, int] = {}
    copies: list[int] = []  # edge ids, one entry per parallel copy
    for e, m_e in enumerate(multiplicity):
        l, r = g.edges[e]
        for node in (l, g.left + r):
            degree[node] = degree.get(node, 0) + m_e
        copies.extend([e] * m_e)
    if any(v > n for v in degree.values()):
        raise InfeasibleError(f"a vertex has multidegree above {n}: not in the shuffle set")

    endpoints = [(g.edges[e][0], g.left + g.edges[e][1]) for e in copies]
    color_of = edge_coloring(endpoints, n)
    rows = [[0] * n for _ in range(g.d)]
    for pos, e in enumerate(copies):
        rows[e][color_of[pos]] = 1
    y = Matrix01(rows)
    validate(y, degree_matroids(g), x=x)
    return y


def solve_shifted_bipartite_matching(g: BipartiteGraph, n: int, c: ProfitMatrix) -> ShiftedSolution:
    """Complete shifted solver over matchings of a bipartite graph.

    Value from the two degree partition matroids, witness recovered by the
    edge-coloring fiber; every returned column is a matching.
    """
    inst = IntersectionInstance(*degree_matroids(g), n, c)
    value, cells = _shifted_intersection_cells(inst)
    y = fiber_bipartite_matching(g, n, Matrix01.from_flat(c.d, n, cells))
    validate(y, (), cbar=c.shifted(), value=value)
    return ShiftedSolution(y, value, vulnerability_vector(y))
