"""Matroids given by independence oracles.

Every matroid here is a declarative description of a ground set [d]
together with an independence test.  Five concrete families are provided
(graphic, uniform, partition, linear over GF(2), transversal) plus a generic
wrapper for externally supplied oracles.  On top of the oracle interface sit
the classic primitives: rank of a subset and the max-weight greedy algorithm.
The descriptions never change and keep no other state.  A circuit query
certifies its set independent and answers from that certificate, which the
graphic, transversal and GF(2) families make (a spanning forest with its
trees as union-find classes, a matching as the n-union's flow at n = 1,
an echelon basis) per call; the slot engine of the union matroid
(SlotUnion) holds one per part and hands it to _derive when the part
changes.

Elements are 0-based internally; JSON files use 1-based indices throughout.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Collection, Iterable, Sequence

from .errors import InputError, OverflowGuardError

# Summed absolute weights must stay below this for exact 64-bit semantics.
WEIGHT_GUARD = 2**61

_BITS = frozenset((0, 1))
_INT = frozenset((int,))


def are_bits(values: Iterable) -> bool:
    """Whether every value equals 0 or 1, in one sweep at C speed.  False
    also when a value cannot be hashed: the caller's own loop over the
    values then names the first bad one (or accepts them all)."""
    try:
        return _BITS.issuperset(values)
    except TypeError:
        return False


def are_ints(values: Iterable) -> bool:
    """Whether every value is an int itself (no bool or float), at C speed."""
    return _INT.issuperset(map(type, values))


class Subset01:
    """0/1 indicator vector over a ground set of size d, kept as ints."""

    __slots__ = ("bits",)

    def __init__(self, bits: Iterable[int]):
        bits = tuple(bits)
        if not are_bits(bits):
            for b in bits:
                if b not in (0, 1):
                    raise InputError(f"subset entries must be 0 or 1, got {b!r}")
        self.bits = bits if are_ints(bits) else tuple(map(int, bits))

    @classmethod
    def from_indices(cls, d: int, indices: Iterable[int]) -> "Subset01":
        bits = [0] * d
        for i in indices:
            if not 0 <= i < d:
                raise InputError(f"element index {i} out of range for d={d}")
            bits[i] = 1
        return cls(bits)

    @classmethod
    def full(cls, d: int) -> "Subset01":
        return cls([1] * d)

    @property
    def d(self) -> int:
        return len(self.bits)

    def indices(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.bits)), self.bits))

    def size(self) -> int:
        return sum(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subset01) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"Subset01({list(self.bits)})"


class Matroid:
    """Base class: an independence oracle over ground set {0, .., d-1}.

    A certificate proves a set independent: _build makes one, _derive makes
    one from the certificate of a set a few elements away, _circuit
    answers a circuit from one in hand, and _fits tells from one whether
    an element can join the set.  circuit is the one public way in: it
    builds the certificate, refuses a dependent set, and asks _circuit.
    The graphic family defines all four hooks, the transversal and GF(2)
    families _build and _circuit, uniform and partition matroids only
    _circuit.  By default the certificate is the set itself, checked
    by the oracle, _circuit asks the oracle once per member, and _fits asks
    _circuit.
    """

    kind = "abstract"

    def __init__(self, d: int):
        (d,) = checked_ints("ground size", d)
        if d < 1:
            raise InputError(f"ground size must be >= 1, got {d}")
        self.d = d

    def is_independent(self, s: Subset01) -> bool:
        if s.d != self.d:
            raise InputError(f"subset length {s.d} != ground size {self.d}")
        return self._indep(frozenset(s.indices()))

    def _indep(self, elems: frozenset) -> bool:
        raise NotImplementedError

    def _rank(self, elems: Collection[int]) -> int:
        """Size of a maximum independent subset of the distinct elems.

        This default inserts greedily, one oracle call per element; the five
        families count in one pass instead.
        """
        cur: frozenset = frozenset()
        for e in elems:
            cand = cur | {e}
            if self._indep(cand):
                cur = cand
        return len(cur)

    def circuit(self, indep, e: int) -> tuple[int, ...] | None:
        """Members of independent indep (e not in it) on the circuit of indep + e.

        Ascending; None if indep + e is independent.  InputError if an
        element is outside [d], if e is in indep, or if indep is dependent:
        _build certifies it, and _circuit answers from that certificate.
        """
        indep = frozenset(indep)
        if e in indep or not all(0 <= x < self.d for x in indep | {e}):
            raise InputError(f"circuit needs e outside indep, both within 0..{self.d - 1}")
        cert = self._build(indep)
        if cert is None:
            raise InputError("circuit needs an independent set")
        return self._circuit(cert, indep, e)

    def _build(self, part: frozenset):
        """A certificate that part is independent, or None if it is not."""
        return part if self._indep(part) else None

    def _derive(self, cert, removed: Collection[int], added: Collection[int], part: Collection[int]):
        """The certificate of part, given cert of part + removed - added, or
        None if part is dependent.  cert is handed over: it may be changed,
        and only the result is used.  This default builds afresh."""
        return self._build(part)

    def _circuit(self, cert, indep: frozenset, e: int) -> tuple[int, ...] | None:
        """circuit(indep, e), given the certificate of indep.

        This default asks the oracle once per member, |indep| + 1 calls in
        all; the five families answer from a construction instead (a count,
        a block, a forest path, an alternating search over one matching, a
        reduction over one echelon basis).
        """
        if self._indep(indep | {e}):
            return None
        return tuple(x for x in sorted(indep) if self._indep((indep - {x}) | {e}))

    def _fits(self, cert, indep: frozenset, e: int) -> bool:
        """Whether indep + e is independent, given the certificate of indep:
        _circuit(cert, indep, e) is None.  A family overrides it only when
        it answers without building the circuit, as SlotUnion._search asks
        such a family's _fits of each part before any circuit."""
        return self._circuit(cert, indep, e) is None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(d={self.d})"


class GraphicMatroid(Matroid):
    """Independent sets are acyclic edge sets of an undirected graph.

    Vertices are 1..vertices; edge k (0-based) is ground element k.  Parallel
    edges and self-loops are allowed; a self-loop is never independent.

    The rank, and with it the oracle, is one union-find pass over the
    relabelled vertices, counting the edges that join two components.

    The certificate of an independent set is a pair (up, comp) over the
    relabelled vertices.  up is a rooted spanning forest of the set: up[x]
    is (parent vertex, edge) for a child x and None for a root.  comp is a
    union-find whose classes are the trees of up.  One breadth-first search
    builds both, and the certificate of a nearby set is changed into it in
    place: a cut drops the pointer carrying an edge (by edge id, so
    parallel edges stay apart), and a link re-roots the tree of the
    endpoint nearer its root at that endpoint, hangs it under the other and
    joins their classes.  A derive that only links tells two trees apart by
    their classes and climbs the endpoints in turn only until one reaches
    its root; after a cut, whose classes are stale, each endpoint climbs to
    its root.  An edge joining two reached vertices, or linking a tree to
    itself, closes a cycle: the set is dependent.  If the endpoints of
    every edge cut still share a root at the end, no class split (as in a
    swap along a circuit); otherwise comp is taken from a fresh build of
    the set.

    indep + e is independent exactly when the endpoints of e lie in
    different trees, so _fits, which a slot union's search asks of each
    part before any circuit, compares their classes in comp, with no
    climb and no path: most copies of a spanning-tree greedy are placed
    so and linked with no cut.  The circuit of indep + e climbs indep's
    forest from both endpoints of e in turn, marking the vertices passed,
    and stops at the first vertex one side reaches that the other side
    marked: their nearest common ancestor.  Then it collects the edges
    from each endpoint up to it.
    """

    kind = "graphic"

    def __init__(self, vertices: int, edges: Sequence[tuple[int, int]]):
        super().__init__(len(edges))
        (self.vertices,) = checked_ints("vertex count", vertices)
        if self.vertices < 1:
            raise InputError("graph needs at least one vertex")
        self.edges = tuple(checked_ints("edge endpoint", u, v) for u, v in edges)
        for u, v in self.edges:
            if not (1 <= u <= self.vertices and 1 <= v <= self.vertices):
                raise InputError(f"edge ({u},{v}) has an endpoint outside 1..{self.vertices}")
        # The oracle's union-find and the forests run over the vertices that
        # edges touch, numbered 0.. in order of appearance, so their memory
        # follows the edges and not the declared vertex count.
        label: dict[int, int] = {}
        self._ends = tuple((label.setdefault(u, len(label)), label.setdefault(v, len(label)))
                           for u, v in self.edges)
        self._touched = len(label)

    def _indep(self, elems: frozenset) -> bool:
        return self._rank(elems) == len(elems)  # a third of the time of _build

    def _rank(self, elems: Collection[int]) -> int:
        parent = list(range(self._touched))  # union-find with path halving
        ends, joins = self._ends, 0
        for e in elems:
            u, v = ends[e]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                joins += 1
        return joins

    def _circuit(self, cert: tuple, indep: frozenset, e: int) -> tuple[int, ...] | None:
        # e closes a circuit with the forest path between its endpoints.
        # The two sides climb in turn, a and b their next steps, and mark
        # the vertices they pass in one set: a side never passes a vertex
        # twice, so the first marked vertex it reaches is the other side's.
        up = cert[0]
        u, v = self._ends[e]
        if u == v:
            return ()
        seen = {u, v}
        a, b = up[u], up[v]
        while a is not None or b is not None:
            if a is not None:
                x = a[0]
                if x in seen:
                    break
                seen.add(x)
                a = up[x]
            if b is not None:
                x = b[0]
                if x in seen:
                    break
                seen.add(x)
                b = up[x]
        else:
            return None  # both sides stopped at roots: different trees
        path = []
        for y in (u, v):  # the edges from each endpoint up to x
            while y != x:
                y, f = up[y]
                path.append(f)
        path.sort()
        return tuple(path)

    def _fits(self, cert: tuple, indep, e: int) -> bool:
        comp = cert[1]
        u, v = self._ends[e]  # a self-loop has one class: it never fits
        while comp[u] != u:  # _find, inline: the union asks this of every part
            comp[u] = u = comp[comp[u]]
        while comp[v] != v:
            comp[v] = v = comp[comp[v]]
        return u != v

    def _build(self, part: frozenset) -> tuple | None:
        adj: dict[int, list] = {}
        for f in part:
            a, b = self._ends[f]
            adj.setdefault(a, []).append((b, f))
            adj.setdefault(b, []).append((a, f))
        up: list = [None] * self._touched
        comp = list(range(self._touched))  # every vertex points at its root
        seen, links = set(), 0
        for root in adj:
            if root in seen:
                continue
            seen.add(root)
            queue = [root]
            for a in queue:
                for b, f in adj[a]:
                    if b not in seen:
                        seen.add(b)
                        up[b] = (a, f)
                        comp[b] = root
                        links += 1
                        queue.append(b)
        return (up, comp) if links == len(part) else None  # else an edge joins two reached vertices

    def _derive(self, cert: tuple, removed: Collection[int], added: Collection[int],
                part) -> tuple | None:
        up, comp = cert
        for f in removed:
            self._cut(up, f)
        cut = bool(removed)
        for f in added:
            if not self._link(up, comp, f, cut):
                return None
        for f in removed:
            a, b = self._ends[f]
            if _root(up, a)[0] != _root(up, b)[0]:  # the cuts split a tree
                comp[:] = self._build(part)[1]
                break
        return cert

    def _cut(self, up: list, f: int) -> None:
        a, b = self._ends[f]
        if up[a] is not None and up[a][1] == f:
            up[a] = None
        else:
            up[b] = None

    def _link(self, up: list, comp: list, f: int, cut: bool) -> bool:
        # Re-root the tree of the endpoint nearer its root at that endpoint
        # (a on a tie), then hang it under the other one, and join their
        # classes in comp; False if both are in one tree.  With no cut
        # before it, comp's classes are the trees, so they answer that, and
        # the endpoints climb in turn only until one reaches its root.
        # After a cut a class may hold several trees: both climb to theirs.
        a, b = self._ends[f]
        ca, cb = _find(comp, a), _find(comp, b)
        if cut:
            (ra, da), (rb, db) = _root(up, a), _root(up, b)
            if ra == rb:
                return False
            deeper = da > db
        else:
            if ca == cb:
                return False
            x, y = up[a], up[b]
            while x is not None and y is not None:
                x, y = up[x[0]], up[y[0]]
            deeper = x is not None
        comp[ca] = cb
        if deeper:
            a, b = b, a
        x, step, down = a, up[a], None
        while step is not None:  # reverse the pointers on a's way to its root
            up[x] = down
            down = (x, step[1])
            x, step = step[0], up[step[0]]
        up[x] = down
        up[a] = (b, f)
        return True


def _root(up: list, x: int) -> tuple[int, int]:
    """(root of x's tree, depth of x) in a forest of parent pointers."""
    depth, step = 0, up[x]
    while step is not None:
        x, depth = step[0], depth + 1
        step = up[x]
    return x, depth


def _find(comp: list, x: int) -> int:
    """The representative of x's class in a union-find, halving the path."""
    while comp[x] != x:
        comp[x] = x = comp[comp[x]]
    return x


class UniformMatroid(Matroid):
    """Every set of at most r elements is independent."""

    kind = "uniform"

    def __init__(self, d: int, r: int):
        super().__init__(d)
        (r,) = checked_ints("uniform rank", r)
        if not 0 <= r <= d:
            raise InputError(f"uniform rank must satisfy 0 <= r <= d, got r={r}, d={d}")
        self.r = r

    def _indep(self, elems: frozenset) -> bool:
        return len(elems) <= self.r

    def _rank(self, elems: Collection[int]) -> int:
        return min(len(elems), self.r)

    def _circuit(self, cert, indep: frozenset, e: int) -> tuple[int, ...] | None:
        return None if len(indep) < self.r else tuple(sorted(indep))


class PartitionMatroid(Matroid):
    """Per-block cardinality caps: element i belongs to block blocks[i]."""

    kind = "partition"

    def __init__(self, blocks: Sequence[int], capacities: Sequence[int]):
        super().__init__(len(blocks))
        self.capacities = checked_ints("block capacity", *capacities)
        if any(c < 0 for c in self.capacities):
            raise InputError("block capacities must be nonnegative")
        nb = len(self.capacities)
        self.blocks = checked_ints("block id", *blocks)
        for b in self.blocks:
            if not 0 <= b < nb:
                raise InputError(f"block id {b} out of range for {nb} blocks")

    def _indep(self, elems: frozenset) -> bool:
        used = [0] * len(self.capacities)
        for e in elems:
            b = self.blocks[e]
            used[b] += 1
            if used[b] > self.capacities[b]:
                return False
        return True

    def _rank(self, elems: Collection[int]) -> int:
        used = [0] * len(self.capacities)
        for e in elems:
            used[self.blocks[e]] += 1
        return sum(map(min, used, self.capacities))

    def _circuit(self, cert, indep: frozenset, e: int) -> tuple[int, ...] | None:
        blocks = self.blocks
        b = blocks[e]
        same = [x for x in indep if blocks[x] == b]
        return tuple(sorted(same)) if len(same) == self.capacities[b] else None


class LinearGf2Matroid(Matroid):
    """Columns of a 0/1 matrix; independence is linear independence over GF(2).

    The certificate of an independent set is an echelon basis of it, whose
    reduced rows remember which members sum to them; it is always built
    afresh.  The circuit of indep + e is then e's column reduced
    over that basis: a nonzero remainder means indep + e is independent,
    and otherwise the members that the reduction used are the circuit.  The
    rank is one elimination pass.
    """

    kind = "linear_gf2"

    def __init__(self, columns: Sequence[Sequence[int]]):
        super().__init__(len(columns))
        self.columns = tuple(checked_ints("GF(2) column entry", *c) for c in columns)
        lengths = {len(c) for c in self.columns}
        if len(lengths) != 1:
            raise InputError("all GF(2) columns must have the same length")
        self.num_rows = lengths.pop()
        if not all(map(are_bits, self.columns)):
            raise InputError("GF(2) column entries must be 0 or 1")
        self._masks = tuple(sum(bit << k for k, bit in enumerate(col)) for col in self.columns)

    def _indep(self, elems: frozenset) -> bool:
        return self._build(elems) is not None

    def _rank(self, elems: Collection[int]) -> int:
        return self._eliminate({}, elems)

    def _circuit(self, basis: dict, indep: frozenset, e: int) -> tuple[int, ...] | None:
        v, used = self._reduce(basis, e)
        return None if v else tuple(x for x in sorted(indep) if used >> x & 1)

    def _build(self, part: frozenset) -> dict | None:
        # Leading bit -> (reduced column, bitmask of the members summing to it).
        basis: dict[int, tuple[int, int]] = {}
        return basis if self._eliminate(basis, part) == len(part) else None

    def _eliminate(self, basis: dict, elems: Iterable[int]) -> int:
        """Add to basis the elems whose columns it does not span; their number."""
        added = 0
        for e in elems:
            v, used = self._reduce(basis, e)
            if v:
                basis[v.bit_length() - 1] = (v, used)
                added += 1
        return added

    def _reduce(self, basis: dict, e: int) -> tuple[int, int]:
        """e's column reduced over basis, and the bitmask of e and the members
        the reduction used."""
        v, used = self._masks[e], 1 << e
        while v:
            row = basis.get(v.bit_length() - 1)
            if row is None:
                break
            v ^= row[0]
            used ^= row[1]
        return v, used


class TransversalMatroid(Matroid):
    """Independent sets admit a system of distinct representatives.

    Element i may be represented by any agent in adjacency[i] (0-based agent
    ids).  One search over agents (_search) and one path flip (_place)
    serve this matroid and its n-union (constructions.AgentFlow): the
    certificate of an independent set is the union's flow at n = 1, a pair
    (load, flow) that matches it.  _build places the members in turn, and
    the rank is one placing pass sharing one refused set.  The circuit of
    indep + e is what one failed search from e saw besides e: with e those
    elements have too few agents (Hall's condition), and each of them can
    hand its agent down the path to e.
    """

    kind = "transversal"

    def __init__(self, adjacency: Sequence[Sequence[int]], num_agents: int):
        super().__init__(len(adjacency))
        (self.num_agents,) = checked_ints("agent count", num_agents)
        if self.num_agents < 0:
            raise InputError("agent count must be nonnegative")
        rows = [checked_ints("agent id", *row) for row in adjacency]
        for row in rows:
            for a in row:
                if not 0 <= a < self.num_agents:
                    raise InputError(f"agent id {a} out of range for {self.num_agents} agents")
        self.adjacency = tuple(tuple(sorted(set(row))) for row in rows)
        # The flows run over the agents rows name, numbered 0.. in id order
        # (_agents), so their memory follows the rows, not num_agents.
        label = {a: k for k, a in enumerate(sorted({a for row in self.adjacency for a in row}))}
        self._agents = tuple(tuple(map(label.__getitem__, row)) for row in self.adjacency)
        self._named = len(label)

    def _indep(self, elems: frozenset) -> bool:
        return self._build(elems) is not None

    def _rank(self, elems: Collection[int]) -> int:
        load, flow = self._empty_flow()
        refused: set = set()
        return sum(e not in refused and self._place(load, flow, 1, e, refused) for e in elems)

    def _circuit(self, cert: tuple, indep: frozenset, e: int) -> tuple[int, ...] | None:
        agent, _, seen = self._search(*cert, 1, e, ())
        return None if agent is not None else tuple(sorted(seen - {e}))

    def _build(self, part: frozenset) -> tuple | None:
        load, flow = self._empty_flow()
        return (load, flow) if all(self._place(load, flow, 1, e, set()) for e in part) else None

    def _empty_flow(self) -> tuple[list[int], list[dict[int, int]]]:
        return [0] * self._named, [{} for _ in range(self._named)]

    def _search(self, load: list, flow: list, n: int, e: int,
                refused: Collection[int]) -> tuple[int | None, dict, set]:
        """Breadth-first search from a new unit of e for an agent below n:
        (that agent or None, parent, seen).

        load[a] counts the units agent a takes, and flow[a] maps each
        element to the units it sends a.  From a full agent the search goes
        on through each element that sends it a unit, which could send it
        to another of its agents instead.  parent maps each agent reached
        to None (e's own) or to (agent before it, element moved); seen holds
        e and every element entered.  A failed search reached only full
        agents, which only the elements seen serve, and none of those has
        another agent: while loads grow, a search from any of them fails as
        well.  So _place refuses them, and no search enters a refused
        element, as in SlotUnion._search.
        """
        adjacency = self._agents
        parent: dict[int, tuple[int, int] | None] = {}
        queue = []  # full agents, read in order while it grows
        seen = {e}
        for a in adjacency[e]:
            parent[a] = None
            if load[a] < n:
                return a, parent, seen
            queue.append(a)
        for a in queue:
            for x in flow[a]:
                if x in seen or x in refused:
                    continue
                seen.add(x)
                for b in adjacency[x]:
                    if b not in parent:
                        parent[b] = (a, x)
                        if load[b] < n:
                            return b, parent, seen
                        queue.append(b)
        return None, parent, seen

    def _place(self, load: list, flow: list, n: int, e: int, refused: set) -> bool:
        """Add a unit of e along the path _search finds, each element on it
        moving one unit on to the next agent; False, after adding every
        element the search saw to refused, if it finds no agent below n."""
        b, parent, seen = self._search(load, flow, n, e, refused)
        if b is None:
            refused.update(seen)
            return False
        load[b] += 1
        step = parent[b]
        while step is not None:
            a, x = step
            flow[b][x] = flow[b].get(x, 0) + 1
            if flow[a][x] == 1:
                del flow[a][x]
            else:
                flow[a][x] -= 1
            b, step = a, parent[a]
        flow[b][e] = flow[b].get(e, 0) + 1
        return True


class OracleMatroid(Matroid):
    """Wraps an externally supplied independence oracle (oracle_composite kind).

    The callable receives a frozenset of 0-based element indices.  The caller
    is responsible for the function actually describing a matroid.  Its
    circuits come from the Matroid defaults: one oracle call to certify the
    set, then one per member and one for the set plus e.
    """

    kind = "oracle_composite"

    def __init__(self, d: int, fn: Callable[[frozenset], bool]):
        super().__init__(d)
        self._fn = fn

    def _indep(self, elems: frozenset) -> bool:
        return bool(self._fn(frozenset(elems)))


def rank(m: Matroid, s: Subset01) -> int:
    """Size of a maximum independent subset of s."""
    if s.d != m.d:
        raise InputError(f"subset length {s.d} != ground size {m.d}")
    return m._rank(s.indices())


def full_rank(m: Matroid) -> int:
    return m._rank(range(m.d))


def check_weight_guard(values: Iterable[int]) -> None:
    """InputError naming the first weight that is not an int (a subclass
    other than bool will do), else OverflowGuardError if the summed
    absolute weights exceed WEIGHT_GUARD."""
    values = tuple(values)
    if not {int}.issuperset(map(type, values)):
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"weights must be integers, got {v!r}")
    total = sum(map(abs, values))
    if total > WEIGHT_GUARD:
        raise OverflowGuardError(f"summed |weights| {total} exceeds guard {WEIGHT_GUARD}")


def greedy_in_order(m: Matroid, order: Sequence[int], w: Sequence[int], force_basis: bool) -> frozenset:
    """Greedy scan in an explicit element order (callers fix the order).

    Takes an element iff it keeps independence; with force_basis=False,
    nonpositive-weight elements are skipped.
    """
    chosen: frozenset = frozenset()
    for e in order:
        if not force_basis and w[e] <= 0:
            continue
        cand = chosen | {e}
        if m._indep(cand):
            chosen = cand
    return chosen


def greedy_max(m: Matroid, w: Sequence[int], force_basis: bool = False) -> Subset01:
    """Max-weight independent set (or max-weight basis) by the greedy algorithm.

    Elements are scanned in nonincreasing weight, ties by ascending index.
    With force_basis=False only positive-weight elements are taken, so the
    result is a maximum-weight independent set.  With force_basis=True
    nonpositive elements are taken too whenever they keep independence, so the
    result is a basis of maximum total weight among bases.
    """
    if len(w) != m.d:
        raise InputError(f"weight vector length {len(w)} != ground size {m.d}")
    check_weight_guard(w)
    order = sorted(range(m.d), key=lambda e: (-w[e], e))
    chosen = greedy_in_order(m, order, w, force_basis)
    return Subset01.from_indices(m.d, chosen)


# --- JSON descriptions ------------------------------------------------------
#
# Schema: {"kind": "...", "d": int, "params": {...}} with 1-based indices in
# files (edges, blocks, agents); see README for the per-kind params.

def json_int(v) -> int:
    """v itself if it is an int: a float, bool or string is rejected, never rounded."""
    if type(v) is not int:
        raise InputError(f"expected an integer, got {v!r}")
    return v


def checked_ints(what: str, *values) -> tuple[int, ...]:
    """The values, if each is an int itself: a float, bool or string is
    rejected, never rounded, by an InputError naming what it is and the
    first bad value."""
    if not are_ints(values):
        bad = next(v for v in values if type(v) is not int)
        raise InputError(f"{what} must be an integer, got {bad!r}")
    return values


def copy_count(n) -> int:
    """n itself if it is an int >= 1: a float, bool or string is rejected."""
    (n,) = checked_ints("copy count", n)
    if n < 1:
        raise InputError(f"copy count must be >= 1, got {n}")
    return n


def matroid_from_json(obj: dict) -> Matroid:
    if not isinstance(obj, dict):
        raise InputError("matroid description must be a JSON object")
    try:
        kind = obj["kind"]
        d = json_int(obj["d"])
        params = obj["params"]
    except KeyError as exc:
        raise InputError(f"bad matroid description: {exc}") from exc

    try:
        if kind == "graphic":
            m = GraphicMatroid(json_int(params["vertices"]),
                               [(json_int(u), json_int(v)) for u, v in params["edges"]])
        elif kind == "uniform":
            m = UniformMatroid(d, json_int(params["r"]))
        elif kind == "partition":
            m = PartitionMatroid([json_int(b) - 1 for b in params["blocks"]],
                                 [json_int(c) for c in params["capacities"]])
        elif kind == "linear_gf2":
            m = LinearGf2Matroid([[json_int(b) for b in col] for col in params["columns"]])
        elif kind == "transversal":
            m = TransversalMatroid([[json_int(a) - 1 for a in row] for row in params["adjacency"]],
                                   json_int(params["agents"]))
        else:
            raise InputError(f"unknown matroid kind {kind!r}")
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {kind} matroid parameters: {exc}") from exc
    if m.d != d:
        raise InputError(f"{kind} matroid lists {m.d} elements but d={d}")
    return m


def matroid_to_json(m: Matroid) -> dict:
    if isinstance(m, GraphicMatroid):
        params = {"vertices": m.vertices, "edges": [[u, v] for u, v in m.edges]}
    elif isinstance(m, UniformMatroid):
        params = {"r": m.r}
    elif isinstance(m, PartitionMatroid):
        params = {"blocks": [b + 1 for b in m.blocks], "capacities": list(m.capacities)}
    elif isinstance(m, LinearGf2Matroid):
        params = {"columns": [list(c) for c in m.columns]}
    elif isinstance(m, TransversalMatroid):
        params = {"agents": m.num_agents, "adjacency": [[a + 1 for a in row] for row in m.adjacency]}
    else:
        raise InputError(f"matroid kind {m.kind!r} has no JSON form")
    return {"kind": m.kind, "d": m.d, "params": params}
