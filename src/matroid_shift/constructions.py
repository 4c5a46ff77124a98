"""Lift, union and shuffle matroids built on top of a base oracle.

For a matroid S over [d] and a copy count n, three derived oracles are
realized here:

* the lift: d x n 0/1 matrices with at most one 1 per row whose column-sum
  vector is independent in S;
* the n-fold union of any matroid T over E: count vectors over E that are
  sums of n T-independent sets (subsets are the 0/1 case), decided on the
  counts alone for the partition, uniform (block sums) and transversal (one
  flow) families, and otherwise by adding one copy at a time along
  matroid-partition augmenting paths, which also produces the parts;
* the shuffle matroid: matrices equivalent to some column-wise selection of n
  independent sets of S, decided by the n-union of S on the row sums.

Matrices over [d] x [n] are flattened row-major: element (i, j) <-> i*n + j
(0-based).  Every module in the package shares this convention.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import ne
from typing import Iterable, Sequence

from .errors import DisallowedKindError, InputError, InternalError
from .matroids import (Matroid, PartitionMatroid, Subset01, TransversalMatroid, UniformMatroid,
                       are_bits, full_rank)

# UnionMatroid.circuits' answer: the rows that fit, and (rows, circuit)
# for each circuit that rows close.
Circuits = tuple[list[int], list[tuple[list[int], tuple[int, ...]]]]


class Matrix01:
    """d x n matrix with 0/1 entries; column j is a Subset01 over [d]."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise InputError("matrix needs at least one row and one column")
        n = len(rows[0])
        if set(map(len, rows)) != {n} or not are_bits(chain.from_iterable(rows)):
            for r in rows:  # name the first fault, row by row
                if len(r) != n:
                    raise InputError("matrix rows have unequal lengths")
                for x in r:
                    if x not in (0, 1):
                        raise InputError(f"matrix entries must be 0 or 1, got {x!r}")
        self.rows = rows

    @classmethod
    def zero(cls, d: int, n: int) -> "Matrix01":
        return cls([[0] * n for _ in range(d)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "Matrix01":
        return cls(list(zip(*columns)))

    @classmethod
    def from_flat(cls, d: int, n: int, elems: Iterable[int]) -> "Matrix01":
        rows = [[0] * n for _ in range(d)]
        for f in elems:
            if not 0 <= f < d * n:
                raise InputError(f"flat index {f} out of range for {d}x{n}")
            i, j = divmod(f, n)
            rows[i][j] = 1
        return cls(rows)

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def columns(self) -> list[Subset01]:
        return [Subset01(col) for col in zip(*self.rows)]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, self.rows))

    def total(self) -> int:
        return sum(self.row_sums())

    def flat_indices(self) -> frozenset:
        n = self.n
        return frozenset(i * n + j for i, r in enumerate(self.rows) for j, x in enumerate(r) if x)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix01) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix01({[list(r) for r in self.rows]})"


class LiftMatroid(Matroid):
    """Matrices over [d] x [n] with at most one 1 per row and column sum in base."""

    kind = "oracle_composite"

    def __init__(self, base: Matroid, n: int):
        n = int(n)
        if n < 1:
            raise InputError(f"copy count must be >= 1, got {n}")
        super().__init__(base.d * n)
        self.base = base
        self.n = n

    def _indep(self, elems: frozenset) -> bool:
        n = self.n
        used_rows = set()
        for f in elems:
            i = f // n
            if i in used_rows:
                return False  # a row sum of 2 is not a 0/1 vector
            used_rows.add(i)
        return self.base._indep(frozenset(used_rows))

    def is_independent_matrix(self, x: Matrix01) -> bool:
        if x.d != self.base.d or x.n != self.n:
            raise InputError(f"matrix is {x.d}x{x.n}, lift expects {self.base.d}x{self.n}")
        return self._indep(x.flat_indices())


class UnionMatroid(Matroid):
    """n-fold union of a matroid, decided on count vectors.

    grow(elements) adds one copy of each element in turn where it fits,
    decompose(r) finds n independent parts holding element i in exactly r[i]
    of them (a plain set is the 0/1 case), and circuits(r, rows) tells
    which rows r can take one more copy of and which circuit each other
    row closes, reporting a circuit that several rows close once, with all
    of them.  One engine (count_union) does the work for each family:

    * partition and uniform parts on block sums (BlockSums): the union of
      n copies of a partition matroid with block capacities c_B is the
      partition matroid on counts with every r[i] <= n and every block sum
      at most n * c_B, and a uniform matroid of rank c is one block of
      capacity c;
    * transversal parts on one flow (AgentFlow): the union of transversal
      matroids is transversal (Edmonds and Fulkerson, 1965);
    * every other family (graphic, GF(2), oracles) on n parts grown by
      matroid partitioning (SlotUnion).  It answers no circuits: the
      intersection, their one caller, takes only the first two kinds.

    The union itself checks the arguments, runs grow's loop, which hands
    every copy to _try_augment (the engine's add), and memoizes
    decompose's answers by count tuple.  grow and decompose continue from
    the state the engine holds, so an instance is mutable: use one per
    run, on one thread.  After an InternalError its state is undefined.
    The matroid it unites keeps no state and may be shared.
    """

    kind = "oracle_composite"

    def __init__(self, part: Matroid, n: int):
        n = int(n)
        if n < 1:
            raise InputError(f"copy count must be >= 1, got {n}")
        super().__init__(part.d)
        self.part = part
        self.n = n
        self._indep_cache: dict[tuple, tuple] = {(0,) * part.d: (frozenset(),) * n}
        self._dep_cache: set = set()
        self._engine = count_union(part, n)
        self.part_rank = self._engine.rank
        self.cap = n * self.part_rank  # no decomposable vector sums to more

    def _indep(self, elems: frozenset) -> bool:
        return self.decompose([int(e in elems) for e in range(self.d)]) is not None

    def decompose(self, counts: Sequence[int]) -> tuple | None:
        """n frozensets holding element i in exactly counts[i] of them, or None.

        The engine brings its state to counts (CountUnion.reach): each copy
        fits exactly when the counts stay decomposable, so counts is
        reached exactly when it decomposes.
        """
        r = tuple(counts)
        hit = self._indep_cache.get(r)
        if hit is not None:
            return hit
        if r in self._dep_cache:
            return None
        if len(r) != self.d or min(r) < 0:
            raise InputError(f"count vector {list(r)} does not fit ground size {self.d}")
        if sum(r) > self.cap:
            return None
        if not self._engine.reach(r):
            self._dep_cache.add(r)
            return None
        self._indep_cache[r] = parts = self._engine.parts()
        return parts

    def grow(self, elements: Iterable[int]) -> tuple[list[int], tuple]:
        """Add a copy of each element in turn where it fits, continuing from
        the state held; return (counts, the parts as frozensets).

        A refused element is never retried: the counts only grow.  A failed
        search from e refuses every element it reached, too: the search
        from any of them reaches a subset of the same elements, so it fails
        as well, now and after any later growth.
        """
        engine = self._engine
        total, refused = sum(engine.counts), set()
        for e in elements:
            if not 0 <= e < self.d:
                raise InputError(f"element {e} out of range for d={self.d}")
            if e in refused or not self._try_augment(e, refused):
                continue
            total += 1
            if total == self.cap:
                break
        return engine.counts[:], engine.parts()

    def _try_augment(self, e: int, refused: set) -> bool:
        """Add a copy of e by the engine's add: one call per copy grow tries."""
        return self._engine.add(e, refused)

    def circuits(self, r: Sequence[int], rows: Iterable[int]) -> Circuits:
        """(fits, shared): the rows the count vector r can take one more
        copy of, and the circuits the other rows close, each reported once.

        fits lists, in the order given, every row j for which r plus a copy
        of j decomposes.  shared lists pairs (js, circuit): every row of js
        closes that circuit, the ascending rows i with r[i] > 0 for which r
        plus a copy of j less a copy of i decomposes; js is ascending.
        Every row given (rows must be distinct) lies in fits or in exactly
        one js.  r itself must decompose; if it does not, an augmentation
        left the union, and InternalError is raised.  Only block sums and
        the flow answer; a slot union raises DisallowedKindError.  The
        arguments are checked here, once per call: the intersection, which
        makes its own, asks the engines directly.
        """
        r, rows = tuple(r), list(rows)
        if rows and not (0 <= min(rows) <= max(rows) < self.d and len(set(rows)) == len(rows)):
            raise InputError(f"rows must lie in 0..{self.d - 1}, each once")
        if len(r) != self.d or min(r) < 0:
            raise InputError(f"count vector {list(r)} does not fit ground size {self.d}")
        return self._engine.circuits(r, rows)


def count_union(part: Matroid, n: int) -> CountUnion:
    """The engine of the n-union of part: block sums for a partition or
    uniform part, one flow for a transversal part, slots for the rest."""
    if isinstance(part, UniformMatroid):
        return BlockSums((0,) * part.d, (part.r,), n)
    if isinstance(part, PartitionMatroid):
        return BlockSums(part.blocks, part.capacities, n)
    if isinstance(part, TransversalMatroid):
        return AgentFlow(part, n)
    return SlotUnion(part, n)


class CountUnion:
    """An engine of the n-union: the count vector it holds and the steps
    that change it.

    counts is the vector held.  add(e, refused) adds a copy of e if it
    fits; if not, it returns False and may add to refused elements none of
    whose copies can fit any more (see UnionMatroid.grow).  drop(excess)
    removes excess[i] copies of each row i it names, parts() splits counts
    into n independent parts, and circuits(r, rows) answers as
    UnionMatroid.circuits, trusting its arguments.  rank is the rank of
    one part.  BlockSums and AgentFlow hold the counts alone and make
    parts only when asked; SlotUnion holds n parts, and counts is their
    sum.
    """

    counts: list
    rank: int

    def reach(self, r: Sequence[int]) -> bool:
        """Bring counts to r: drop the copies r lacks, then add the ones it
        holds, in row order; False, with counts short of r, if one does not
        fit, that is, if r does not decompose."""
        counts = self.counts
        moves = [(i, r[i] - counts[i]) for i in compress(range(len(r)), map(ne, counts, r))]
        excess = {i: -k for i, k in moves if k < 0}
        if excess:
            self.drop(excess)
        refused: set = set()
        for i, k in moves:
            for _ in range(k):
                if not self.add(i, refused):
                    return False
        return True


class SlotUnion(CountUnion):
    """The n-union on n parts grown by matroid partitioning (Knuth, 1973),
    for any matroid; count_union gives it graphic, GF(2) and oracle parts.

    The parts rest on one exchange graph.  Its arcs lead from x to the
    members of the circuit x closes in each part lacking it, whichever
    part holds x, so one node per element finds the same first path as
    one node per copy.  add(e) runs one _search(e) and replays the path it
    finds, a copy of e that a part takes at once being the path of e
    alone; when none fits, the elements the search reached are the
    circuit, and none of them fits either.

    Each part is a slot [part, certificate, memo of circuit answers by
    element], and counts holds the multiplicities they sum to.  _replace
    is the one step that changes parts, for a path augmentation and for a
    trim (drop): each part must hold what it loses and lack what it gains;
    the set is changed in place, its certificate is handed to
    Matroid._derive (which checks the part is independent), and its memo
    is cleared.  It answers no circuits.
    """

    def __init__(self, part: Matroid, n: int):
        self.part, self.n = part, n
        self.counts = [0] * part.d
        self.rank = full_rank(part)
        # One slot per part: [part, certificate, {element: circuit answer}].
        self._slots = [[set(), part._build(frozenset()), {}] for _ in range(n)]
        # A family's own _fits tells _search whether e fits without a
        # circuit; by default _fits is the circuit, read through the memo.
        self._fits = None if type(part)._fits is Matroid._fits else part._fits

    def add(self, e: int, refused: set) -> bool:
        """Add a copy of e along the path _search finds, checking that the
        parts gain one copy of e and keep every other count; False, after
        adding every element the search reached to refused, if none fits."""
        fit, parent = self._search(e, refused)
        if fit is None:
            refused.update(parent)
            return False
        # x goes into part k; then the element that displaced x from a part
        # takes its place there, and so on back to the new copy of e.
        x, k = fit
        changes = {k: ([], [x])}  # part -> (the elements it loses, the ones it gains)
        while parent[x] is not None:
            y, k = parent[x]
            lost, gained = changes.setdefault(k, ([], []))
            lost.append(x)
            gained.append(y)
            x = y
        # The copy balance: the parts gain every element of the chain and
        # lose all but its last, so as multisets the elements gained are
        # those lost plus one copy of e exactly when the chain ends at e.
        if x != e:
            raise InternalError("part multiplicities differ from the requested counts")
        self._replace(changes)
        return True

    def _search(self, e: int, refused: set) -> tuple[tuple[int, int] | None, dict]:
        """Breadth-first search from a new copy of e: (fit, parent).

        A family with its own _fits (graphic) first asks it of each part
        lacking e, in slot order, and the first that takes e is the fit,
        (e, k), with parent {e: None}.  Then each element x taken from the
        queue, e first, asks the parts lacking it, in slot order, for the
        circuit it closes there, through the slot memo.  No circuit means
        x goes straight into that part: that is the fit, (x, k).
        Otherwise the members of the circuit not yet reached are queued.
        parent maps e to None and every other element v reached to (x, k):
        x displaced v from part k.  A part holding x is skipped, since
        swapping parallel copies never shortens a path.  A refused element
        is not entered: nothing it reaches fits (see UnionMatroid.grow),
        so no element on a path to a fit is reached through it, and the
        other elements keep their order in the queue.  The fit and its
        path are those of the search without the pruning.
        """
        parent: dict[int, tuple[int, int] | None] = {e: None}
        slots, fits = self._slots, self._fits
        if fits is not None:
            for k, (p, cert, _) in enumerate(slots):
                if e not in p and fits(cert, p, e):
                    return (e, k), parent
        queue = [e]  # the loop reads it in order while it grows
        circuit = self.part._circuit
        for x in queue:
            for k, (p, cert, known) in enumerate(slots):
                if x in p:
                    continue
                members = known.get(x, False)
                if members is False:
                    members = known[x] = circuit(cert, p, x)
                if members is None:
                    return (x, k), parent
                for v in members:
                    if v not in parent and v not in refused:
                        parent[v] = (x, k)
                        queue.append(v)
        return None, parent

    def _replace(self, changes: dict) -> None:
        """Change part k by (lost, gained) for each k: (lost, gained) in
        changes; it must hold each element it loses and lack each one it
        gains.  Its set is changed in place and its certificate handed to
        _derive; a dependent part raises InternalError.  Its memo is
        cleared, and the counts follow.  Other slots stay as they are."""
        slots, counts, part = self._slots, self.counts, self.part
        for k, (lost, gained) in changes.items():
            slot = slots[k]
            p = slot[0]
            if not (p.issuperset(lost) and p.isdisjoint(gained)):
                raise InternalError("part multiplicities differ from the requested counts")
            p.difference_update(lost)
            p.update(gained)
            cert = part._derive(slot[1], lost, gained, p)
            if cert is None:
                raise InternalError("augmentation left a dependent part")
            slot[1] = cert
            slot[2].clear()
            for x in lost:
                counts[x] -= 1
            for x in gained:
                counts[x] += 1

    def drop(self, excess: dict) -> None:
        """Remove excess[i] copies of each row i, from the parts in slot
        order, in one _replace."""
        left, changes = dict(excess), {}
        for k, (p, _, _) in enumerate(self._slots):
            lost = [x for x, c in left.items() if c and x in p]
            for x in lost:
                left[x] -= 1
            if lost:
                changes[k] = (lost, ())
        self._replace(changes)

    def parts(self) -> tuple:
        return tuple(frozenset(p) for p, _, _ in self._slots)

    def circuits(self, r: tuple, rows: list[int]) -> Circuits:
        raise DisallowedKindError(f"circuits needs a uniform, partition or transversal "
                                  f"part, not {self.part.kind!r}")


class BlockSums(CountUnion):
    """The n-union of a partition matroid on counts, from block sums.

    r decomposes exactly when every r[i] <= n and every block sums to at
    most n * c_B: deal each block's copies round-robin over the n parts,
    row by row, and no part gets two copies of one row (a row has at most
    n) or more than c_B of the block.  A copy fits when neither bound is
    reached.  The rank of a part is the sum over blocks of the block size
    or c_B, whichever is smaller.

    circuits answers from the block sums of r: row j fits when r[j] < n
    and its block sums below n * c_B; a row at n copies closes (j,) alone;
    otherwise the circuit is the rows of j's block that r holds, shared by
    all of that block's rows.  One pass over the rows r holds sums each
    block and groups those rows by block, then one pass sorts the rows
    given: rows that fit, rows at n copies, and rows of full blocks.  It
    keeps nothing between calls, and does not touch counts.
    """

    def __init__(self, blocks: Sequence[int], capacities: Sequence[int], n: int):
        self.blocks, self.n = blocks, n
        self.limits = [n * c for c in capacities]
        self.counts = [0] * len(blocks)
        self.sums = [0] * len(capacities)
        sizes = [0] * len(capacities)
        for b in blocks:
            sizes[b] += 1
        self.rank = sum(map(min, sizes, capacities))

    def add(self, e: int, refused: set) -> bool:
        b = self.blocks[e]
        if self.counts[e] == self.n or self.sums[b] == self.limits[b]:
            refused.add(e)  # the counts only grow, so e stays refused
            return False
        self.counts[e] += 1
        self.sums[b] += 1
        return True

    def drop(self, excess: dict) -> None:
        for i, k in excess.items():
            self.counts[i] -= k
            self.sums[self.blocks[i]] -= k

    def parts(self) -> tuple:
        n, blocks, counts = self.n, self.blocks, self.counts
        parts: list[list[int]] = [[] for _ in range(n)]
        deal = [0] * len(self.limits)  # block -> the part its next copy goes to
        for i in compress(range(len(counts)), counts):
            k = deal[blocks[i]]
            for _ in range(counts[i]):
                parts[k].append(i)
                k = (k + 1) % n
            deal[blocks[i]] = k
        return tuple(map(frozenset, parts))

    def circuits(self, r: tuple, rows: list[int]) -> Circuits:
        n, blocks, limits = self.n, self.blocks, self.limits
        sums = [0] * len(limits)
        held: list[list[int]] = [[] for _ in limits]  # block -> the rows r holds in it, ascending
        for i in compress(range(len(r)), r):
            c, b = r[i], blocks[i]
            sums[b] += c
            if c > n or sums[b] > limits[b]:
                raise InternalError("augmentation left the intersection")
            held[b].append(i)
        fits, shared, full = [], [], {}  # full: block -> its rows given below n copies
        for j in rows:
            b = blocks[j]
            if r[j] == n:
                shared.append(([j], (j,)))
            elif sums[b] < limits[b]:
                fits.append(j)
            elif b in full:
                full[b].append(j)
            else:
                full[b] = [j]
        shared.sort()
        shared += [(sorted(full[b]), tuple(held[b])) for b in sorted(full)]
        return fits, shared


class AgentFlow(CountUnion):
    """The n-union of a transversal matroid on counts, as one kept flow.

    Element i sends counts[i] units to its agents, and agent a takes
    load[a] <= n of them; flow[a] maps each element to the units it sends
    a.  Such a flow exists exactly when counts decomposes: the n matchings
    of the parts add up to one, and König's edge-coloring theorem splits
    one, a bipartite multigraph of degree at most n, into n matchings
    (edge_coloring), the parts.

    A copy of e fits when counts[e] < n and one breadth-first search from
    e reaches an agent below n: from a full agent it goes on through each
    element that sends it a unit, which could send that unit to another
    of its agents instead.  The path found moves one unit of each element
    on it on to the next agent.  A failed search refuses every element it
    saw: the agents it reached are all full, only those elements send them
    units, and none of those has another agent, so while the counts grow
    (loads never fall) a search from any of them fails as well.  So a
    search does not enter a refused element, as in SlotUnion._search.

    circuits brings the flow to r and answers every row from it in one
    pass.  It marks every agent that leads to one below n: those agents,
    each full agent with an element that has one of them, and then, in one
    sweep back, the full agents of the elements that have a marked full
    agent.  Row j fits when r[j] < n and one of its agents is marked; a
    row at n copies closes (j,); any other row closes the elements that
    send a unit to an agent its search reaches (j itself when r[j] > 0):
    dropping such a unit frees an agent the search reaches, and dropping
    any other leaves them all full.  The agents reached form a digraph,
    a -> b when an element sending to a also has agent b; its strongly
    connected components (Tarjan, 1972) give each agent the bitmask of the
    elements its closure serves, without a search per row, and rows with
    one mask share one circuit.
    """

    def __init__(self, part: TransversalMatroid, n: int):
        self.adjacency, self.n = part.adjacency, n
        self.counts = [0] * part.d
        self.load = [0] * part.num_agents
        self.flow: list[dict[int, int]] = [{} for _ in range(part.num_agents)]
        self.users: list[list[int]] = [[] for _ in range(part.num_agents)]  # agent -> its elements
        for i, agents in enumerate(part.adjacency):
            for a in agents:
                self.users[a].append(i)
        self.rank = full_rank(part)

    def add(self, e: int, refused: set) -> bool:
        n, adjacency, load, flow = self.n, self.adjacency, self.load, self.flow
        if self.counts[e] == n:  # not refused: its units may still move on
            return False
        parent: dict[int, tuple[int, int] | None] = {}  # agent -> (agent before it, element moved)
        queue = []  # full agents, read in order while it grows
        seen = {e}
        for a in adjacency[e]:
            parent[a] = None
            if load[a] < n:
                return self._augment(e, a, parent)
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
                            return self._augment(e, b, parent)
                        queue.append(b)
        refused.update(seen)
        return False

    def _augment(self, e: int, b: int, parent: dict) -> bool:
        """Add a unit of e along the path that parent records to agent b."""
        flow = self.flow
        self.load[b] += 1
        self.counts[e] += 1
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

    def drop(self, excess: dict) -> None:
        flow, load, counts = self.flow, self.load, self.counts
        for i, k in excess.items():
            for a in self.adjacency[i]:
                units = flow[a].get(i, 0)
                if units > k:
                    flow[a][i] = units - k
                    units = k
                elif units:
                    del flow[a][i]
                load[a] -= units
                counts[i] -= units
                k -= units
                if not k:
                    break

    def parts(self) -> tuple:
        d, flow = len(self.counts), self.flow
        ends = [(i, d + a) for i in compress(range(d), self.counts) for a in self.adjacency[i]
                for _ in range(flow[a].get(i, 0))]
        parts: list[set] = [set() for _ in range(self.n)]
        for (i, _), k in zip(ends, edge_coloring(ends, self.n)):
            parts[k].add(i)
        return tuple(map(frozenset, parts))

    def circuits(self, r: tuple, rows: list[int]) -> Circuits:
        if not self.reach(r):
            raise InternalError("augmentation left the intersection")
        n, adjacency, flow, counts, users = self.n, self.adjacency, self.flow, self.counts, self.users
        marked = [units < n for units in self.load]
        full = [a for a, room in enumerate(marked) if not room]
        todo = []  # full agents marked, whose elements are still to be swept
        for a in full:
            if any(marked[b] for x in flow[a] for b in adjacency[x]):
                marked[a] = True
                todo.append(a)
        swept = set()
        while todo:
            for x in users[todo.pop()]:
                if counts[x] and x not in swept:
                    swept.add(x)
                    for a in adjacency[x]:
                        if not marked[a] and x in flow[a]:
                            marked[a] = True
                            todo.append(a)
        # The elements whose agents are all unmarked (full); a loop has none.
        stuck = {x for a in full if not marked[a] for x in users[a]
                 if not any(marked[b] for b in adjacency[x])}
        fits, shared, closed = [], [], []
        for j in rows:
            if r[j] == n:
                shared.append(([j], (j,)))
            elif j in stuck or not adjacency[j]:
                closed.append(j)
            else:
                fits.append(j)
        shared.sort()
        if closed:
            serves = self._closures(a for j in closed for a in adjacency[j])
            groups: dict[int, list[int]] = {}  # circuit bitmask -> the rows that close it
            for j in closed:
                mask = 0
                for a in adjacency[j]:
                    mask |= serves[a]
                groups.setdefault(mask, []).append(j)
            shared += [(sorted(js), _members(mask)) for mask, js in groups.items()]
        return fits, shared

    def _closures(self, starts: Iterable[int]) -> dict[int, int]:
        """agent -> bitmask of the elements that send a unit to an agent it
        reaches, for every agent reached from starts: Tarjan's strongly
        connected components, with an explicit stack of successor
        iterators, each component's mask the union of its agents' own and
        those of the components it reaches, finished before it."""
        flow, adjacency = self.flow, self.adjacency
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        mask: dict[int, int] = {}
        serves: dict[int, int] = {}  # agent of a finished component -> its mask
        stack: list[int] = []

        def enter(a: int) -> tuple:
            index[a] = low[a] = len(index)
            bits = 0
            for x in flow[a]:
                bits |= 1 << x
            mask[a] = bits
            stack.append(a)
            return a, (b for x in flow[a] for b in adjacency[x])

        for root in starts:
            if root in index:
                continue
            work = [enter(root)]
            while work:
                a, succ = work[-1]
                for b in succ:
                    if b not in index:
                        work.append(enter(b))
                        break
                    if b in serves:
                        mask[a] |= serves[b]
                    elif index[b] < low[a]:
                        low[a] = index[b]
                else:
                    work.pop()
                    if low[a] == index[a]:
                        bits, members = 0, []
                        while not members or members[-1] != a:
                            members.append(stack.pop())
                            bits |= mask[members[-1]]
                        for x in members:
                            serves[x] = bits
                    if work:
                        p = work[-1][0]
                        if a in serves:
                            mask[p] |= serves[a]
                        elif low[a] < low[p]:
                            low[p] = low[a]
        return serves


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    bits = bin(mask)[:1:-1]  # bit i at position i
    out, i = [], bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return tuple(out)


def edge_coloring(ends: Sequence[tuple[int, int]], n: int) -> list[int]:
    """A color in 0..n-1 for each edge of a bipartite multigraph, no two
    edges at one vertex alike; ends[k] holds the two ends of edge k, the
    sides numbered apart, and no vertex may have more than n edges
    (König's theorem).

    Edges are colored in turn.  An edge takes the smallest color free at
    both ends; when none is, with a the first color free at u and b the
    first free at v, a and b swap along the path from v that alternates
    them, which bipartite parity keeps away from u, freeing a at both.
    """
    colored: dict[int, dict[int, int]] = {}  # vertex -> {color: edge}
    color_of = [0] * len(ends)

    def free_colors(node: int) -> list[int]:
        used = colored.setdefault(node, {})
        return [k for k in range(n) if k not in used]

    def assign(pos: int, k: int) -> None:
        color_of[pos] = k
        for node in ends[pos]:
            colored.setdefault(node, {})[k] = pos

    for pos in range(len(ends)):
        u, v = ends[pos]
        fu, fv = free_colors(u), free_colors(v)
        common = sorted(set(fu) & set(fv))
        if common:
            assign(pos, common[0])
            continue
        a, b = fu[0], fv[0]
        # Consecutive path edges share a vertex, so every old entry is
        # removed before any new one is written.
        path = []
        node, col = v, a
        while col in colored.get(node, {}):
            q = colored[node][col]
            path.append(q)
            n1, n2 = ends[q]
            node = n2 if node == n1 else n1
            col = b if col == a else a
        for q in path:
            for nd in ends[q]:
                del colored[nd][color_of[q]]
        for q in path:
            assign(q, b if color_of[q] == a else a)
        assign(pos, a)
    return color_of


class ShuffleMatroid(Matroid):
    """The matroid of matrices row-equivalent to a column selection from S.

    A 0/1 matrix is equivalent to exactly the matrices with its row sums, so
    membership depends on the row-sum vector alone: x is a member iff its row
    sums are a sum of n independent sets of S.  The n-union of S decides that
    on counts.  The cells of a row are parallel elements, so the intersection
    solver works on row counts and asks the count unions of its factors for
    their row circuits directly (CountUnion.circuits, one pass for all
    rows); circuit queries here certify the matrix by one decompose and ask
    the oracle once per member (the Matroid defaults).  Its union memoizes
    the decompositions and owns the state it changes in place, so an
    instance is mutable: keep it on a single thread.  S itself keeps no
    state and may be shared.
    """

    kind = "oracle_composite"

    def __init__(self, base: Matroid, n: int):
        self.lift = LiftMatroid(base, n)  # validates n
        super().__init__(self.lift.d)
        self.base = base
        self.n = self.lift.n
        self.union = UnionMatroid(base, self.n)

    def _indep(self, elems: frozenset) -> bool:
        counts = [0] * self.base.d
        n = self.n
        for f in elems:
            counts[f // n] += 1
        return self.union.decompose(counts) is not None

    def is_independent_matrix(self, x: Matrix01) -> bool:
        self._check_matrix(x)
        return self._indep(x.flat_indices())

    def decompose_matrix(self, x: Matrix01) -> tuple[Matrix01, ...] | None:
        """n lift-independent parts with disjoint supports summing to x, or None."""
        self._check_matrix(x)
        parts = self.union.decompose(x.row_sums())
        if parts is None:
            return None
        # Part k takes, in each row it holds, one of the 1s of that row of x.
        d, n = self.base.d, self.n
        ones = [[j for j, v in enumerate(row) if v] for row in x.rows]
        out = []
        for p in parts:
            cells = frozenset(i * n + ones[i].pop() for i in p)
            if not self.lift._indep(cells):
                raise InternalError("a decomposition part is not lift-independent")
            out.append(Matrix01.from_flat(d, n, cells))
        return tuple(out)

    def _check_matrix(self, x: Matrix01) -> None:
        if x.d != self.base.d or x.n != self.n:
            raise InputError(f"matrix is {x.d}x{x.n}, expected {self.base.d}x{self.n}")


def union_is_independent(part: Matroid, n: int, s: Subset01) -> tuple[bool, tuple[Subset01, ...] | None]:
    """Membership in the n-union of part, with the decomposition on success."""
    if s.d != part.d:
        raise InputError(f"subset length {s.d} != ground size {part.d}")
    parts = UnionMatroid(part, n).decompose(s.bits)
    if parts is None:
        return False, None
    return True, tuple(Subset01.from_indices(part.d, p) for p in parts)


def union_rank_check(base: Matroid, n: int) -> tuple[int, int]:
    """(rank of the lift's ground set, rank of the shuffle's ground set).

    Tests assert these equal (rank(S), n * rank(S)).
    """
    lift_rank = full_rank(LiftMatroid(base, n))
    shuffle_rank = full_rank(ShuffleMatroid(base, n))
    return lift_rank, shuffle_rank
