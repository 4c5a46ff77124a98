"""Lift, union and shuffle matroids built on top of a base oracle.

For a matroid S over [d] and a copy count n, three derived oracles are
realized here:

* the lift: d x n 0/1 matrices with at most one 1 per row whose column-sum
  vector is independent in S;
* the n-fold union of any matroid T over E: count vectors over E that are
  sums of n T-independent sets (subsets are the 0/1 case), decided by adding
  one copy at a time along matroid-partition augmenting paths, which also
  produces the parts;
* the shuffle matroid: matrices equivalent to some column-wise selection of n
  independent sets of S, decided by the n-union of S on the row sums.

Matrices over [d] x [n] are flattened row-major: element (i, j) <-> i*n + j
(0-based).  Every module in the package shares this convention.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Iterable, Sequence

from .errors import InputError, InternalError
from .matroids import Matroid, PartitionMatroid, Subset01, UniformMatroid, are_bits, full_rank

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
    of them.  grow and decompose rest on one exchange graph: matroid
    partitioning (Knuth, 1973).  Its
    arcs lead from x to the members of the circuit x closes in each part
    lacking it, whichever part holds x, so one node per element finds the
    same first path as one node per copy.  grow augments by _try_augment(e),
    which puts e straight into the first part that takes it.  Only when
    none does, it runs _search(e), a breadth-first search from e's arcs
    that asks every part whether an element fits before it asks any for a
    circuit, and replays its path to the first element that fits straight
    into a part, checking that the parts gain one copy of e and keep every
    other count; when none fits, the elements the search reached are the
    circuit, and none of them fits either.

    circuits needs no parts for a partition or uniform part: the union of
    n copies of a partition matroid with block capacities c_B is the
    partition matroid on counts with every r[i] <= n and every block sum at
    most n * c_B (deal a block's copies round-robin over the n parts), and
    a uniform matroid of rank c is one block of capacity c, so it answers
    from block sums.  A full block's circuit is shared by all its rows.
    A call sums the blocks afresh over the rows r holds and keeps nothing,
    so it costs a walk of r and of the rows asked about.  Every other
    family (transversal, graphic, GF(2), oracles) brings the parts to r and
    answers all the rows from one closure pass over the exchange arcs,
    without a search per row; rows whose closures hold the same rows share
    a circuit.

    The union owns its n parts.  Each is a slot [part, certificate, memo
    of circuit answers by element], and _counts holds the multiplicities
    they sum to.  _replace is the step that changes parts for a path
    augmentation and for a trim (a direct fit makes its checks inline):
    each part must hold what it loses and lack what it gains; the set is
    changed in place, its certificate is handed to Matroid._derive (which
    checks the part is independent), and its memo is cleared.  grow and
    decompose continue from the parts held, and decompose memoizes its
    answers by count tuple, so an instance is mutable: use one per run, on
    one thread.  After an InternalError its parts are undefined.  The
    matroid it unites keeps no state and may be shared.
    """

    kind = "oracle_composite"

    def __init__(self, part: Matroid, n: int):
        n = int(n)
        if n < 1:
            raise InputError(f"copy count must be >= 1, got {n}")
        super().__init__(part.d)
        self.part = part
        self.n = n
        self.part_rank = full_rank(part)
        self.cap = n * self.part_rank  # no decomposable vector sums to more
        zero = (0,) * part.d
        self._indep_cache: dict[tuple, tuple] = {zero: (frozenset(),) * n}
        self._dep_cache: set = set()
        self._counts = list(zero)
        # One slot per part: [part, certificate, {element: circuit answer}].
        self._slots = [[set(), part._build(frozenset()), {}] for _ in range(n)]
        # A family's own _fits answers without a circuit; by default _fits
        # is the circuit, which _search asks through the slot memo instead.
        self._fits = None if type(part)._fits is Matroid._fits else part._fits
        self._blocks = None  # (block of each element, n * each block's capacity) for block sums
        if isinstance(part, UniformMatroid):
            self._blocks = ((0,) * part.d, (n * part.r,))
        elif isinstance(part, PartitionMatroid):
            self._blocks = (part.blocks, [n * c for c in part.capacities])

    def _indep(self, elems: frozenset) -> bool:
        return self.decompose([int(e in elems) for e in range(self.d)]) is not None

    def decompose(self, counts: Sequence[int]) -> tuple | None:
        """n frozensets holding element i in exactly counts[i] of them, or None."""
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
        parts = self._reach(r)
        if parts is None:
            self._dep_cache.add(r)
        else:
            self._indep_cache[r] = parts
        return parts

    def _reach(self, r: tuple) -> tuple | None:
        """Bring the parts to counts r; return them as frozensets, or None.

        The parts held lose the copies r does not hold and grow the copies
        it lacks.  Each copy finds an augmenting path exactly when the
        counts stay decomposable, so r is reached exactly when it
        decomposes; otherwise the parts stop short of it.
        """
        excess = {i: c - t for i, (c, t) in enumerate(zip(self._counts, r)) if c > t}
        if excess:
            changes = {}  # part -> (the copies it drops, nothing gained)
            for k, (p, _, _) in enumerate(self._slots):
                drop = []
                for x in p:
                    if excess.get(x):
                        excess[x] -= 1
                        drop.append(x)
                if drop:
                    changes[k] = (drop, ())
            self._replace(changes)
        counts, parts = self.grow([i for i, (c, t) in enumerate(zip(self._counts, r))
                                   for _ in range(t - c)])
        return parts if tuple(counts) == r else None

    def grow(self, elements: Iterable[int]) -> tuple[list[int], tuple]:
        """Add a copy of each element in turn where it fits, continuing from
        the parts held; return (counts, the parts as frozensets).

        A refused element is never retried: the counts only grow.  A failed
        search from e refuses every element it reached, too: the search
        from any of them reaches a subset of the same elements, so it fails
        as well, now and after any later growth.
        """
        total, refused = sum(self._counts), set()
        for e in elements:
            if not 0 <= e < self.d:
                raise InputError(f"element {e} out of range for d={self.d}")
            if e in refused or not self._try_augment(e, refused):
                continue
            total += 1
            if total == self.cap:
                break
        return self._counts[:], tuple(frozenset(p) for p, _, _ in self._slots)

    def _try_augment(self, e: int, refused: set) -> bool:
        """Add a copy of e to the parts; False, after adding every element
        the search reached to refused, if none fits.  e goes straight into
        the first part in slot order that lacks it and takes it, with the
        checks _replace makes for that one gain; only when no part takes
        it does _search look for a path.  Parts off the path keep their
        slots as they are."""
        fits, part = self._fits, self.part
        for slot in self._slots:
            p, cert, known = slot
            if e in p:
                continue
            if fits is None:
                members = known.get(e, False)
                if members is False:
                    members = known[e] = part._circuit(cert, p, e)
                if members is not None:
                    continue
            elif not fits(cert, p, e):
                continue
            p.add(e)
            cert = part._derive(cert, (), (e,), p)
            if cert is None:
                raise InternalError("augmentation left a dependent part")
            slot[1] = cert
            known.clear()
            self._counts[e] += 1
            return True
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
        """Breadth-first search from a new copy of e, which fits no part
        (_try_augment asked them all): (fit, parent).

        fit is the first element reached that goes straight into a part,
        with the first such part in slot order, or None.  parent maps e to
        None and every other element v reached to (x, k): x displaced v
        from part k.  e gives only its arcs; each other element taken from
        the queue first asks every part whether it fits, and only then asks
        them for the circuits that give its arcs: the fit and its path are
        those of asking each part in turn for its circuit, but no circuit
        is built for an element that fits.  The graphic family answers the
        fit without a circuit (_fits); the others answer it from their
        circuit, kept in the slot memo for the arcs, so none builds a
        circuit twice.  A part holding x is skipped, since swapping
        parallel copies never shortens a path.  A refused element is not
        entered: nothing it reaches fits (see grow), so no element on a
        path to a fit is reached through it, and the other elements keep
        their order in the queue.  The fit and its path are those of the
        search without the pruning.
        """
        parent: dict[int, tuple[int, int] | None] = {e: None}
        queue = [e]  # the loop reads it in order while it grows
        slots, fits, circuit = self._slots, self._fits, self.part._circuit
        for x in queue:
            if x != e:
                for k, (p, cert, known) in enumerate(slots):
                    if x in p:
                        continue
                    members = known.get(x, False)
                    if members is False:
                        if fits is not None:
                            if fits(cert, p, x):
                                return (x, k), parent
                            continue
                        members = known[x] = circuit(cert, p, x)
                    if members is None:
                        return (x, k), parent
            for k, (p, cert, known) in enumerate(slots):
                if x in p:
                    continue
                members = known.get(x, False)
                if members is False:
                    members = known[x] = circuit(cert, p, x)
                if members is None:
                    raise InternalError("a part takes an element its _fits refused")
                for v in members:
                    if v not in parent and v not in refused:
                        parent[v] = (x, k)
                        queue.append(v)
        return None, parent

    def circuits(self, r: Sequence[int], rows: Iterable[int]) -> Circuits:
        """(fits, shared): the rows the count vector r can take one more
        copy of, and the circuits the other rows close, each reported once.

        fits lists, in the order given, every row j for which r plus a copy
        of j decomposes.  shared lists pairs (js, circuit): every row of js
        closes that circuit, the ascending rows i with r[i] > 0 for which r
        plus a copy of j less a copy of i decomposes; js is ascending.
        Every row given (rows are distinct) lies in fits or in exactly one
        js.  r itself must decompose; if it does not, an augmentation left
        the union, and InternalError is raised.

        A partition or uniform part answers from block sums (see the class
        notes): row j fits when r[j] < n and its block sums below n * c_B; a
        row at n copies closes (j,) alone; otherwise the circuit is the rows
        of j's block that r holds, shared by all of that block's rows.
        Dealt round-robin, a block's copies give no part two copies of one
        row or more than c_B of the block.

        Every other family brings the parts to r (not through decompose's
        memo, whose answer would leave them elsewhere) and answers from one
        pass over their exchange arcs: it takes each reached element's arcs
        once, marks the elements that fit straight into a part, and sweeps
        back along the arcs from them to mark every element that reaches
        one.  A row that reaches no fit closes the held elements of its
        forward closure; the closure of a row reached from a later row is
        taken whole, so the rows of one strongly connected component share
        it, and rows whose closures hold the same rows share one circuit.
        """
        r, rows = tuple(r), list(rows)
        if rows and not 0 <= min(rows) <= max(rows) < self.d:
            raise InputError(f"rows must lie in 0..{self.d - 1}")
        if len(r) != self.d or min(r) < 0:
            raise InputError(f"count vector {list(r)} does not fit ground size {self.d}")
        if self._blocks is not None:
            return self._block_circuits(r, rows)
        if self._reach(r) is None:
            raise InternalError("augmentation left the intersection")
        slots, circuit = self._slots, self.part._circuit
        succ: dict[int, list[int]] = {}  # reached element that fits straight into no part -> its arcs
        fits = set()
        todo, seen = rows[:], set(rows)
        while todo:
            x = todo.pop()
            arcs = []
            for p, cert, known in slots:
                if x in p:
                    continue
                members = known.get(x, False)
                if members is False:
                    members = known[x] = circuit(cert, p, x)
                if members is None:
                    fits.add(x)
                    break
                arcs += members
            else:
                succ[x] = arcs
                for v in arcs:
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
        pred: dict[int, list[int]] = {}
        for x, arcs in succ.items():
            for v in arcs:
                pred.setdefault(v, []).append(x)
        todo = list(fits)
        while todo:
            for x in pred.get(todo.pop(), ()):
                if x not in fits:
                    fits.add(x)
                    todo.append(x)
        fitting: list[int] = []
        shared: dict[tuple[int, ...], list[int]] = {}  # circuit -> the rows that close it
        closure: dict[int, set] = {}  # row answered -> its forward closure
        for j in rows:
            if j in fits:
                fitting.append(j)
                continue
            reach, todo = {j}, [j]
            while todo:
                for v in succ[todo.pop()]:
                    if v in reach:
                        continue
                    if v in closure:
                        reach |= closure[v]
                    else:
                        reach.add(v)
                        todo.append(v)
            closure[j] = reach
            shared.setdefault(tuple(sorted(i for i in reach if r[i])), []).append(j)
        return fitting, [(sorted(js), c) for c, js in shared.items()]

    def _block_circuits(self, r: tuple, rows: list[int]) -> Circuits:
        """circuits for a partition or uniform part, from the block sums of r.

        One pass over the rows r holds sums each block and groups those rows
        by block, then one pass sorts the rows given: rows that fit, rows at
        n copies, and rows of full blocks.  Nothing is kept between calls.
        """
        n, (blocks, limits) = self.n, self._blocks
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

    def _replace(self, changes: dict) -> None:
        """Change part k by (lost, gained) for each k: (lost, gained) in
        changes; it must hold each element it loses and lack each one it
        gains.  Its set is changed in place and its certificate handed to
        _derive; a dependent part raises InternalError.  Its memo is
        cleared, and the counts follow.  Other slots stay as they are."""
        slots, counts, part = self._slots, self._counts, self.part
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


class ShuffleMatroid(Matroid):
    """The matroid of matrices row-equivalent to a column selection from S.

    A 0/1 matrix is equivalent to exactly the matrices with its row sums, so
    membership depends on the row-sum vector alone: x is a member iff its row
    sums are a sum of n independent sets of S.  The n-union of S decides that
    on counts.  The cells of a row are parallel elements, so the intersection
    solver works on row counts and asks the union for its row circuits
    directly (UnionMatroid.circuits, one pass for all rows); circuit
    queries here certify the matrix by one decompose and ask the oracle
    once per member (the Matroid defaults).  Its union memoizes the
    decompositions and owns the parts it changes in place, so an instance
    is mutable: keep it on a single thread.  S itself keeps no state and may
    be shared.
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
