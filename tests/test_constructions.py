"""Lift, union and shuffle oracles, decompositions, and rank identities."""

import copy
import random
import re
from collections import Counter

import pytest

from matroid_shift import (
    DisallowedKindError,
    GraphicMatroid,
    InputError,
    InternalError,
    LiftMatroid,
    Matrix01,
    OracleMatroid,
    PartitionMatroid,
    ShuffleMatroid,
    Subset01,
    TransversalMatroid,
    UnionMatroid,
    UniformMatroid,
    brute_shuffle_membership,
    enumerate_members,
    full_rank,
    union_is_independent,
    union_rank_check,
    weighted_matroid_intersection_max,
)
from matroid_shift import intersection
from matroid_shift.constructions import AgentFlow, BlockSums, SlotUnion
from corpora import (FAMILIES, K4, TRIANGLE, family_corpus, grid_graph, random_matroid,
                     random_sbo_matroid)
from test_matroids import assert_matroid_axioms

TRIANGLE_AGENTS = TransversalMatroid([[0, 1]] * 3, 2)  # U(2, 3), as TRIANGLE


def union_on(engine) -> UnionMatroid:
    """A union of engine.n copies of engine.part that runs on engine."""
    union = UnionMatroid(engine.part, engine.n)
    union._engine = engine
    return union


def test_flattening_convention():
    # row-major: (i, j) <-> i*n + j
    x = Matrix01([[0, 1], [1, 0], [0, 0]])
    assert x.flat_indices() == frozenset({1, 2})
    assert Matrix01.from_flat(3, 2, [1, 2]) == x


def test_matrix01_validation():
    with pytest.raises(InputError):
        Matrix01([[0, 2]])
    with pytest.raises(InputError):
        Matrix01([[0, 1], [1]])
    with pytest.raises(InputError):
        Matrix01([])


# Entries outside {0, 1}, each named by the error; [1] is unhashable.
BAD_BITS = [2, -1, 0.5, float("nan"), None, "1", [1]]
BAD_BIT_IDS = ["two", "minus-one", "half", "nan", "none", "string", "list"]


@pytest.mark.parametrize("bad", BAD_BITS, ids=BAD_BIT_IDS)
def test_matrix01_names_its_first_bad_entry(bad):
    with pytest.raises(InputError, match=re.escape(f"matrix entries must be 0 or 1, got {bad!r}")):
        Matrix01([[1, 0], [bad, 7]])
    with pytest.raises(InputError, match=re.escape(f"got {bad!r}")):
        Matrix01(row for row in ([bad, 1], [1]))  # a row before a shorter one


def test_matrix01_accepts_bools_and_whole_floats():
    x = Matrix01([[True, 0], [1.0, False]])
    assert x.flat_indices() == {0, 2}
    assert x == Matrix01([[1, 0], [1, 0]])
    assert Matrix01(iter(r) for r in ([1, 0], [0, 1])).rows == ((1, 0), (0, 1))
    with pytest.raises(InputError, match="unequal lengths"):
        Matrix01([[0, 1], [1], [5, 5]])  # row lengths are checked row by row


def test_lift_examples():
    lift = LiftMatroid(UniformMatroid(2, 1), 2)
    assert lift.is_independent_matrix(Matrix01([[1, 0], [0, 0]]))
    assert not lift.is_independent_matrix(Matrix01([[1, 0], [0, 1]]))
    assert not lift.is_independent_matrix(Matrix01([[1, 1], [0, 0]]))


def test_lift_oracle_satisfies_axioms():
    # exhaustive over the lifted ground set, d*n <= 9
    for base, n in [(UniformMatroid(3, 2), 3), (TRIANGLE, 3),
                    (UniformMatroid(2, 0), 2), (GraphicMatroid(3, [(1, 2), (2, 3)]), 4)]:
        assert_matroid_axioms(LiftMatroid(base, n))


def test_union_examples():
    ok, parts = union_is_independent(TRIANGLE, 2, Subset01([1, 1, 1]))
    assert ok
    sizes = sorted(p.size() for p in parts)
    assert sizes == [1, 2]
    ok1, parts1 = union_is_independent(TRIANGLE, 1, Subset01([1, 1, 1]))
    assert not ok1 and parts1 is None
    ok4, parts4 = union_is_independent(K4, 2, Subset01([1] * 6))
    assert ok4
    assert all(K4.is_independent(p) and p.size() == 3 for p in parts4)


def assert_valid_parts(m, n, s, parts):
    assert len(parts) == n
    combined = [0] * m.d
    for p in parts:
        assert m.is_independent(p)
        for i in p.indices():
            combined[i] += 1
    assert all(v <= 1 for v in combined), "parts overlap"
    assert tuple(combined) == s.bits, "parts do not sum to the set"


def test_union_cold_query_above_recursion_limit():
    # A cold decomposition of 1100 elements once recursed once per element.
    ok, parts = union_is_independent(UniformMatroid(1100, 1100), 1, Subset01.full(1100))
    assert ok and parts == (Subset01.full(1100),)


def test_union_augment_reuses_unchanged_parts():
    # A triangle on 1, 2, 3 with edge 3 parallel to edge 0.  Edge 2 closes
    # a circuit in both spanning trees and part 2 holds it, so its path
    # takes edge 0 out of part 0 and into part 2; part 1 is not on it.
    u = UnionMatroid(GraphicMatroid(3, [(1, 2), (2, 3), (1, 3), (1, 2)]), 3)
    slots = u._engine
    _, parts = u.grow([0, 1, 1, 3, 2])
    assert parts == (frozenset({0, 1}), frozenset({1, 3}), frozenset({2}))
    fit, parent = slots._search(2, set())
    x, k = fit
    gave, took = {}, {k: {x}}  # part -> the elements the path takes out of it / puts in
    while parent[x] is not None:
        y, k = parent[x]
        gave.setdefault(k, set()).add(x)
        took.setdefault(k, set()).add(y)
        x = y
    assert sorted(took) == [0, 2]
    before = [(cert, known, dict(known)) for _, cert, known in slots._slots]
    _, grown = u.grow([2])
    assert grown == (frozenset({1, 2}), parts[1], frozenset({0, 2}))
    assert slots.counts == [1, 2, 2, 1]
    for k, (p, q) in enumerate(zip(grown, parts)):
        _, cert, known = slots._slots[k]
        if k in took:  # changed in place, its memo cleared
            assert p == q - gave.get(k, set()) | took[k] and not known
        else:  # the same certificate and memo, with every answer kept
            assert cert is before[k][0] and known is before[k][1]
            assert known == before[k][2] and known


@pytest.mark.parametrize("side", [4, 8, 12])
def test_circuit_memo_holds_only_the_union_parts(monkeypatch, side):
    # The memo once kept a table for every part any search saw: 7,499 of
    # them while the column-order greedy grew three trees on a 50x50 grid.
    # Now the union holds n slots, and before every copy's search each
    # slot's memo answers only elements outside its part (a changed part
    # dropped its answers); at the end every answer is that of a fresh
    # build.
    n, searches, augment = 3, [], UnionMatroid._try_augment

    def checked(self, e, refused):
        assert len(self._engine._slots) == n
        assert all(p.isdisjoint(known) for p, _, known in self._engine._slots)
        searches.append(e)
        return augment(self, e, refused)

    monkeypatch.setattr(UnionMatroid, "_try_augment", checked)
    grid = grid_graph(side, side)
    union = UnionMatroid(grid, n)
    counts, _ = union.grow(list(range(grid.d)) * n)
    assert sum(counts) == n * (side * side - 1) and searches
    for p, _, known in union._engine._slots:
        built = grid._build(frozenset(p))
        assert all(answer == grid._circuit(built, p, x) for x, answer in known.items())


@pytest.mark.parametrize("kind", FAMILIES)
def test_one_matroid_serves_interleaved_unions(kind):
    # A matroid keeps no state, so two unions that grow on it in turn, one
    # element each, end where two unions on separate copies of it end.
    rng = random.Random(17)
    for _ in range(20):
        m = random_matroid(rng, dmax=6, kind=kind)
        n = rng.randint(1, 3)
        runs = [[rng.randrange(m.d) for _ in range(m.d * n)] for _ in range(2)]
        second, parts, taken = UnionMatroid(m, n), None, []

        def interleaved():
            nonlocal parts
            for e, f in zip(*runs):
                _, parts = second.grow([f])
                taken.append(f)
                yield e

        got = UnionMatroid(m, n).grow(interleaved())
        assert got == UnionMatroid(copy.deepcopy(m), n).grow(runs[0])
        assert parts == UnionMatroid(copy.deepcopy(m), n).grow(taken)[1]


def uniform_oracle(d: int, r: int) -> OracleMatroid:
    """U(r, d) behind an oracle, so that its union runs on slots, not on
    block sums."""
    return OracleMatroid(d, lambda s: len(s) <= r)


class NoCircuits(OracleMatroid):
    """A broken uniform oracle whose circuit never reports a dependent set."""

    def __init__(self, d, r):
        super().__init__(d, lambda s: len(s) <= r)

    def _circuit(self, cert, indep, e):
        return None


def test_union_rejects_a_dependent_part():
    with pytest.raises(InternalError, match="dependent part"):
        UnionMatroid(NoCircuits(3, 1), 2).grow([0, 1])
    with pytest.raises(InternalError, match="dependent part"):
        UnionMatroid(NoCircuits(3, 1), 2).decompose([1, 1, 0])


class MiscountingSlots(SlotUnion):
    """A broken search: its chain ends at another element than e, one that
    the fit's part lacks (drop=True, so the new copy of e is dropped), or
    its fit goes into a part that already holds the fitting element
    (drop=False, so that part would hold it twice)."""

    def __init__(self, part, n, drop):
        super().__init__(part, n)
        self.drops_e = drop

    def _search(self, e, refused):
        fit, parent = super()._search(e, refused)
        if fit is None:
            return fit, parent
        x, k = fit
        if self.drops_e:
            z = min(set(range(self.part.d)) - self._slots[k][0] - {e})
            return (z, k), {z: None}
        k = next((j for j, (p, _, _) in enumerate(self._slots) if x in p), k)
        return (x, k), parent


@pytest.mark.parametrize("drop", [True, False], ids=["dropped", "duplicated"])
def test_union_rejects_miscounted_parts(drop):
    # A copy that fits a part straight away takes no search, so the last
    # copy here must find a path: three parts on a triangle with edge 3
    # parallel to edge 0, where the second copy of edge 2 fits no part (see
    # test_union_augment_reuses_unchanged_parts), and two copies of each
    # triangle edge, whose last copy needs a path as well.  The broken
    # search is refused before any part changes, so only the
    # multiplicities are wrong.
    triangle = GraphicMatroid(3, [(1, 2), (2, 3), (1, 3), (1, 2)])
    with pytest.raises(InternalError, match="multiplicities differ"):
        union_on(MiscountingSlots(triangle, 3, drop)).grow([0, 1, 1, 3, 2, 2])
    with pytest.raises(InternalError, match="multiplicities differ"):
        union_on(MiscountingSlots(triangle, 3, drop)).decompose([2, 2, 2, 0])


def test_union_replace_refuses_bad_changes():
    u = UnionMatroid(uniform_oracle(3, 3), 2)
    assert u.grow([0]) == ([1, 0, 0], (frozenset({0}), frozenset()))
    engine = u._engine
    slots = [slot[:] for slot in engine._slots]
    engine._replace({})
    assert engine._slots == slots
    engine._replace({0: ([0], [1]), 1: ([], [0])})
    assert [p for p, _, _ in engine._slots] == [{1}, {0}] and engine.counts == [1, 1, 0]
    for changes in ({0: ([0], [])},   # a lost element the part lacks
                    {1: ([], [0])}):  # a gained element the part holds
        with pytest.raises(InternalError, match="multiplicities differ"):
            engine._replace(changes)
    # A search runs only for a copy that fits no part, so the broken one
    # goes on rank-1 parts {0} and {1}, which 2 does not fit.  Each part
    # holds what it loses and lacks what it gains, but the chain ends at
    # 1, not at the new copy of 2.
    u = UnionMatroid(uniform_oracle(3, 1), 2)
    assert u.grow([0, 1]) == ([1, 1, 0], (frozenset({0}), frozenset({1})))
    u._engine._search = lambda e, refused: ((0, 1), {0: (1, 0), 1: None})
    with pytest.raises(InternalError, match="multiplicities differ"):
        u._try_augment(2, set())
    # A dependent part is refused, from the empty start or a grown part.
    for start in ([], [0]):
        u = UnionMatroid(NoCircuits(3, 1), 2)
        u.grow(start)
        with pytest.raises(InternalError, match="dependent part"):
            u._engine._replace({0: ([], [1, 2])})


def test_union_decomposition_invariants():
    rng = random.Random(8)
    for _ in range(40):
        m = random_matroid(rng, dmax=5)
        n = rng.randint(1, 3)
        s = Subset01([rng.randint(0, 1) for _ in range(m.d)])
        ok, parts = union_is_independent(m, n, s)
        if ok:
            assert_valid_parts(m, n, s, parts)


def test_union_monotone():
    rng = random.Random(9)
    for _ in range(25):
        m = random_matroid(rng, dmax=5)
        n = rng.randint(1, 2)
        s = Subset01([rng.randint(0, 1) for _ in range(m.d)])
        ok, _ = union_is_independent(m, n, s)
        if not ok:
            continue
        idx = s.indices()
        for drop in range(len(idx)):
            sub = Subset01.from_indices(m.d, [e for k, e in enumerate(idx) if k != drop])
            assert union_is_independent(m, n, sub)[0]


def test_shuffle_examples():
    sm = ShuffleMatroid(UniformMatroid(2, 1), 2)
    assert sm.decompose_matrix(Matrix01([[1, 0], [0, 1]])) is not None
    assert sm.decompose_matrix(Matrix01([[1, 1], [1, 1]])) is None
    assert sm.decompose_matrix(Matrix01.zero(2, 2)) is not None


def test_intersection_searches_each_row_once_per_stage(monkeypatch):
    # Within one stage each union answers every row in one circuits call,
    # to its count engine: the intersection checks its arguments once, so
    # no stage goes through UnionMatroid.circuits and its checks.
    stages = []  # one Counter per stage: union -> circuits calls
    path = intersection._augmenting_path

    def counted(circuits):
        def counted_circuits(self, r, rows):
            assert isinstance(r, tuple) and isinstance(rows, list)
            assert len(rows) == len(set(rows))
            stages[-1][self] += 1
            return circuits(self, r, rows)
        return counted_circuits

    def counted_path(*args):
        stages.append(Counter())
        return path(*args)

    for engine in (BlockSums, AgentFlow):
        monkeypatch.setattr(engine, "circuits", counted(engine.circuits))
    monkeypatch.setattr(UnionMatroid, "circuits", None)
    monkeypatch.setattr(intersection, "_augmenting_path", counted_path)
    rng = random.Random(14)
    for _ in range(30):
        d, n = rng.randint(2, 6), rng.randint(1, 3)
        m1, m2 = (random_sbo_matroid(rng, d) for _ in range(2))
        w = [c for _ in range(d) for c in sorted((rng.randint(-3, 6) for _ in range(n)), reverse=True)]
        weighted_matroid_intersection_max(m1, m2, w, n)
    counts = [c for stage in stages for c in stage.values()]
    assert counts and max(counts) == 1


def assert_lift_decomposition(m, n, x, parts):
    # n lift-independent parts whose supports are disjoint and cover x.
    assert len(parts) == n
    lift = LiftMatroid(m, n)
    assert all(lift.is_independent_matrix(p) for p in parts)
    cells = [p.flat_indices() for p in parts]
    assert sum(map(len, cells)) == len(x.flat_indices())
    assert frozenset().union(*cells) == x.flat_indices()


def test_shuffle_decomposition_parts_are_lift_independent():
    rng = random.Random(10)
    for _ in range(30):
        m = random_matroid(rng, dmax=4)
        n = rng.randint(1, 3)
        x = Matrix01([[rng.randint(0, 1) for _ in range(n)] for _ in range(m.d)])
        parts = ShuffleMatroid(m, n).decompose_matrix(x)
        if parts is not None:
            assert_lift_decomposition(m, n, x, parts)


def test_shuffle_agrees_with_bruteforce_definition():
    rng = random.Random(11)
    cases = [(m, n) for m in family_corpus(max_d=4) for n in (1, 2) if m.d * n <= 8]
    for m, n in cases:
        sysm = enumerate_members(m)
        sm = ShuffleMatroid(m, n)
        for mask in range(1 << (m.d * n)):
            x = Matrix01.from_flat(m.d, n, [f for f in range(m.d * n) if mask >> f & 1])
            assert sm.is_independent_matrix(x) == brute_shuffle_membership(sysm, n, x), \
                (m, n, x.rows)
    # spot-check larger shapes at random
    for _ in range(60):
        m = random_matroid(rng, dmax=5)
        n = rng.randint(1, 3)
        sysm = enumerate_members(m)
        x = Matrix01([[rng.randint(0, 1) for _ in range(n)] for _ in range(m.d)])
        ok = ShuffleMatroid(m, n).decompose_matrix(x) is not None
        assert ok == brute_shuffle_membership(sysm, n, x)


def test_rank_identities():
    for m in family_corpus(max_d=4):
        r = full_rank(m)
        for n in (1, 2, 3):
            lift_rank, shuffle_rank = union_rank_check(m, n)
            assert lift_rank == r
            assert shuffle_rank == n * r


def test_union_rank_check_examples():
    assert union_rank_check(TRIANGLE, 2) == (2, 4)
    assert union_rank_check(UniformMatroid(3, 1), 3) == (1, 3)
    assert union_rank_check(UniformMatroid(2, 0), 2) == (0, 0)


def test_union_refuses_elements_outside_the_ground_set():
    # These once grew a part of negative edges, answered a row -1 and
    # raised IndexError for a row 7.  The triangle's matroid, U(2, 3),
    # runs on slots as a graph and on a flow as three elements sharing two
    # agents.
    for part in (TRIANGLE, TRIANGLE_AGENTS):
        u = UnionMatroid(part, 2)
        for elements in ([-1, -2], [0, 3]):
            with pytest.raises(InputError, match="out of range"):
                u.grow(elements)
    for rows in ([-1], [7], [0, 3]):
        with pytest.raises(InputError, match="rows must lie"):
            u.circuits([1, 1, 0], rows)
    assert u.circuits([1, 1, 0], []) == ([], [])
    # A row given twice once lay in two places of the answer.
    for part in (UniformMatroid(2, 1), TRIANGLE_AGENTS):
        with pytest.raises(InputError, match="each once"):
            UnionMatroid(part, 2).circuits([1] + [0] * (part.d - 1), [1, 1])
    # The refusals leave the flow whole, at the counts circuits brought.
    assert u.grow([2, 0])[0] == [2, 1, 1]


def test_union_circuits_refuse_counts_that_do_not_fit():
    # circuits checks the counts once, before it asks the block sums or the
    # flow; both must refuse a negative count or a vector of the wrong
    # length, and answer as before afterwards.  A union on slots answers
    # no circuits at all.
    with pytest.raises(DisallowedKindError, match="not 'graphic'"):
        UnionMatroid(TRIANGLE, 2).circuits([1, 1, 0], [2])
    for part in (TRIANGLE_AGENTS, PartitionMatroid([0, 0, 1], [1, 1])):
        u = UnionMatroid(part, 2)
        assert u.circuits([1, 1, 0], [2]) == ([2], [])
        for r in ([-1, 1, 0], [1, 1, -1], [1, 1], [1, 1, 0, 0]):
            with pytest.raises(InputError, match="does not fit"):
                u.circuits(r, [2])
        assert u.circuits([1, 1, 0], [2]) == ([2], [])


def test_lift_dimension_mismatch():
    with pytest.raises(InputError):
        LiftMatroid(UniformMatroid(2, 1), 2).is_independent_matrix(Matrix01([[1, 0, 0], [0, 0, 0]]))
    with pytest.raises(InputError):
        union_is_independent(TRIANGLE, 2, Subset01([1, 0]))
