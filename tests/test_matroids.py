"""Matroid families, axioms, rank, and the greedy algorithm."""

import importlib
import pkgutil
import random
import re

import pytest

import matroid_shift
from matroid_shift import (
    GraphicMatroid,
    InputError,
    LiftMatroid,
    LinearGf2Matroid,
    Matroid,
    OracleMatroid,
    OverflowGuardError,
    PartitionMatroid,
    ShuffleMatroid,
    Subset01,
    TransversalMatroid,
    UniformMatroid,
    UnionMatroid,
    full_rank,
    greedy_max,
    matroid_from_json,
    matroid_to_json,
    rank,
)
from matroid_shift.matroids import check_weight_guard
from corpora import TRIANGLE, family_corpus, random_matroid


def all_independent_masks(m):
    return [
        mask for mask in range(1 << m.d)
        if m._indep(frozenset(i for i in range(m.d) if mask >> i & 1))
    ]


def assert_matroid_axioms(m):
    indep = set(all_independent_masks(m))
    assert 0 in indep, "empty set must be independent"
    for a in indep:
        for i in range(m.d):
            if a >> i & 1:
                assert a & ~(1 << i) in indep, "downward closure violated"
    members = sorted(indep)
    for a in members:
        for b in members:
            if bin(a).count("1") >= bin(b).count("1"):
                continue
            extra = b & ~a
            assert any(a | (1 << i) in indep for i in range(m.d) if extra >> i & 1), \
                "exchange axiom violated"


@pytest.mark.parametrize("m", family_corpus(max_d=4))
def test_axioms_small_corpus(m):
    assert_matroid_axioms(m)


def test_axioms_larger_instances():
    rng = random.Random(3)
    bigger = [
        UniformMatroid(8, 3),
        GraphicMatroid(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3), (2, 4)]),
        PartitionMatroid([0, 1, 2, 0, 1, 2, 0, 1], [2, 1, 1]),
        LinearGf2Matroid([[rng.randint(0, 1) for _ in range(4)] for _ in range(7)]),
        TransversalMatroid([[0, 1], [1, 2], [0], [2], [0, 2], [1]], 3),
    ]
    for m in bigger:
        assert_matroid_axioms(m)


def test_transversal_long_augmenting_path():
    # Element i may use agents i and i + 1, the last one only agent 0: adding
    # it moves every other element one agent up, a path of 1500 steps that
    # once recursed once per step.
    d = 1500
    adjacency = [[i, i + 1] for i in range(d - 1)] + [[0]]
    m = TransversalMatroid(adjacency, d)
    assert m._indep(frozenset(range(d)))
    # One more element on agent 0 makes the whole set dependent.
    assert not TransversalMatroid(adjacency + [[0]], d)._indep(frozenset(range(d + 1)))


def test_transversal_circuit_on_long_chain():
    # The matching of the chain gives element i agent i + 1 and the last
    # element agent 0.  A new element on agent d - 1 starts an alternating
    # search through all d elements, and each of them can hand its agent
    # down the path, so the circuit is the whole chain.
    d = 1500
    adjacency = [[i, i + 1] for i in range(d - 1)] + [[0]]
    m = TransversalMatroid(adjacency + [[d - 1]], d)
    assert m.circuit(frozenset(range(d)), d) == tuple(range(d))
    # On an agent of its own, it closes no circuit.
    assert TransversalMatroid(adjacency + [[d]], d + 1).circuit(frozenset(range(d)), d) is None


def package_classes() -> set:
    """Every class that a module of the package defines."""
    classes = set()
    for info in pkgutil.iter_modules(matroid_shift.__path__):
        module = importlib.import_module(f"matroid_shift.{info.name}")
        classes |= {cls for cls in vars(module).values()
                    if isinstance(cls, type) and cls.__module__ == module.__name__}
    return classes


def test_every_family_builds_its_own_circuit():
    # Matroid.circuit is the only public circuit: it certifies the set and
    # answers through _circuit, which each of the five families defines,
    # so the |indep| + 1 oracle calls of the default serve only the
    # matroids that have no construction of their own.
    classes = package_classes()
    assert {cls for cls in classes if "circuit" in vars(cls)} == {Matroid}
    families = {GraphicMatroid, UniformMatroid, PartitionMatroid, LinearGf2Matroid,
                TransversalMatroid}
    assert all("_circuit" in vars(cls) for cls in families)


def test_every_matroid_refuses_a_dependent_circuit_set():
    u31 = UniformMatroid(3, 1)
    queries = {  # a matroid, a dependent set of it, an element outside that set
        GraphicMatroid: (GraphicMatroid(3, [(1, 2), (2, 3), (1, 3), (1, 2)]), {0, 1, 2}, 3),
        UniformMatroid: (u31, {0, 1}, 2),
        PartitionMatroid: (PartitionMatroid([0, 0, 1], [1, 1]), {0, 1}, 2),
        LinearGf2Matroid: (LinearGf2Matroid([[1, 0], [0, 1], [1, 1], [1, 0]]), {0, 1, 2}, 3),
        TransversalMatroid: (TransversalMatroid([[0], [0], [1]], 2), {0, 1}, 2),
        OracleMatroid: (OracleMatroid(3, u31._indep), {0, 1}, 2),
        LiftMatroid: (LiftMatroid(UniformMatroid(2, 1), 2), {0, 2}, 1),  # cells (0, 0), (1, 0)
        UnionMatroid: (UnionMatroid(u31, 1), {0, 1}, 2),
        ShuffleMatroid: (ShuffleMatroid(u31, 1), {0, 1}, 2),
    }
    assert set(queries) == {
        cls for cls in package_classes() if issubclass(cls, Matroid) and cls is not Matroid}
    for m, dependent, e in queries.values():
        assert not m._indep(frozenset(dependent))
        with pytest.raises(InputError, match="independent set"):
            m.circuit(dependent, e)


def test_graphic_circuit_climbs_to_the_nearest_common_ancestor():
    # Two trees rooted at vertices 1 and 8: the path 1-2-3-4-5 with the
    # branch 2-6-7, and the edge 8-9.  The circuit climbs from both
    # endpoints in turn; each case below meets in a different place.
    tree = [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (8, 9)]
    cases = {
        (3, 5): (2, 3),              # u an ancestor of v
        (5, 3): (2, 3),              # v an ancestor of u
        (1, 4): (0, 1, 2),           # u at the root
        (5, 1): (0, 1, 2, 3),        # v at the root
        (5, 7): (1, 2, 3, 4, 5),     # the two sides meet at 2
        (7, 9): None,                # different trees
        (8, 1): None,                # two roots
        (3, 4): (2,),                # parallel to edge 2
        (9, 8): (6,),                # parallel to the edge below a root
        (6, 6): (),                  # self-loop
    }
    m = GraphicMatroid(9, tree + list(cases))
    part = frozenset(range(len(tree)))
    cert = m._build(part)
    up = cert[0]
    assert up[m._ends[0][0]] is None and up[m._ends[6][0]] is None  # roots 1 and 8
    for e, want in enumerate(cases.values(), start=len(tree)):
        assert m.circuit(part, e) == want
        assert Matroid._circuit(m, part, part, e) == want
        assert m._fits(cert, part, e) == (want is None)


def test_graphic_fits_follows_cuts_and_links():
    # The trees 1-2-3-4-5 (with 2-6) and 8-9.  Cutting 2-3 splits off
    # 3-4-5; a swap of 3-4 for 3-5 (parallel to 3-4-5) keeps every tree;
    # linking 5-9 hangs 3-4-5 under 8-9.
    m = GraphicMatroid(9, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (8, 9),
                           (1, 4), (5, 9), (3, 5), (6, 6), (4, 8)])
    one_four, five_nine, three_five, loop, four_eight = range(6, 11)
    part = frozenset(range(6))
    cert = m._build(part)
    assert [m._fits(cert, part, e) for e in range(6, 11)] == [False, True, False, False, True]
    steps = [((1,), (), (True, True, False, False, True)),        # cut 2-3
             ((2,), (three_five,), (True, True, False, False, True)),  # swap 3-4 for 3-5
             ((), (five_nine,), (True, False, False, False, False))]   # link 5-9
    for removed, added, fits in steps:
        part = part - set(removed) | set(added)
        cert = m._derive(cert, removed, added, part)
        outside = [e for e in range(6, 11) if e not in part]
        assert [m._fits(cert, part, e) for e in outside] == \
            [f for e, f in zip(range(6, 11), fits) if e not in part]
        assert all(m._fits(cert, part, e) == (m.circuit(part, e) is None) for e in outside)


def test_circuit_refuses_bad_arguments():
    # These once answered (0,), None and an IndexError.
    for indep, e in [({0, 1}, 0), ({0}, -1), ({0}, 5), ({-1}, 0), ({3}, 0)]:
        with pytest.raises(InputError):
            TRIANGLE.circuit(indep, e)
    assert TRIANGLE.circuit({0, 1}, 2) == (0, 1)


def test_uniform_and_partition_circuits_refuse_a_dependent_set():
    with pytest.raises(InputError):
        UniformMatroid(4, 2).circuit({0, 1, 2}, 3)
    assert UniformMatroid(4, 2).circuit({0, 1}, 3) == (0, 1)
    m = PartitionMatroid([0, 0, 0, 1], [1, 1])
    with pytest.raises(InputError):
        m.circuit({0, 1}, 2)  # block 0 holds two members against a capacity of 1
    assert m.circuit({0}, 2) == (0,)
    assert m.circuit({0}, 3) is None
    # An overflow outside e's block is refused too.
    with pytest.raises(InputError):
        PartitionMatroid([0, 1], [1, 0]).circuit({1}, 0)
    with pytest.raises(InputError):
        m.circuit({0, 1}, 3)


def test_graphic_triangle_examples():
    assert TRIANGLE.is_independent(Subset01([1, 1, 0]))
    assert not TRIANGLE.is_independent(Subset01([1, 1, 1]))
    assert rank(TRIANGLE, Subset01([1, 1, 1])) == 2


def test_uniform_examples():
    u = UniformMatroid(4, 2)
    assert not u.is_independent(Subset01([1, 1, 1, 0]))
    assert rank(u, Subset01.full(4)) == 2


def test_gf2_rank_example():
    # columns (1,0), (0,1), (1,1): any two are a basis, all three dependent
    m = LinearGf2Matroid([[1, 0], [0, 1], [1, 1]])
    assert rank(m, Subset01.full(3)) == 2
    assert not m.is_independent(Subset01([1, 1, 1]))
    assert m.is_independent(Subset01([1, 0, 1]))


def test_rank_matches_bruteforce():
    rng = random.Random(1)
    for _ in range(30):
        m = random_matroid(rng, dmax=6)
        expect = max(bin(mask).count("1") for mask in all_independent_masks(m))
        assert full_rank(m) == expect


def test_greedy_examples():
    assert greedy_max(UniformMatroid(3, 1), [5, 3, 7]).indices() == (2,)
    got = greedy_max(TRIANGLE, [4, 2, 5])
    assert got.indices() == (0, 2)  # e3 then e1, total weight 9
    basis = greedy_max(UniformMatroid(3, 2), [-1, -2, -3], force_basis=True)
    assert basis.indices() == (0, 1)


def test_greedy_positive_weights_returns_basis():
    rng = random.Random(2)
    for _ in range(25):
        m = random_matroid(rng, dmax=6)
        w = [rng.randint(1, 9) for _ in range(m.d)]
        assert greedy_max(m, w).size() == full_rank(m)


def test_greedy_matches_bruteforce():
    rng = random.Random(4)
    for _ in range(40):
        m = random_matroid(rng, dmax=6)
        w = [rng.randint(-9, 9) for _ in range(m.d)]
        got = greedy_max(m, w)
        got_weight = sum(w[i] for i in got.indices())
        best = max(
            sum(w[i] for i in range(m.d) if mask >> i & 1)
            for mask in all_independent_masks(m)
        )
        assert got_weight == best


def test_greedy_invariant_under_monotone_relabeling():
    rng = random.Random(5)
    for _ in range(20):
        m = random_matroid(rng, dmax=6)
        w = [rng.randint(-9, 9) for _ in range(m.d)]
        scaled = [7 * x + 3 for x in w]  # strictly increasing map keeps ties
        assert greedy_max(m, w, force_basis=True) == greedy_max(m, scaled, force_basis=True)
        # independent-set mode needs positivity preserved as well
        pos = [x + 20 for x in w]
        assert greedy_max(m, pos) == greedy_max(m, [3 * x for x in pos])


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        TRIANGLE.is_independent(Subset01([1, 0]))
    with pytest.raises(InputError):
        greedy_max(TRIANGLE, [1, 2])
    with pytest.raises(InputError):
        Subset01([0, 2, 1])


def test_weight_guard():
    with pytest.raises(OverflowGuardError):
        greedy_max(UniformMatroid(2, 1), [2**61, 5])


@pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan"), None, "1", [1]],
                         ids=["two", "minus-one", "half", "nan", "none", "string", "list"])
def test_subset_names_its_first_bad_entry(bad):
    with pytest.raises(InputError, match=re.escape(f"subset entries must be 0 or 1, got {bad!r}")):
        Subset01([1, 0, bad, 7])


def test_subset_accepts_bools_and_whole_floats():
    s = Subset01([True, 1.0, 0, False])
    assert s.indices() == (0, 1) and s == Subset01([1, 1, 0, 0])
    assert Subset01(b for b in (0, 1)).bits == (0, 1)


class Count(int):
    """An int subclass, which weights may be; bool is the one refused."""


@pytest.mark.parametrize("bad", [True, 1.5, "3"], ids=["bool", "float", "string"])
def test_weight_guard_names_its_first_non_integer(bad):
    with pytest.raises(InputError, match=re.escape(f"weights must be integers, got {bad!r}")):
        check_weight_guard([4, -2, bad, 2.5])
    with pytest.raises(InputError, match=re.escape(f"got {bad!r}")):
        check_weight_guard(iter([2**61, bad]))  # the type is checked before the guard


def test_weight_guard_accepts_int_subclasses():
    check_weight_guard([Count(3), -1, 2**61 - 4])
    check_weight_guard(v for v in (Count(-2), 5))
    with pytest.raises(OverflowGuardError):
        check_weight_guard(v for v in (2**60, Count(-2**60), 1))


def test_invalid_descriptions_rejected():
    with pytest.raises(InputError):
        GraphicMatroid(2, [(1, 3)])
    with pytest.raises(InputError):
        UniformMatroid(3, 4)
    with pytest.raises(InputError):
        PartitionMatroid([0, 2], [1, 1])
    with pytest.raises(InputError):
        TransversalMatroid([[0], [1]], 1)
    with pytest.raises(InputError):
        LinearGf2Matroid([[1, 0], [1]])


def test_json_round_trip():
    for m in family_corpus(max_d=4):
        clone = matroid_from_json(matroid_to_json(m))
        assert clone.kind == m.kind and clone.d == m.d
        for mask in range(1 << m.d):
            s = Subset01([(mask >> i) & 1 for i in range(m.d)])
            assert clone.is_independent(s) == m.is_independent(s)


def test_json_rejects_garbage():
    with pytest.raises(InputError):
        matroid_from_json({"kind": "moebius", "d": 2, "params": {}})
    with pytest.raises(InputError):
        matroid_from_json({"kind": "graphic", "d": 3,
                           "params": {"vertices": 3, "edges": [[1, 2]]}})
    with pytest.raises(InputError):
        matroid_from_json([1, 2, 3])
