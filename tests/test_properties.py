"""Property tests over random matroids of every family, run by hypothesis."""

import copy
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from matroid_shift import (
    GraphicMatroid,
    InputError,
    InternalError,
    LinearGf2Matroid,
    Matrix01,
    Matroid,
    OracleMatroid,
    PartitionMatroid,
    ProfitMatrix,
    ShuffleMatroid,
    Subset01,
    TransversalMatroid,
    UniformMatroid,
    UnionMatroid,
    brute_shuffle_membership,
    enumerate_members,
    full_rank,
    rank,
    solve_shuffling,
)
from matroid_shift.constructions import BlockSums, SlotUnion
from matroid_shift.matroids import greedy_in_order
from corpora import FAMILIES, grid_graph, random_matroid
from test_constructions import assert_lift_decomposition, union_on

SETTINGS = settings(max_examples=60, deadline=None)
# The families whose unions run on counts (block sums or one flow); the
# others run on slots.
COUNT_KINDS = ("uniform", "partition", "transversal")


def on_counts(union: UnionMatroid) -> bool:
    return not isinstance(union._engine, SlotUnion)


def on_engine(m: Matroid, n: int, slots: type) -> UnionMatroid:
    """A union of n copies of m whose slot engine, where count_union
    picks one, is an instance of slots, a SlotUnion subclass."""
    union = UnionMatroid(m, n)
    return union if on_counts(union) else union_on(slots(m, n))


def assert_parts(m: Matroid, n: int, counts, parts):
    """n parts, each independent in m, holding element i in counts[i] of them."""
    assert len(parts) == n and all(m._indep(frozenset(p)) for p in parts)
    assert [sum(i in p for p in parts) for i in range(m.d)] == list(counts)


def assert_held_state(union: UnionMatroid):
    """The state a union's engine holds sums to its counts.  Slots: each
    part's certificate, changed in place query after query, must answer
    every circuit as a fresh build does, so a derivation that went wrong,
    or two parts sharing one certificate, shows.  Block sums: every
    block's sum.  A flow: every unit goes from an element to one of its
    agents, and no agent takes more than n."""
    m, n, engine = union.part, union.n, union._engine
    if not on_counts(union):
        assert engine.counts == [sum(i in p for p, _ in engine._slots) for i in range(m.d)]
        for p, cert in engine._slots:
            built = m._build(frozenset(p))
            assert built is not None
            for e in set(range(m.d)) - p:
                assert m._circuit(cert, p, e) == m._circuit(built, frozenset(p), e)
    elif isinstance(engine, BlockSums):
        sums = [0] * len(engine.sums)
        for i, c in enumerate(engine.counts):
            sums[engine.blocks[i]] += c
        assert engine.sums == sums and max(engine.counts) <= n
    else:
        sent = [0] * m.d
        for a, served in enumerate(engine.flow):
            assert engine.load[a] == sum(served.values()) <= n
            for x, units in served.items():
                assert units > 0 and a in m._agents[x]
                sent[x] += units
        assert sent == engine.counts and max(sent) <= n


@pytest.mark.parametrize("kind", FAMILIES)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_shuffle_membership_and_decomposition(kind, seed, data):
    m = random_matroid(random.Random(seed), dmax=5, kind=kind)
    n = data.draw(st.integers(1, 3), label="n")
    members = enumerate_members(m)
    sm = ShuffleMatroid(m, n)  # shared by the queries, so they reuse its memo
    cell_sets = st.sets(st.integers(0, m.d * n - 1))
    for cells in data.draw(st.lists(cell_sets, min_size=1, max_size=6), label="queries"):
        x = Matrix01.from_flat(m.d, n, cells)  # any cells, not only row prefixes
        parts = sm.decompose_matrix(x)
        assert (parts is not None) == brute_shuffle_membership(members, n, x)
        assert sm.is_independent_matrix(x) == (parts is not None)
        if parts is not None:
            assert_lift_decomposition(m, n, x, parts)


@pytest.mark.parametrize("kind", FAMILIES + ("multigraph",))
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_decompose_agrees_with_grow_from_zero(kind, seed, data):
    # One instance answers count vectors that rise and fall, by unit steps
    # and by jumps to any vector (dependent ones and ones above cap too),
    # each from the state it holds.  A fresh instance growing r from zero
    # in row order must accept exactly the same vectors, and so must the
    # circuit-first reference.  After every query the state held must sum
    # to the engine's counts (assert_held_state).
    m = union_matroid_draw(random.Random(seed), kind)
    n = data.draw(st.integers(1, 3), label="n")
    union = UnionMatroid(m, n)
    vectors = st.lists(st.integers(0, n + 1), min_size=m.d, max_size=m.d)
    r = [0] * m.d
    for _ in range(data.draw(st.integers(1, 12), label="queries")):
        if data.draw(st.booleans(), label="jump"):
            r = data.draw(vectors, label="r")
        else:
            i = data.draw(st.integers(0, m.d - 1), label="row")
            r = r[:i] + [max(r[i] + data.draw(st.sampled_from((-1, 1)), label="step"), 0)] + r[i + 1:]
        parts = union.decompose(r)
        copies = [i for i, c in enumerate(r) for _ in range(c)]
        counts, _ = UnionMatroid(m, n).grow(copies)
        assert (parts is not None) == (counts == r) == (CircuitFirst(m, n).grow(copies)[0] == r)
        if parts is not None:
            assert_parts(m, n, r, parts)
        assert_held_state(union)


@pytest.mark.parametrize("kind", FAMILIES)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_decompose_below_the_held_counts_answers_as_a_fresh_union(kind, seed, data):
    # A union grown from drawn elements is asked for a vector that lacks a
    # copy it holds, often one below its counts, and must answer exactly
    # as a fresh union does, parts included: it starts on a fresh engine
    # instead of trimming the one it holds, so the answer does not depend
    # on the queries before.  A vector that holds every copy held goes on
    # from the same engine, and the grown counts are such a vector.
    m = union_matroid_draw(random.Random(seed), kind)
    n = data.draw(st.integers(1, 3), label="n")
    union = UnionMatroid(m, n)
    elements = st.lists(st.integers(0, m.d - 1), min_size=1, max_size=m.d * n)
    held, _ = union.grow(data.draw(elements, label="elements"))
    engine = union._engine
    assert union.decompose(held) is not None and union._engine is engine
    rows = [i for i, c in enumerate(held) if c]
    if not rows:
        return  # nothing held: every vector covers it
    r = [data.draw(st.integers(0, c + data.draw(st.booleans(), label="above")), label="count")
         for c in held]
    row = data.draw(st.sampled_from(rows), label="row")
    r[row] = min(r[row], held[row] - 1)
    parts = union.decompose(r)
    assert parts == UnionMatroid(m, n).decompose(r)
    asked = any(r) and sum(r) <= union.cap  # else the memo or the cap answers
    assert (union._engine is not engine) == asked
    if parts is not None:
        assert_parts(m, n, r, parts)
    assert_held_state(union)


@pytest.mark.parametrize("kind", FAMILIES)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_circuit_matches_oracle_fallback(kind, seed, data):
    m = random_matroid(random.Random(seed), dmax=6, kind=kind)
    order = data.draw(st.permutations(range(m.d)), label="order")
    indep: frozenset = frozenset()
    for e in order[:data.draw(st.integers(0, m.d), label="tries")]:
        if m._indep(indep | {e}):
            indep |= {e}
    outside = [e for e in range(m.d) if e not in indep]
    if not outside:
        return
    e = data.draw(st.sampled_from(outside), label="e")
    assert m.circuit(indep, e) == Matroid._circuit(m, indep, indep, e)


def wide_matroid(rng: random.Random, kind: str):
    # Up to 14 elements with rank up to about 8, so that circuits can be long.
    # "oracle" hides a random family behind an OracleMatroid, so that its
    # circuits come from the Matroid defaults.
    if kind == "oracle":
        m = wide_matroid(rng, rng.choice(["graphic", "uniform", "partition", "linear_gf2",
                                          "transversal"]))
        return OracleMatroid(m.d, m._indep)
    d = rng.randint(1, 14)
    if kind == "graphic":
        return random_multigraph(rng, d)
    if kind == "uniform":
        return UniformMatroid(d, rng.randint(0, d))
    if kind == "partition":
        blocks = rng.randint(1, 4)
        return PartitionMatroid([rng.randrange(blocks) for _ in range(d)],
                                [rng.randint(0, 4) for _ in range(blocks)])
    if kind == "linear_gf2":
        nrows = rng.randint(1, 8)
        return LinearGf2Matroid([[rng.randint(0, 1) for _ in range(nrows)] for _ in range(d)])
    agents = rng.randint(0, 8)  # no agent at all, too
    return TransversalMatroid([rng.sample(range(agents), rng.randint(0, min(3, agents)))
                               for _ in range(d)], agents)


@pytest.mark.parametrize("kind", ["graphic", "uniform", "partition", "linear_gf2", "transversal",
                                  "oracle"])
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_direct_circuit_matches_oracle_fallback_on_wide_matroids(kind, seed, data):
    # One forest (graphic, on multigraphs with self-loops), one matching
    # (transversal), one echelon basis (GF(2)), one count (uniform) or one
    # block (partition) per circuit must give the circuit that the oracle
    # finds with |indep| + 1 calls; an OracleMatroid asks those calls
    # itself.  _fits must say e fits exactly when it closes no circuit.
    m = wide_matroid(random.Random(seed), kind)
    order = data.draw(st.permutations(range(m.d)), label="order")
    indep: frozenset = frozenset()
    for e in order:
        if m._indep(indep | {e}):
            indep |= {e}
    indep -= set(data.draw(st.lists(st.sampled_from(order)), label="dropped"))
    cert = m._build(indep)
    for e in sorted(set(range(m.d)) - indep):
        circuit = m.circuit(indep, e)
        assert circuit == Matroid._circuit(m, indep, indep, e)
        assert m._fits(cert, indep, e) == (circuit is None)
        # A dependent indep is refused, not answered.
        outside = set(range(m.d)) - indep - {e}
        if circuit is not None and outside:
            with pytest.raises(InputError):
                m.circuit(indep | {e}, min(outside))


def random_multigraph(rng: random.Random, d: int) -> GraphicMatroid:
    # Few vertices for d edges, so parallel edges and self-loops are common.
    vertices = rng.randint(1, 8)
    return GraphicMatroid(vertices, [(rng.randint(1, vertices), rng.randint(1, vertices))
                                     for _ in range(d)])


def rebuilt_graphic_circuit(m: GraphicMatroid, indep, e: int) -> tuple[int, ...] | None:
    """The circuit of indep + e by one search over indep, rebuilt per call."""
    u, v = m.edges[e]
    adj: dict[int, list] = {}
    for f in indep:
        a, b = m.edges[f]
        adj.setdefault(a, []).append((b, f))
        adj.setdefault(b, []).append((a, f))
    path = {u: ()}  # vertex -> forest edges on the way from u
    stack = [u]
    while stack and v not in path:
        a = stack.pop()
        for b, f in adj.get(a, ()):
            if b not in path:
                path[b] = path[a] + (f,)
                stack.append(b)
    return tuple(sorted(path[v])) if v in path else None


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_graphic_forest_index_matches_rebuilt_circuits(seed, data):
    # A forest follows added, removed and swapped edges, and jumps to any
    # forest.  Every circuit, from a fresh build and from the forest derived
    # step by step, must equal the per-call search and the oracle fallback,
    # and the derived forest must say an edge fits exactly when it closes
    # no circuit: a removal splits a tree, a swap keeps every tree's
    # vertices.  A derive that only adds edges tells trees apart by their
    # classes and stops its climbs at the shallower endpoint; it must hang
    # the same side as linking each edge after climbing both endpoints to
    # their roots, so it leaves the same parent pointers.
    # Grids and paths with a few chords, of 30 or more vertices, start from
    # a random spanning tree and give long climbs; small multigraphs give
    # loops and parallel edges.
    rng = random.Random(seed)
    shape = data.draw(st.sampled_from(("multigraph", "grid", "path")), label="shape")
    if shape == "grid":
        m = grid_graph(5, rng.randint(6, 7))
    elif shape == "path":
        vertices = rng.randint(30, 40)
        m = GraphicMatroid(vertices, [(v, v + 1) for v in range(1, vertices)]
                           + [(rng.randint(1, vertices), rng.randint(1, vertices)) for _ in range(3)])
    else:
        m = random_multigraph(rng, rng.randint(1, 14))
    forest: frozenset = frozenset()
    if shape != "multigraph":  # a random spanning tree, so the climbs start long
        for e in rng.sample(range(m.d), m.d):
            if m._indep(forest | {e}):
                forest |= {e}
    up = m._build(forest)
    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        before = forest
        outside = [e for e in range(m.d) if e not in forest]
        move = data.draw(st.sampled_from(("add", "remove", "swap", "jump")), label="move")
        if move == "jump":
            for e in data.draw(st.permutations(range(m.d)), label="order"):
                if data.draw(st.booleans(), label="take") and m._indep(forest | {e}):
                    forest |= {e}
                    continue
                forest -= {e}
        elif move == "remove" and forest:
            forest -= {data.draw(st.sampled_from(sorted(forest)), label="x")}
        elif move in ("add", "swap") and outside:
            e = data.draw(st.sampled_from(outside), label="e")
            circuit = rebuilt_graphic_circuit(m, forest, e)
            if circuit is None:
                forest |= {e}
            elif move == "swap" and circuit:
                forest = forest - {data.draw(st.sampled_from(circuit), label="x")} | {e}
        if before <= forest:
            climbed = copy.deepcopy(up)
            assert all(m._link(*climbed, f, True) for f in forest - before)
        up = m._derive(up, before - forest, forest - before, forest)
        if before <= forest:
            assert up[0] == climbed[0]
        for e in range(m.d):
            if e not in forest:
                circuit = m.circuit(forest, e)
                assert circuit == rebuilt_graphic_circuit(m, forest, e)
                assert circuit == Matroid._circuit(m, forest, forest, e)
                assert circuit == m._circuit(up, forest, e)
                assert m._fits(up, forest, e) == (circuit is None)


@pytest.mark.parametrize("kind", ["graphic", "linear_gf2", "transversal"])
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_derive_answers_as_a_fresh_build(kind, seed, data):
    # A part p changes from an independent q as the union greedy changes
    # one: an element added, removed or swapped for another, or a jump to
    # any set; p may be dependent.  The certificate of q, handed over and
    # derived from step to step as the union does, must give None exactly
    # when p is dependent (by the one-pass rank), and otherwise a
    # certificate that answers every circuit on p as a fresh build and the
    # oracle fallback do, and says e fits exactly when it closes no
    # circuit.  The one-pass rank of p must be the greedy rank of
    # Matroid._rank, and circuit must refuse a dependent p.
    m = wide_matroid(random.Random(seed), kind)
    q: frozenset = frozenset()
    cert = m._build(q)
    for _ in range(data.draw(st.integers(1, 20), label="steps")):
        move = data.draw(st.sampled_from(("add", "remove", "swap", "jump")), label="move")
        p = q
        if move == "jump":
            p = frozenset(data.draw(st.sets(st.integers(0, m.d - 1)), label="p"))
        elif move != "add" and q:
            p -= {data.draw(st.sampled_from(sorted(q)), label="x")}
        if move in ("add", "swap"):
            p |= {data.draw(st.integers(0, m.d - 1), label="e")}
        derived = m._derive(cert, q - p, p - q, p)
        assert m._rank(p) == Matroid._rank(m, sorted(p))
        if m._rank(p) < len(p):
            assert derived is None and m._build(p) is None and not m._indep(p)
            with pytest.raises(InputError):
                m.circuit(p, 0)
            cert = m._build(q)  # the handed-over certificate may be spoilt
            continue
        assert derived is not None and m._indep(p)
        built = m._build(p)
        for e in set(range(m.d)) - p:
            circuit = m._circuit(derived, p, e)
            assert circuit == m._circuit(built, p, e) == Matroid._circuit(m, p, p, e)
            assert m.circuit(p, e) == circuit
            assert m._fits(derived, p, e) == m._fits(built, p, e) == (circuit is None)
        q, cert = p, derived


@pytest.mark.parametrize("kind", FAMILIES)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_shuffle_circuit_matches_oracle_fallback(kind, seed, data):
    # The row circuits of the union must be those the oracle finds swap by
    # swap: row j fits iff r + e_j decomposes, and otherwise its circuit
    # holds exactly the rows i with r + e_j - e_i decomposable.  A count
    # union answers from circuits; a slot union, which has none, from one
    # augmentation per row, whose failed search must reach the circuit.
    # Every swap asks a fresh instance, so no memo carries over.
    m = random_matroid(random.Random(seed), dmax=5, kind=kind)
    n = data.draw(st.integers(1, 3), label="n")
    union = UnionMatroid(m, n)
    grown = data.draw(st.lists(st.integers(0, m.d - 1), max_size=m.d * n), label="grown")
    r, parts = union.grow(grown)
    circuits = row_circuits(union, r, range(m.d))

    def decomposes(counts):
        return UnionMatroid(m, n).decompose(counts) is not None

    for j in range(m.d):
        plus = r[:j] + [r[j] + 1] + r[j + 1:]
        if decomposes(plus):
            assert circuits[j] is None
            continue
        want = tuple(i for i in range(m.d) if r[i] and decomposes(
            [c - (k == i) for k, c in enumerate(plus)]))
        assert circuits[j] == want


def row_circuits(union: UnionMatroid, r, rows) -> dict:
    """One answer per row, None or its circuit, from a union grown to r:
    its circuits, or on slots one augmentation of the row on a copy of
    the union, which fits it or refuses the elements its search reached;
    those that r holds are the circuit."""
    if on_counts(union):
        return row_answers(union.circuits(r, rows), rows)
    out = {}
    for j in rows:
        trial, refused = copy.deepcopy(union), set()
        out[j] = None if trial._try_augment(j, refused) else tuple(
            i for i in sorted(refused) if r[i])
    return out


def row_answers(answer, rows):
    """circuits' (fits, shared) as one answer per row, None or its circuit,
    after checking the shape: fits keeps the order of rows, every js and
    circuit is ascending, and every row lies in fits or in one js."""
    fits, shared = answer
    rows = list(rows)
    assert fits == [j for j in rows if j in set(fits)]
    out = dict.fromkeys(fits)
    for js, circuit in shared:
        assert js and js == sorted(set(js))
        assert list(circuit) == sorted(set(circuit))
        for j in js:
            assert j not in out
            out[j] = circuit
    assert sorted(out) == sorted(rows)
    return out


def reference_circuits(m: Matroid, n: int, parts, rows):
    """UnionMatroid.circuits by one circuit-first exchange search per row
    (CircuitFirst, which also asks whether the row itself fits), over parts
    loaded into the empty slots of a reference union of n copies of m."""
    union = CircuitFirst(m, n)
    union._replace({k: ((), sorted(p)) for k, p in enumerate(parts)})
    held = set().union(*parts)
    out = {}
    for j in rows:
        fit, parent = union._search(j, set())
        out[j] = None if fit is not None else tuple(sorted(held.intersection(parent)))
    return out


def union_matroid_draw(rng: random.Random, kind: str) -> Matroid:
    if kind == "multigraph":
        return random_multigraph(rng, rng.randint(1, 12))
    if kind == "partition":
        # Several elements per block, capacities 0-3, and always a block
        # of capacity 0, whose elements are loops.
        nb = rng.randint(1, 4)
        caps = [rng.randint(0, 3) for _ in range(nb - 1)] + [0]
        rng.shuffle(caps)
        return PartitionMatroid([rng.randrange(nb) for _ in range(rng.randint(1, 12))], caps)
    return random_matroid(rng, dmax=8, kind=kind)


@pytest.mark.parametrize("kind", COUNT_KINDS)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_circuits_equal_reference_circuits(kind, seed):
    # Two sets of parts: grown from repeated elements, then often grown
    # further from the parts held (as decompose does), so counts reach n; and
    # random independent sets, which often block a row in every part yet
    # free a place for it by an exchange.  circuits gets only their counts.
    # The rows come in any order, so a row's search often reaches a row
    # answered before it.  Partitions bring blocks of capacity 0; a
    # partition answers from its block sums, a transversal matroid from its
    # flow.  One pass over the rows must answer each as its own search over
    # the parts does.
    rng = random.Random(seed)
    m = union_matroid_draw(rng, kind)
    n = rng.randint(1, 4 if kind == "partition" else 3)
    union = UnionMatroid(m, n)

    def elements():
        return [rng.randrange(m.d) for _ in range(rng.randint(0, m.d * n + 4))]

    def independent():
        part: frozenset = frozenset()
        for e in rng.sample(range(m.d), rng.randint(0, m.d)):
            if m._indep(part | {e}):
                part |= {e}
        return part

    _, grown = union.grow(elements())
    if rng.random() < 0.5:
        _, grown = union.grow(elements())
    for parts in (grown, tuple(independent() for _ in range(n))):
        rows = rng.sample(range(m.d), rng.randint(1, m.d))
        r = [sum(i in p for p in parts) for i in range(m.d)]
        got = row_answers(union.circuits(r, rows), rows)
        assert got == reference_circuits(m, n, parts, rows)


@pytest.mark.parametrize("kind", COUNT_KINDS)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_circuits_refuse_counts_that_do_not_decompose(kind, seed):
    # A count vector outside the union means an augmentation went wrong:
    # circuits raises InternalError on it, from block sums (a block over n
    # times its capacity, or a row over n copies) and from the flow.
    rng = random.Random(seed)
    m = union_matroid_draw(rng, kind)
    n = rng.randint(1, 3)
    union = UnionMatroid(m, n)
    for _ in range(4):
        r = [rng.randint(0, n + 1) for _ in range(m.d)]
        if UnionMatroid(m, n).decompose(r) is None:
            with pytest.raises(InternalError, match="left the intersection"):
                union.circuits(r, range(m.d))
        else:
            row_answers(union.circuits(r, range(m.d)), range(m.d))


@pytest.mark.parametrize("kind", COUNT_KINDS)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_circuits_follow_jumps_in_the_counts(kind, seed):
    # One union answers count vectors that jump by arbitrary amounts, up
    # and down, as no intersection stage does: a partition or uniform
    # union answers each call from its counts alone and keeps nothing, so
    # its block sums stay as they were; a transversal union moves its flow.
    # Counts grown by a fresh union decompose; every row that circuits
    # reports, alone or sharing a circuit, must get the answer of its own
    # search over a decomposition.  Random counts often leave the union
    # and must raise, also after a run of valid calls, and the next call
    # must answer as before.
    rng = random.Random(seed)
    m = union_matroid_draw(rng, kind)
    n = rng.randint(1, 3)
    union = UnionMatroid(m, n)
    blocks = isinstance(m, (PartitionMatroid, UniformMatroid))
    for _ in range(8):
        if rng.random() < 0.6:
            r, _ = UnionMatroid(m, n).grow(rng.randrange(m.d) for _ in range(rng.randint(0, m.d * n)))
        else:
            r = [rng.randint(0, n + 1) for _ in range(m.d)]
        rows = rng.sample(range(m.d), rng.randint(0, m.d))
        parts = UnionMatroid(m, n).decompose(r)
        before = copy.deepcopy(vars(union._engine))
        if parts is None:
            with pytest.raises(InternalError, match="left the intersection"):
                union.circuits(r, rows)
        else:
            answer = union.circuits(r, rows)
            assert answer == UnionMatroid(m, n).circuits(r, rows)
            assert row_answers(answer, rows) == reference_circuits(m, n, parts, rows)
        if blocks:
            assert vars(union._engine) == before
        assert_held_state(union)


def test_partition_union_circuits_from_block_sums():
    # Blocks {0, 1, 2} (capacity 1), {3} (capacity 0, a loop) and {4}
    # (capacity 2); n = 2.  Row 4 at n copies closes (4,) alone; a full
    # block reports its circuit once, for all its rows given.
    union = UnionMatroid(PartitionMatroid([0, 0, 0, 1, 2], [1, 0, 2]), 2)
    assert union.circuits([1, 0, 1, 0, 2], range(5)) == (
        [], [([4], (4,)), ([0, 1, 2], (0, 2)), ([3], ())])
    assert union.circuits([1, 0, 0, 0, 1], [4, 1]) == ([4, 1], [])
    assert union.circuits([1, 0, 1, 0, 1], [4, 2, 3, 0]) == (
        [4], [([0, 2], (0, 2)), ([3], ())])
    # Rows at n copies come first among the circuits, ascending, whatever
    # the order they are given in; then the full blocks.
    assert union.circuits([2, 0, 0, 0, 2], [4, 1, 0]) == (
        [], [([0], (0,)), ([4], (4,)), ([1], (0,))])
    for r in ([2, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 3]):
        with pytest.raises(InternalError):
            union.circuits(r, [0])
    assert union.circuits([1, 0, 0, 0, 1], [4, 1]) == ([4, 1], [])


@pytest.mark.parametrize("kind", FAMILIES)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_count_greedy_equals_cell_greedy(kind, seed, data):
    # solve_shuffling grows row counts; the reference runs the greedy over
    # the cells of the shuffle matroid in the same (-w, column, row) order.
    m = random_matroid(random.Random(seed), dmax=6, kind=kind)
    n = data.draw(st.integers(1, 3), label="n")
    bases = data.draw(st.booleans(), label="bases")
    rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                              min_size=m.d, max_size=m.d), label="profits")
    cbar = ProfitMatrix(sorted(r, reverse=True) for r in rows)
    w = [c for r in cbar.rows for c in r]
    order = sorted(range(m.d * n), key=lambda f: (-w[f], f % n, f // n))
    cells = greedy_in_order(ShuffleMatroid(m, n), order, w, force_basis=bases)
    assert solve_shuffling(m, n, cbar, bases) == Matrix01.from_flat(m.d, n, cells)


def reference_grow(union: UnionMatroid, elements):
    """UnionMatroid.grow without the refusal of reached elements: every
    distinct element is searched until it fails itself, and every step
    recounts all parts against the counts and checks each changed one."""
    slots = union._engine._slots
    counts, refused = [sum(x in p for p, _ in slots) for x in range(union.d)], set()
    for e in elements:
        before = [set(p) for p, _ in slots]
        if e in refused or not union._try_augment(e, set()):
            refused.add(e)
            continue
        counts[e] += 1
        recount = [0] * union.d
        for (p, _), q in zip(slots, before):
            if p != q and not union.part._indep(frozenset(p)):
                raise InternalError("augmentation left a dependent part")
            for x in p:
                recount[x] += 1
        if recount != counts:
            raise InternalError("part multiplicities differ from the requested counts")
        if sum(counts) == union.cap:
            break
    return counts, tuple(frozenset(p) for p, _ in slots)


def reference_for(union: UnionMatroid, data, elements):
    """A fresh union on the same matroid, or the circuit-first reference
    for a union on counts; it and union are both grown from the same drawn
    elements, or both left empty."""
    reference = (CircuitFirst if on_counts(union) else UnionMatroid)(union.part, union.n)
    if data.draw(st.booleans(), label="start grown"):
        start = data.draw(elements, label="start")
        union.grow(start)
        reference.grow(start)
    return reference


@pytest.mark.parametrize("kind", FAMILIES)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_grow_equals_reference_grow(kind, seed, data):
    # From empty parts or parts grown before, with repeated elements: the
    # same counts and, on slots, the same parts, part by part.
    m = random_matroid(random.Random(seed), dmax=6, kind=kind)
    n = data.draw(st.integers(1, 3), label="n")
    elements = st.lists(st.integers(0, m.d - 1), max_size=m.d * n + 4)
    union = UnionMatroid(m, n)
    reference = reference_for(union, data, elements)
    sequence = data.draw(elements, label="elements")
    assert_grows_as_reference(union, reference, sequence)


def assert_grows_as_reference(union: UnionMatroid, reference, sequence):
    """A slot union must grow the counts and parts of reference_grow; a
    count union the counts of the circuit-first reference, with parts of
    its own."""
    if on_counts(union):
        counts, parts = union.grow(sequence)
        assert counts == reference.grow(sequence)[0]
        assert_parts(union.part, union.n, counts, parts)
    else:
        assert union.grow(sequence) == reference_grow(reference, sequence)


class PrunedChecked(SlotUnion):
    """A slot engine whose every search runs once more without the pruning at
    refused elements; both must find the same fit by the same path."""

    pruned = 0  # elements reached only by the unpruned searches

    def _search(self, e, refused):
        fit, parent = super()._search(e, refused)
        whole_fit, whole = super()._search(e, set())
        assert fit == whole_fit
        if fit is None:
            assert set(parent) <= set(whole)
            self.pruned += len(whole) - len(parent)
            return fit, parent
        x = fit[0]
        while x is not None:
            assert parent[x] == whole[x]
            x = parent[x] and parent[x][0]
        return fit, parent


@pytest.mark.parametrize("kind", FAMILIES + ("multigraph",))
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pruned_search_finds_the_unpruned_path(kind, seed, data):
    # From empty parts or parts grown before, with repeated elements.  A
    # union on counts runs no such search: it grows as the reference.
    m = union_matroid_draw(random.Random(seed), kind)
    n = data.draw(st.integers(1, 3), label="n")
    elements = st.lists(st.integers(0, m.d - 1), max_size=m.d * n + 4)
    union = on_engine(m, n, PrunedChecked)
    reference = reference_for(union, data, elements)
    sequence = data.draw(elements, label="elements")
    assert_grows_as_reference(union, reference, sequence)


def test_pruned_search_skips_elements_on_a_grid():
    # The column-order greedy of three trees on a grid meets refused
    # elements in later searches; skipping them changes no tree.
    grid = grid_graph(6, 6)
    union = on_engine(grid, 3, PrunedChecked)
    order = list(range(grid.d)) * 3
    assert union.grow(order) == reference_grow(UnionMatroid(grid, 3), order)
    assert union._engine.pruned > 0


class CircuitFirst:
    """The exchange search without a fit pass, kept as the reference
    for every family, on n parts of its own: every copy is placed by its
    own search, in which each element taken from the queue, e included,
    asks the parts, in slot order, for the circuit it closes there, and
    the first part where it closes none takes it.  grow refuses elements
    and stops at the cap as UnionMatroid.grow does.  Every search is
    recorded as (e, fit, parent)."""

    def __init__(self, part, n):
        self.part, self.n = part, n
        self.cap = n * full_rank(part)
        self._counts = [0] * part.d
        self._slots = [[set(), part._build(frozenset())] for _ in range(n)]
        self.searches = []

    def grow(self, elements):
        total, refused = sum(self._counts), set()
        for e in elements:
            if e in refused or not self._try_augment(e, refused):
                continue
            total += 1
            if total == self.cap:
                break
        return self._counts[:], tuple(frozenset(p) for p, _ in self._slots)

    def _try_augment(self, e, refused):
        fit, parent = self._search(e, refused)
        if fit is None:
            refused.update(parent)
            return False
        x, k = fit
        changes = {k: ([], [x])}
        while parent[x] is not None:
            y, k = parent[x]
            lost, gained = changes.setdefault(k, ([], []))
            lost.append(x)
            gained.append(y)
            x = y
        assert x == e
        self._replace(changes)
        return True

    def _search(self, e, refused):
        parent = {e: None}
        queue = [e]
        for x in queue:
            for k, (p, cert) in enumerate(self._slots):
                if x in p:
                    continue
                members = self.part._circuit(cert, p, x)
                if members is None:
                    self.searches.append((e, (x, k), parent))
                    return (x, k), parent
                for v in members:
                    if v not in parent and v not in refused:
                        parent[v] = (x, k)
                        queue.append(v)
        self.searches.append((e, None, parent))
        return None, parent

    def _replace(self, changes):
        for k, (lost, gained) in changes.items():
            slot = self._slots[k]
            p = slot[0]
            assert p.issuperset(lost) and p.isdisjoint(gained)
            p.difference_update(lost)
            p.update(gained)
            slot[1] = self.part._derive(slot[1], lost, gained, p)
            assert slot[1] is not None
            for x in lost:
                self._counts[x] -= 1
            for x in gained:
                self._counts[x] += 1


class Recorded(SlotUnion):
    """A slot engine whose every search, one per copy, is recorded as
    (e, fit, parent)."""

    def __init__(self, part, n):
        super().__init__(part, n)
        self.searches = []

    def _search(self, e, refused):
        fit, parent = super()._search(e, refused)
        self.searches.append((e, fit, parent))
        return fit, parent


def counted(m: Matroid) -> Matroid:
    """A copy of m whose _circuit and _fits calls are counted in its calls,
    and in asked by (name, the set asked about, the element)."""
    c = copy.copy(m)
    c.calls, c.asked = Counter(), Counter()
    for name in ("_circuit", "_fits"):
        def hook(*args, name=name, answer=getattr(c, name)):
            c.calls[name] += 1
            c.asked[name, id(args[1]), args[2]] += 1
            return answer(*args)
        setattr(c, name, hook)
    return c


def search_matroid_draw(rng: random.Random, kind: str) -> Matroid:
    if kind == "oracle":  # circuits from the Matroid defaults
        m = union_matroid_draw(rng, rng.choice(FAMILIES))
        return OracleMatroid(m.d, m._indep)
    return union_matroid_draw(rng, kind)


@pytest.mark.parametrize("kind", FAMILIES + ("multigraph", "oracle"))
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_search_finds_the_circuit_first_path(kind, seed, data):
    # The engine and the circuit-first reference grow twin unions by the
    # same elements, from empty parts or parts grown before.  Search by
    # search, one per copy on both sides, they must find the same fit by
    # the same chain, and a failed search must reach the same elements by
    # the same arcs.  A graphic search whose fit pass places e at once
    # takes none of the arcs the reference takes from e's circuits in the
    # parts before its own, so a fit may reach a subset of the elements,
    # each by the same arc.  No family builds more circuits than the
    # reference, and only graphic parts answer _fits at all (the others
    # read it from the circuit).
    # A union on counts builds no circuit at all, and grows the counts of
    # the reference with parts of its own.
    rng = random.Random(seed)
    m = search_matroid_draw(rng, kind)
    n = data.draw(st.integers(1, 3), label="n")
    elements = st.lists(st.integers(0, m.d - 1), max_size=m.d * n + 4)
    mine, theirs = counted(m), counted(m)
    union, reference = on_engine(mine, n, Recorded), CircuitFirst(theirs, n)
    if on_counts(union):
        for sequence in (data.draw(elements, label="start"), data.draw(elements, label="elements")):
            assert_grows_as_reference(union, reference, sequence)
        assert not mine.calls
        return
    for sequence in (data.draw(elements, label="start"), data.draw(elements, label="elements")):
        assert union.grow(sequence) == reference.grow(sequence)
    searches = union._engine.searches
    assert len(searches) == len(reference.searches)
    for (e, fit, parent), (e_ref, fit_ref, want) in zip(searches, reference.searches):
        assert (e, fit) == (e_ref, fit_ref)
        if fit is None:
            assert parent == want
            continue
        assert all(want.get(v, False) == arc for v, arc in parent.items())
        x = fit[0]
        while x is not None:
            assert parent[x] == want[x]
            x = parent[x] and parent[x][0]
    assert mine.calls["_circuit"] <= theirs.calls["_circuit"]
    if not isinstance(m, GraphicMatroid):
        assert mine.calls == theirs.calls and not mine.calls["_fits"]


@pytest.mark.parametrize("kind", FAMILIES + ("multigraph", "oracle"))
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_direct_step_ends_as_the_reference(kind, seed, data):
    # The engine's search first asks graphic parts whether e fits and
    # places it at once where it does; the circuit-first reference asks
    # every part for circuits alone.  Both end with the same counts and
    # parts, and within one _try_augment no part is asked twice whether
    # one element fits, nor for its circuit.  A union on counts asks no
    # part anything, and ends with the reference's counts.
    rng = random.Random(seed)
    m = search_matroid_draw(rng, kind)
    n = data.draw(st.integers(1, 3), label="n")
    elements = st.lists(st.integers(0, m.d - 1), max_size=m.d * n + 4)
    mine = counted(m)
    engine, reference = UnionMatroid(mine, n), CircuitFirst(m, n)
    if on_counts(engine):
        for sequence in (data.draw(elements, label="start"), data.draw(elements, label="elements")):
            assert_grows_as_reference(engine, reference, sequence)
            assert engine._engine.counts == reference._counts
        assert not mine.calls
        return
    augment = engine._try_augment

    def once(e, refused):
        mine.asked.clear()
        placed = augment(e, refused)
        assert all(v == 1 for v in mine.asked.values())
        return placed

    engine._try_augment = once
    for sequence in (data.draw(elements, label="start"), data.draw(elements, label="elements")):
        assert engine.grow(sequence) == reference.grow(sequence)
        assert engine._engine.counts == reference._counts


def test_direct_fits_build_no_circuit_on_a_grid():
    # Three trees on a 20x20 grid by the column-order greedy: a copy that
    # fits a part straight away is placed by the search's fit pass and
    # builds no circuit, such copies are most of them, and the whole run
    # builds fewer circuits than the circuit-first search does: exactly
    # 1,035, pinned so that no change to the search builds more on grids.
    # Recorded holds one entry per copy, so the circuits are counted
    # around _try_augment.
    grid, reference = counted(grid_graph(20, 20)), counted(grid_graph(20, 20))
    union = on_engine(grid, 3, Recorded)
    circuits_before = []  # circuits built before each copy is placed
    augment = union._try_augment

    def watched(e, refused):
        circuits_before.append(grid.calls["_circuit"])
        return augment(e, refused)

    union._try_augment = watched
    order = list(range(grid.d)) * 3
    assert union.grow(order) == CircuitFirst(reference, 3).grow(order)
    searches = union._engine.searches
    assert len(circuits_before) == len(searches)
    circuits_after = circuits_before[1:] + [grid.calls["_circuit"]]
    direct = [after - before for (e, fit, _), before, after
              in zip(searches, circuits_before, circuits_after) if fit and fit[0] == e]
    assert len(direct) > len(searches) // 2 and not any(direct)
    assert grid.calls["_circuit"] == 1035 < reference.calls["_circuit"]
    assert grid.calls["_fits"] > 0 and not reference.calls["_fits"]


class FitsInSearch(SlotUnion):
    """A slot engine that counts its searches, and checks that within one
    copy its counted part is asked _fits only about that copy's element,
    at most once per part."""

    searches = 0

    def _search(self, e, refused):
        self.part.asked.clear()
        found = super()._search(e, refused)
        self.searches += 1
        fits = [(key, times) for key, times in self.part.asked.items() if key[0] == "_fits"]
        assert all(x == e and times == 1 for (_, _, x), times in fits)
        return found


def random_connected_graph(rng: random.Random, vertices: int, edges: int) -> GraphicMatroid:
    """A random tree, each vertex joined to an earlier one, and random
    further edges between distinct vertices, in shuffled order."""
    ends = [(v, rng.randint(1, v - 1)) for v in range(2, vertices + 1)]
    ends += [tuple(rng.sample(range(1, vertices + 1), 2)) for _ in range(edges - len(ends))]
    rng.shuffle(ends)
    return GraphicMatroid(vertices, ends)


@pytest.mark.parametrize("graph", ["grid", "sparse"])
def test_search_asks_each_part_once_whether_its_element_fits(graph):
    # Three trees by the column-order greedy, on a 20x20 grid and on a
    # sparse random connected graph, where most searches fail.  The fit
    # pass asks graphic parts _fits about e alone, once per part lacking
    # it; every other fit is read from a circuit (None).  The counts and
    # parts are those of the circuit-first reference.
    if graph == "grid":
        g = grid_graph(20, 20)
    else:
        g = random_connected_graph(random.Random(5), 300, 900)
    part = counted(g)
    union = union_on(FitsInSearch(part, 3))
    order = list(range(g.d)) * 3
    assert union.grow(order) == CircuitFirst(g, 3).grow(order)
    assert union._engine.searches > 0 and part.calls["_fits"] > 0


class OneStepPerCopy(Recorded):
    """A recorded slot engine that checks each add runs one _search, and
    each copy it places one _replace."""

    replaces = 0

    def add(self, e, refused):
        searches, replaces = len(self.searches), self.replaces
        placed = super().add(e, refused)
        assert (len(self.searches) - searches, self.replaces - replaces) == (1, placed)
        return placed

    def _replace(self, changes):
        self.replaces += 1
        super()._replace(changes)


@pytest.mark.parametrize("kind", ["grid", "linear_gf2"])
def test_each_copy_takes_one_search_and_one_replace(kind):
    # Three parts grown by a 20x20 grid's column-order greedy, or by a
    # random order of a random GF(2) matroid's elements, repeated.  A copy
    # that fits a part at once and one placed along a longer path both go
    # through the search and the one step that changes parts, and the
    # union grows as the circuit-first reference does.
    rng = random.Random(7)
    if kind == "grid":
        m = grid_graph(20, 20)
        order = list(range(m.d)) * 3
    else:
        m = LinearGf2Matroid([[rng.randint(0, 1) for _ in range(12)] for _ in range(60)])
        order = [rng.randrange(m.d) for _ in range(3 * m.d)]
    union = union_on(OneStepPerCopy(m, 3))
    assert union.grow(order) == CircuitFirst(m, 3).grow(order)
    searches = union._engine.searches
    direct = sum(fit is not None and parent[fit[0]] is None for _, fit, parent in searches)
    assert 0 < direct < union._engine.replaces
def greedy_rank(m: Matroid, elems) -> int:
    """Size of a maximum independent subset of elems, by greedy insertion."""
    cur: frozenset = frozenset()
    for e in elems:
        if m._indep(cur | {e}):
            cur |= {e}
    return len(cur)


@pytest.mark.parametrize("kind", FAMILIES + ("multigraph", "two_multigraphs", "huge_labels",
                                             "few_agents", "wide_transversal"))
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_rank_equals_greedy_rank(kind, seed, data):
    # Multigraphs with parallel edges and self-loops, often disconnected;
    # two of them side by side; one whose vertices carry labels up to a
    # declared count of 10**9; transversal matroids with 0 to 8 agents,
    # and with long alternating paths.  The rank of a subset in any order
    # is the oracle greedy's: a transversal pass refuses what each failed
    # search saw, whatever the order.
    rng = random.Random(seed)
    if kind == "few_agents":
        m = wide_matroid(rng, "transversal")
    elif kind == "wide_transversal":
        m = wide_transversal(rng)
    elif kind == "multigraph":
        m = random_multigraph(rng, rng.randint(1, 14))
    elif kind == "two_multigraphs":
        a, b = random_multigraph(rng, rng.randint(1, 7)), random_multigraph(rng, rng.randint(1, 7))
        m = GraphicMatroid(a.vertices + b.vertices,
                           a.edges + tuple((u + a.vertices, v + a.vertices) for u, v in b.edges))
    elif kind == "huge_labels":
        g = random_multigraph(rng, rng.randint(1, 14))
        m = GraphicMatroid(10**9, [(10**9 + 1 - u, 10**9 + 1 - v) for u, v in g.edges])
    else:
        m = random_matroid(rng, dmax=8, kind=kind)
    assert full_rank(m) == greedy_rank(m, range(m.d))
    s = data.draw(st.sets(st.integers(0, m.d - 1)), label="s")
    assert rank(m, Subset01.from_indices(m.d, s)) == greedy_rank(m, sorted(s))
    order = data.draw(st.permutations(sorted(s)), label="order")
    assert m._rank(order) == Matroid._rank(m, order)


def wide_transversal(rng: random.Random) -> TransversalMatroid:
    # Up to 60 elements, each adjacent to up to four of about d / 2 agents:
    # long alternating paths, full agents and loops (no agent at all).
    d = rng.randint(1, 60)
    agents = rng.randint(1, d // 2 + 2)
    return TransversalMatroid([rng.sample(range(agents), rng.randint(0, min(4, agents)))
                               for _ in range(d)], agents)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_flow_union_answers_as_the_circuit_first_reference(seed, data):
    # Beyond the desk corpora: the flow grows the counts of the
    # circuit-first reference, from empty or grown counts, with parts of
    # its own; decompose accepts exactly the vectors the reference reaches
    # from zero, grown ones and random ones; and circuits answers every
    # row with the reference's own search over a decomposition, tuple for
    # tuple.  Every part is independent and has the exact multiplicities.
    rng = random.Random(seed)
    m = wide_transversal(rng)
    n = data.draw(st.integers(1, 5), label="n")
    elements = st.lists(st.integers(0, m.d - 1), max_size=m.d * n + 4)
    union = UnionMatroid(m, n)
    reference = reference_for(union, data, elements)
    assert_grows_as_reference(union, reference, data.draw(elements, label="elements"))
    assert_held_state(union)
    for _ in range(3):
        if rng.random() < 0.5:
            r = CircuitFirst(m, n).grow(rng.randrange(m.d) for _ in range(rng.randint(0, m.d * n)))[0]
        else:
            r = [rng.randint(0, n) for _ in range(m.d)]
        parts = union.decompose(r)
        want, grown = CircuitFirst(m, n).grow(i for i, c in enumerate(r) for _ in range(c))
        assert (parts is not None) == (want == r)
        assert_held_state(union)
        if parts is None:
            continue
        assert_parts(m, n, r, parts)
        rows = rng.sample(range(m.d), rng.randint(1, m.d))
        assert row_answers(union.circuits(r, rows), rows) == reference_circuits(m, n, grown, rows)
        assert_held_state(union)
