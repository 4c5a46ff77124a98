"""Weighted matroid intersection, shifted values over intersections, and
the bipartite-matching fiber."""

import random

import pytest

from matroid_shift import (
    BipartiteGraph,
    DisallowedKindError,
    GraphicMatroid,
    InfeasibleError,
    InputError,
    IntersectionInstance,
    Matrix01,
    OracleMatroid,
    ProfitMatrix,
    ShuffleMatroid,
    UniformMatroid,
    brute_shifted,
    common_members,
    degree_matroids,
    equivalent,
    fiber_bipartite_matching,
    shifted_value_intersection,
    solve_shifted,
    solve_shifted_bipartite_matching,
    weighted_matroid_intersection_max,
)
from corpora import random_sbo_matroid

K22 = BipartiteGraph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
# path a-b-c: two edges sharing the middle vertex b
PATH_ABC = BipartiteGraph(2, 1, [(1, 1), (2, 1)])


def brute_common_max(m1, m2, w):
    best = 0
    for mask in range(1 << m1.d):
        s = frozenset(i for i in range(m1.d) if mask >> i & 1)
        if m1._indep(s) and m2._indep(s):
            best = max(best, sum(w[i] for i in s))
    return best


def test_wmi_examples():
    u = UniformMatroid(3, 2)
    got = weighted_matroid_intersection_max(u, u, [1, 2, 3])
    assert got.indices() == (1, 2)

    m1, m2 = degree_matroids(K22)
    got = weighted_matroid_intersection_max(m1, m2, [5, 1, 1, 5])
    assert got.indices() == (0, 3)  # e11 and e22, value 10

    got = weighted_matroid_intersection_max(m1, m2, [-1, -2, -1, -2])
    assert got.size() == 0


def test_wmi_matches_bruteforce():
    rng = random.Random(0)
    for _ in range(60):
        d = rng.randint(2, 8)
        m1 = random_sbo_matroid(rng, d)
        m2 = random_sbo_matroid(rng, d)
        w = [rng.randint(-6, 6) for _ in range(d)]
        got = weighted_matroid_intersection_max(m1, m2, w)
        assert m1.is_independent(got) and m2.is_independent(got)
        assert sum(w[i] for i in got.indices()) == brute_common_max(m1, m2, w)


def test_wmi_matches_bruteforce_on_matchings():
    # Matchings need exchanges: one heavy edge can block two lighter ones.
    m1, m2 = degree_matroids(BipartiteGraph(2, 2, [(1, 1), (2, 1), (2, 2)]))
    assert weighted_matroid_intersection_max(m1, m2, [2, 3, 2]).indices() == (0, 2)
    rng = random.Random(6)
    for _ in range(60):
        left, right = rng.randint(2, 4), rng.randint(2, 4)
        edges = [(rng.randint(1, left), rng.randint(1, right)) for _ in range(rng.randint(3, 8))]
        m1, m2 = degree_matroids(BipartiteGraph(left, right, edges))
        w = [rng.randint(-2, 9) for _ in edges]
        got = weighted_matroid_intersection_max(m1, m2, w)
        assert sum(w[i] for i in got.indices()) == brute_common_max(m1, m2, w)


def test_wmi_with_uniform_vs_graphic_oracles():
    # the routine is oracle-generic even though the shifted API restricts kinds
    rng = random.Random(1)
    tri = GraphicMatroid(3, [(1, 2), (2, 3), (1, 3)])
    u = UniformMatroid(3, 1)
    w = [3, 1, 2]
    got = weighted_matroid_intersection_max(tri, u, w)
    assert sum(w[i] for i in got.indices()) == brute_common_max(tri, u, w)
    for _ in range(10):
        w = [rng.randint(-4, 4) for _ in range(3)]
        got = weighted_matroid_intersection_max(tri, u, w)
        assert sum(w[i] for i in got.indices()) == brute_common_max(tri, u, w)


def test_wmi_over_shuffle_circuits_matches_per_swap_arcs():
    # OracleMatroid wrappers take their arcs from the per-swap fallback
    # circuit, so equal sets pin the tie-breaking, not only the value.
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(2, 4)
        n = rng.randint(1, 3)
        m1, m2 = random_sbo_matroid(rng, d), random_sbo_matroid(rng, d)
        w = [rng.randint(-3, 6) for _ in range(d * n)]
        got = weighted_matroid_intersection_max(ShuffleMatroid(m1, n), ShuffleMatroid(m2, n), w)
        oracles = [OracleMatroid(d * n, ShuffleMatroid(m, n)._indep) for m in (m1, m2)]
        assert got == weighted_matroid_intersection_max(*oracles, w)


def test_intersection_instance_rejects_kinds():
    tri = GraphicMatroid(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(DisallowedKindError):
        IntersectionInstance(tri, UniformMatroid(3, 1), 2, ProfitMatrix([[1, 1]] * 3))
    with pytest.raises(InputError):
        IntersectionInstance(UniformMatroid(2, 1), UniformMatroid(3, 1), 2,
                             ProfitMatrix([[1, 1]] * 2))


def test_shifted_value_examples():
    m1, m2 = degree_matroids(PATH_ABC)
    inst = IntersectionInstance(m1, m2, 2, ProfitMatrix([[1, 1], [1, 1]]))
    assert shifted_value_intersection(inst) == 2

    # two disjoint perfect matchings of K22 cover all four edges, so with
    # shifted profit rows (1, 0) the optimum counts distinct used edges: 4
    m1, m2 = degree_matroids(K22)
    c = ProfitMatrix([[1, 0]] * 4)
    expect, _ = brute_shifted(common_members(m1, m2), 2, c)
    assert expect == 4
    assert shifted_value_intersection(IntersectionInstance(m1, m2, 2, c)) == 4


def test_intersection_with_itself_matches_single_matroid():
    rng = random.Random(2)
    for _ in range(20):
        d = rng.randint(2, 5)
        m = random_sbo_matroid(rng, d)
        n = rng.randint(1, 3)
        c = ProfitMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)])
        val = shifted_value_intersection(IntersectionInstance(m, m, n, c))
        assert val == solve_shifted(m, n, c).value


def test_shifted_value_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(60):
        d = rng.randint(2, 5)
        n = rng.randint(1, 3)
        m1 = random_sbo_matroid(rng, d)
        m2 = random_sbo_matroid(rng, d)
        c = ProfitMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(d)])
        val = shifted_value_intersection(IntersectionInstance(m1, m2, n, c))
        expect, _ = brute_shifted(common_members(m1, m2), n, c)
        assert val == expect


def brute_union_member(m, n, elems):
    elems = tuple(elems)
    if n == 1:
        return m._indep(frozenset(elems))
    for mask in range(1 << len(elems)):
        a = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
        b = frozenset(elems) - a
        if m._indep(a) and brute_union_member(m, n - 1, tuple(b)):
            return True
    return False


def test_union_of_intersection_identity():
    # the n-union of the common sets equals the intersection of the n-unions
    # for strongly base orderable factors; both sides by brute force
    rng = random.Random(4)
    for _ in range(10):
        d = rng.randint(2, 4)
        m1 = random_sbo_matroid(rng, d)
        m2 = random_sbo_matroid(rng, d)
        inter = OracleMatroid(d, lambda s, a=m1, b=m2: a._indep(s) and b._indep(s))
        for mask in range(1 << d):
            elems = [i for i in range(d) if mask >> i & 1]
            lhs = brute_union_member(m1, 2, elems) and brute_union_member(m2, 2, elems)
            rhs = brute_union_member(inter, 2, elems)
            assert lhs == rhs


def test_fiber_bipartite_examples():
    y = fiber_bipartite_matching(PATH_ABC, 2, Matrix01([[1, 0], [0, 1]]))
    assert y == Matrix01([[1, 0], [0, 1]])

    with pytest.raises(InfeasibleError):
        fiber_bipartite_matching(PATH_ABC, 2, Matrix01([[1, 1], [1, 1]]))

    x = Matrix01([[1, 0], [0, 1], [0, 1], [1, 0]])  # row sums (1,1,1,1) on K22
    y = fiber_bipartite_matching(K22, 2, x)
    assert equivalent(x, y)
    cols = [col.indices() for col in y.columns()]
    assert sorted(cols) == [(0, 3), (1, 2)]  # the two disjoint perfect matchings


def test_fiber_bipartite_random():
    rng = random.Random(5)
    for _ in range(60):
        left, right = rng.randint(1, 3), rng.randint(1, 3)
        edges = [(rng.randint(1, left), rng.randint(1, right))
                 for _ in range(rng.randint(1, 6))]
        g = BipartiteGraph(left, right, edges)
        n = rng.randint(1, 3)
        m1, m2 = degree_matroids(g)
        members = common_members(m1, m2).members
        cols = [rng.choice(members) for _ in range(n)]
        rows = []
        for i in range(g.d):
            row = [cols[j][i] for j in range(n)]
            rng.shuffle(row)
            rows.append(row)
        x = Matrix01(rows)
        y = fiber_bipartite_matching(g, n, x)
        assert equivalent(x, y)
        assert all(m1.is_independent(col) and m2.is_independent(col)
                   for col in y.columns())


def test_fiber_bipartite_random_multigraphs():
    """Seeded 8x8 multigraphs, 32 edges, n = 3, max degree <= n: consecutive
    edges of a colour-swap path share a vertex, which an edge-by-edge swap of
    the colour table got wrong (KeyError or columns that are not matchings)."""
    rng = random.Random(0)
    n = 3
    for _ in range(300):
        g = BipartiteGraph(8, 8, [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(32)])
        degree = {}
        rows = []
        for l, r in g.edges:
            mult = rng.randint(0, n - max(degree.get(l, 0), degree.get(-r, 0)))
            degree[l] = degree.get(l, 0) + mult
            degree[-r] = degree.get(-r, 0) + mult
            row = [1] * mult + [0] * (n - mult)
            rng.shuffle(row)
            rows.append(row)
        x = Matrix01(rows)
        y = fiber_bipartite_matching(g, n, x)
        m1, m2 = degree_matroids(g)
        assert equivalent(x, y)
        assert all(m1.is_independent(col) and m2.is_independent(col) for col in y.columns())


def test_solve_shifted_bipartite_examples():
    # value 2 is forced; the witness may be {e1},{e2} or an equal-value tie
    sol = solve_shifted_bipartite_matching(PATH_ABC, 2, ProfitMatrix([[1, 1], [1, 1]]))
    assert sol.value == 2
    m1, m2 = degree_matroids(PATH_ABC)
    assert all(m1.is_independent(c) and m2.is_independent(c) for c in sol.y.columns())

    single = BipartiteGraph(1, 1, [(1, 1)])
    sol = solve_shifted_bipartite_matching(single, 3, ProfitMatrix([[3, 2, 1]]))
    assert sol.value == 6
    assert sol.y == Matrix01([[1, 1, 1]])

    # n = 1 degenerates to ordinary maximum-weight matching
    c = ProfitMatrix([[5], [1], [1], [5]])
    sol = solve_shifted_bipartite_matching(K22, 1, c)
    assert sol.value == 10


def test_solve_shifted_bipartite_matches_bruteforce():
    rng = random.Random(6)
    for _ in range(50):
        left, right = rng.randint(1, 3), rng.randint(1, 3)
        edges = [(rng.randint(1, left), rng.randint(1, right))
                 for _ in range(rng.randint(1, 6))]
        g = BipartiteGraph(left, right, edges)
        n = rng.randint(1, 3)
        c = ProfitMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(g.d)])
        sol = solve_shifted_bipartite_matching(g, n, c)
        m1, m2 = degree_matroids(g)
        expect, _ = brute_shifted(common_members(m1, m2), n, c)
        assert sol.value == expect
