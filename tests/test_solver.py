"""Shift calculus and the shifted / lexicographic / explicit-list solvers."""

import copy
import hashlib
import itertools
import json
import random
import re

import pytest

from matroid_shift import (
    BipartiteGraph,
    GraphicMatroid,
    GuardError,
    InfeasibleError,
    InputError,
    InternalError,
    IntersectionInstance,
    LiftMatroid,
    Matrix01,
    OverflowGuardError,
    PartitionMatroid,
    ProfitMatrix,
    ShuffleMatroid,
    Subset01,
    UnionMatroid,
    UniformMatroid,
    brute_lexmin,
    brute_shifted,
    brute_shuffle_membership,
    enumerate_members,
    fiber_bipartite_matching,
    equivalent,
    full_rank,
    greedy_max,
    lex_less,
    lexmin_shuffle_basis,
    shift,
    solve_fiber,
    solve_lexmin,
    solve_shifted,
    solve_shifted_small,
    solve_shuffling,
    union_is_independent,
    validate,
    vulnerability_vector,
    weighted_matroid_intersection_max,
)
from matroid_shift import solver
from corpora import (FAMILIES, K4, PATH3_EDGES, TRIANGLE, family_corpus, grid_graph,
                     random_matroid, sparse_random_graph)


def random_matrix(rng, d, n):
    return Matrix01([[rng.randint(0, 1) for _ in range(n)] for _ in range(d)])


# --- shift / equivalence / vulnerability -----------------------------------

def test_shift_examples():
    assert shift(Matrix01([[0, 1], [1, 1]])) == Matrix01([[1, 0], [1, 1]])
    x = Matrix01([[1, 0], [1, 1]])
    assert shift(x) == x
    z = Matrix01.zero(3, 2)
    assert shift(z) == z


def test_shift_properties_random():
    rng = random.Random(0)
    for _ in range(50):
        x = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 4))
        xbar = shift(x)
        assert shift(xbar) == xbar
        assert equivalent(x, xbar)
        assert all(r[j] >= r[j + 1] for r in xbar.rows for j in range(len(r) - 1))


def test_equivalent_examples():
    assert equivalent(Matrix01([[1, 0]]), Matrix01([[0, 1]]))
    x = Matrix01([[1, 0], [0, 1]])
    assert equivalent(x, x)
    assert not equivalent(Matrix01([[1, 1]]), Matrix01([[1, 0]]))
    with pytest.raises(InputError):
        equivalent(Matrix01([[1]]), Matrix01([[1, 0]]))


def test_equivalence_is_congruence_for_objective():
    rng = random.Random(1)
    for _ in range(40):
        d, n = rng.randint(1, 4), rng.randint(1, 3)
        x = random_matrix(rng, d, n)
        # permute each row independently: stays equivalent
        rows = []
        for r in x.rows:
            r = list(r)
            rng.shuffle(r)
            rows.append(r)
        y = Matrix01(rows)
        assert equivalent(x, y)
        assert vulnerability_vector(x) == vulnerability_vector(y)
        c = ProfitMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(d)])
        cbar = c.shifted()
        assert cbar.dot(shift(x)) == cbar.dot(shift(y))


def test_vulnerability_examples():
    trees = Matrix01([[1, 0], [1, 1], [0, 1]])  # triangle trees {e1,e2}, {e2,e3}
    assert vulnerability_vector(trees) == (3, 1)
    same = Matrix01([[1, 1, 1], [1, 1, 1]])
    assert vulnerability_vector(same) == (2, 2, 2)
    assert vulnerability_vector(Matrix01.zero(3, 2)) == (0, 0)


def test_lex_less():
    assert lex_less((3, 1), (2, 2))  # g - f = (-1, 1): last nonzero positive
    assert not lex_less((3, 1), (3, 1))
    assert lex_less((5, 0), (4, 1))
    assert not lex_less((2, 2), (3, 1))
    with pytest.raises(InputError):
        lex_less((1,), (1, 2))


# --- shuffling --------------------------------------------------------------

@pytest.mark.parametrize("bad", [True, 1.5, "3"], ids=["bool", "float", "string"])
def test_profit_matrix_names_its_first_non_integer(bad):
    with pytest.raises(InputError, match=re.escape(f"weights must be integers, got {bad!r}")):
        ProfitMatrix([[4, 1], [bad, 2.5]])


def test_profit_matrix_accepts_int_subclasses():
    class Count(int):
        pass

    c = ProfitMatrix(row for row in ([Count(3), 1], (0, Count(-2))))
    assert c.rows == ((3, 1), (0, -2)) and c.shifted().rows == ((3, 1), (0, -2))
    with pytest.raises(OverflowGuardError):
        ProfitMatrix([[2**60, Count(-2**60)], [1, 0]])


def test_solve_shuffling_examples():
    u21 = UniformMatroid(2, 1)
    x = solve_shuffling(u21, 2, ProfitMatrix([[1, 0], [1, 0]]), bases=True)
    assert x.total() == 2
    assert ProfitMatrix([[1, 0], [1, 0]]).dot(x) == 2

    x2 = solve_shuffling(TRIANGLE, 2, ProfitMatrix([[1, 1]] * 3), bases=True)
    assert x2.total() == 4

    x3 = solve_shuffling(UniformMatroid(3, 1), 1, ProfitMatrix([[-1], [-1], [-1]]))
    assert x3 == Matrix01.zero(3, 1)


def test_solve_shuffling_rejects_unshifted_profits():
    with pytest.raises(InputError):
        solve_shuffling(TRIANGLE, 2, ProfitMatrix([[0, 1]] * 3))


# --- fiber -------------------------------------------------------------------

def test_solve_fiber_examples():
    u21 = UniformMatroid(2, 1)
    y = solve_fiber(u21, 2, Matrix01([[1, 0], [1, 0]]))
    assert sorted(col.indices() for col in y.columns()) == [(0,), (1,)]

    x = Matrix01([[1, 0], [0, 1], [0, 0]])  # columns already independent
    y2 = solve_fiber(TRIANGLE, 2, x)
    assert equivalent(x, y2)
    assert all(TRIANGLE.is_independent(col) for col in y2.columns())

    with pytest.raises(InfeasibleError):
        solve_fiber(TRIANGLE, 2, Matrix01([[1, 1], [1, 1], [1, 1]]))


def test_whole_float_entries_answer_as_ints():
    # Matrix01 and Subset01 accept whole floats, yet a fiber of one once
    # crashed the union's count loop with a bare TypeError: the row sums
    # were floats.  Both keep their entries as the ints 0 and 1 now.
    u32 = UniformMatroid(3, 2)
    x = Matrix01([[1.0, 0], [0, 1], [True, 0]])
    assert all(type(v) is int for row in x.rows for v in row)
    assert solve_fiber(u32, 2, x) == solve_fiber(u32, 2, Matrix01([[1, 0], [0, 1], [1, 0]]))
    s = Subset01([1.0, 0, True])
    assert all(type(b) is int for b in s.bits)
    assert union_is_independent(u32, 2, s) == union_is_independent(u32, 2, Subset01([1, 0, 1]))


def test_fiber_contract_random():
    rng = random.Random(2)
    for _ in range(80):
        m = random_matroid(rng, dmax=5)
        n = rng.randint(1, 3)
        members = enumerate_members(m).members
        cols = [rng.choice(members) for _ in range(n)]
        rows = []
        for i in range(m.d):
            row = [cols[j][i] for j in range(n)]
            rng.shuffle(row)
            rows.append(row)
        x = Matrix01(rows)
        y = solve_fiber(m, n, x)
        assert equivalent(x, y)
        assert all(m.is_independent(col) for col in y.columns())


def test_fiber_cold_query_above_recursion_limit():
    # A cold decomposition of 1100 cells once recursed once per cell.
    x = Matrix01([[1]] * 1100)
    assert solve_fiber(UniformMatroid(1100, 1100), 1, x) == x


# --- shifted solver -----------------------------------------------------------

def test_solve_shifted_triangle_example():
    c = ProfitMatrix([[3, 0], [3, 0], [0, 0]])
    sol = solve_shifted(TRIANGLE, 2, c, bases=True)
    value, _ = brute_shifted(enumerate_members(TRIANGLE, bases_only=True), 2, c)
    assert value == 6
    assert sol.value == 6


def test_solve_shifted_constant_zero():
    sol = solve_shifted(K4, 2, ProfitMatrix([[0, 0]] * 6), bases=True)
    assert sol.value == 0
    assert all(col.size() == 3 for col in sol.y.columns())


def test_solve_shifted_concentrate_or_spread():
    # three singleton bases, shifted profits (2,1,0) per row: spreading over
    # three distinct elements wins with value 6 (brute-checked, not guessed)
    m = UniformMatroid(3, 1)
    c = ProfitMatrix([[2, 1, 0]] * 3)
    value, _ = brute_shifted(enumerate_members(m, bases_only=True), 3, c)
    assert value == 6
    sol = solve_shifted(m, 3, c, bases=True)
    assert sol.value == 6


def test_solve_shifted_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(120):
        m = random_matroid(rng, dmax=6)
        n = rng.randint(1, 3)
        bases = rng.random() < 0.5
        c = ProfitMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m.d)])
        sol = solve_shifted(m, n, c, bases=bases)
        expect, _ = brute_shifted(enumerate_members(m, bases_only=bases), n, c)
        assert sol.value == expect
        r = full_rank(m) if bases else None
        for col in sol.y.columns():
            assert m.is_independent(col)
            if bases:
                assert col.size() == r


def test_objective_sandwich():
    # the returned value dominates cbar . zbar for any feasible z
    rng = random.Random(4)
    m = random_matroid(rng, dmax=5)
    n = 3
    c = ProfitMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m.d)])
    cbar = c.shifted()
    sol = solve_shifted(m, n, c)
    members = enumerate_members(m).members
    for _ in range(1000):
        z = Matrix01.from_columns([rng.choice(members) for _ in range(n)])
        assert sol.value >= cbar.dot(shift(z))


def test_bases_transform_consistency():
    # for basis matrices x, y of the shuffle matroid, wx - wy = cx - cy with
    # w = c + 2|c| + 1 entrywise
    rng = random.Random(5)
    for m in family_corpus(max_d=4):
        n = 2
        c = ProfitMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m.d)])
        total = sum(abs(v) for row in c.rows for v in row)
        sm = ShuffleMatroid(m, n)
        bases = []
        for _ in range(4):
            wrand = [rng.randint(-3, 3) for _ in range(m.d * n)]
            bases.append(greedy_max(sm, wrand, force_basis=True))
        for x, y in itertools.combinations(bases, 2):
            cx = sum(c.rows[f // n][f % n] for f in x.indices())
            cy = sum(c.rows[f // n][f % n] for f in y.indices())
            wx = sum(c.rows[f // n][f % n] + 2 * total + 1 for f in x.indices())
            wy = sum(c.rows[f // n][f % n] + 2 * total + 1 for f in y.indices())
            assert wx - wy == cx - cy


# --- lexmin -------------------------------------------------------------------

def test_lexmin_named_instances():
    assert brute_lexmin(enumerate_members(TRIANGLE, bases_only=True), 2)[0] == (3, 1)
    assert solve_lexmin(TRIANGLE, 2).vuln == (3, 1)
    assert brute_lexmin(enumerate_members(K4, bases_only=True), 2)[0] == (6, 0)
    assert solve_lexmin(K4, 2).vuln == (6, 0)


def test_lexmin_unique_basis_tree():
    tree = GraphicMatroid(4, PATH3_EDGES)
    for n in (1, 2, 4):
        sol = solve_lexmin(tree, n)
        assert sol.vuln == tuple([3] * n)


def test_lexmin_matches_bruteforce():
    rng = random.Random(6)
    for _ in range(40):
        m = random_matroid(rng, dmax=5)
        n = rng.randint(2, 3)
        sol = solve_lexmin(m, n)
        expect, _ = brute_lexmin(enumerate_members(m, bases_only=True), n)
        assert sol.vuln == expect
        assert sol.value is None


def test_lexmin_uniform_and_partition_up_to_d6():
    rng = random.Random(7)
    cases = [UniformMatroid(d, r) for d in range(1, 7) for r in range(0, d + 1, 2)]
    for _ in range(12):
        d = rng.randint(2, 6)
        nb = rng.randint(1, 3)
        cases.append(PartitionMatroid([rng.randrange(nb) for _ in range(d)],
                                      [rng.randint(0, 2) for _ in range(nb)]))
    for m in cases:
        for n in (2, 3):
            expect, _ = brute_lexmin(enumerate_members(m, bases_only=True), n)
            assert solve_lexmin(m, n).vuln == expect


@pytest.mark.parametrize("side, vuln, digest", [
    (10, (180, 117, 0), "4567fc65de42d82b"),
    (20, (760, 437, 0), "1e97a0a238724982"),
    (30, (1740, 957, 0), "aeca3e09298c86a2"),
    (60, (7080, 3717, 0), "abf6eb54b80d0274"),
    (100, (19800, 10197, 0), "dee04cb4ec1b4012"),
], ids=["10x10", "20x20", "30x30", "60x60", "100x100"])
def test_lexmin_three_trees_on_grids(side, vuln, digest):
    # Values from the circuit search that rebuilt each forest per call; the
    # 20x20 grid (d=760) drives the forest index through about 37 k circuits.
    # The digest pins the witness columns, whose forest paths grow long at
    # scale: sha256 of the JSON list of 0-based column index lists.
    sol = solve_lexmin(grid_graph(side, side), 3)
    assert sol.vuln == vuln
    cols = [list(col.indices()) for col in sol.y.columns()]
    assert hashlib.sha256(json.dumps(cols).encode()).hexdigest()[:16] == digest


def test_lexmin_three_trees_on_a_sparse_random_graph():
    # V=1000, E=3000, where most searches fail; digest as on the grids.
    sol = solve_lexmin(sparse_random_graph(), 3)
    assert sol.vuln == (2929, 57, 11)
    cols = [list(col.indices()) for col in sol.y.columns()]
    assert hashlib.sha256(json.dumps(cols).encode()).hexdigest()[:16] == "b03b3540617b5581"


def test_lexmin_big_weight_equivalence():
    # column-order greedy equals explicit-weight greedy with weights
    # -(d+1)^(j-1) under the bases transform, as exact sets
    for m in family_corpus(max_d=4):
        d = m.d
        for n in (1, 2, 3):
            by_order = lexmin_shuffle_basis(m, n)
            c = [[-((d + 1) ** j) for j in range(n)] for _ in range(d)]
            total = sum(abs(v) for row in c for v in row)
            w = [c[i][j] + 2 * total + 1 for i in range(d) for j in range(n)]
            sel = greedy_max(ShuffleMatroid(m, n), w)
            assert by_order == Matrix01.from_flat(d, n, sel.indices())


# --- explicit-list solver -------------------------------------------------------

def test_solve_shifted_small_examples():
    sol = solve_shifted_small([(1, 0), (0, 1)], 3, ProfitMatrix([[2, 1, 0], [2, 1, 0]]))
    assert sol.value == 5

    only = solve_shifted_small([(1, 1, 0)], 2, ProfitMatrix([[1, 1], [2, 2], [3, 3]]))
    assert only.y == Matrix01([[1, 1], [1, 1], [0, 0]])
    assert only.value == 6

    zero = solve_shifted_small([(0, 0)], 2, ProfitMatrix([[4, 4], [4, 4]]))
    assert zero.value == 0


def test_solve_shifted_small_general_integers():
    # entries outside {0,1} are legal; vulnerability is then undefined
    sol = solve_shifted_small([(2, -1), (0, 3)], 2, ProfitMatrix([[1, 0], [2, 1]]))
    assert sol.vuln is None
    best = None
    for cols in itertools.product([(2, -1), (0, 3)], repeat=2):
        rows = [sorted((cols[0][i], cols[1][i]), reverse=True) for i in range(2)]
        val = 1 * rows[0][0] + 0 * rows[0][1] + 2 * rows[1][0] + 1 * rows[1][1]
        best = val if best is None else max(best, val)
    assert sol.value == best


def test_solve_shifted_small_matches_bruteforce():
    rng = random.Random(7)
    from corpora import random_explicit_system
    from matroid_shift import ExplicitSetSystem

    for _ in range(60):
        d, members = random_explicit_system(rng)
        n = rng.randint(1, 6)
        c = ProfitMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(d)])
        sol = solve_shifted_small(members, n, c)
        expect, _ = brute_shifted(ExplicitSetSystem(d, members), n, c)
        assert sol.value == expect


def test_solve_shifted_small_takes_the_first_optimum_in_count_order():
    # Every multiset ties at 2; the first count tuple in ascending order,
    # (0, 2), puts both columns on the second vector.
    sol = solve_shifted_small([(1, 0), (0, 1)], 2, ProfitMatrix([[1, 1], [1, 1]]))
    assert sol.value == 2
    assert sol.y == Matrix01([[0, 0], [1, 1]])


def test_solve_shifted_small_many_vectors():
    # One count tuple per vector; the enumeration once recursed once per vector.
    sol = solve_shifted_small([[1, 0]] * 2000, 1, ProfitMatrix([[3], [1]]))
    assert sol.value == 3
    assert sol.y == Matrix01([[1], [0]])


def test_solve_shifted_small_guards_its_enumeration(monkeypatch):
    # C(203, 4) = 6.8e7 multisets of 4 out of 200 vectors: refused before
    # the scan starts.
    def no_scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(solver, "combinations_with_replacement", no_scan)
    with pytest.raises(GuardError, match="enumeration guard"):
        solve_shifted_small([[1, 0]] * 200, 4, ProfitMatrix([[1] * 4] * 2))


@pytest.mark.parametrize("kind", FAMILIES)
def test_solvers_leave_the_matroid_unchanged(kind):
    # A matroid is a description: no solver, check or greedy changes it.
    rng = random.Random(23)
    for _ in range(10):
        m = random_matroid(rng, dmax=6, kind=kind)
        n = rng.randint(1, 3)
        state = copy.deepcopy(vars(m))
        c = ProfitMatrix([[rng.randint(-3, 5) for _ in range(n)] for _ in range(m.d)])
        y = solve_shifted(m, n, c).y
        solve_lexmin(m, n)
        validate(solve_fiber(m, n, shift(y)), [m], x=y)
        greedy_max(m, [rng.randint(-3, 5) for _ in range(m.d)])
        assert vars(m) == state


def test_validate_refuses_a_value_without_profits():
    # This once raised AttributeError.
    y = Matrix01([[1], [1], [0]])
    with pytest.raises(InputError, match="needs cbar"):
        validate(y, [TRIANGLE], value=3)
    validate(y, [TRIANGLE], cbar=ProfitMatrix([[1], [2], [3]]), value=3)


@pytest.mark.parametrize("claim, match", [
    ({"cbar": ProfitMatrix([[1], [2], [3]]), "value": 4}, r"worth 3, not 4"),
    ({"vuln": (1,)}, r"vector is \[2\], not \[1\]"),
    ({"x": Matrix01([[1], [0], [1]])}, "not equivalent"),
], ids=["value", "vulnerability", "not-equivalent"])
def test_validate_refuses_a_wrong_claim(claim, match):
    # Two edges of the triangle, worth 3, with vulnerability (2,) and the
    # row sums (1, 1, 0): each claim is checked, and a wrong one raises.
    y = Matrix01([[1], [1], [0]])
    validate(y, [TRIANGLE], rank=2, cbar=ProfitMatrix([[1], [2], [3]]), value=3, vuln=(2,), x=y)
    with pytest.raises(InternalError, match=match):
        validate(y, [TRIANGLE], **claim)


def test_solver_input_errors():
    with pytest.raises(InputError):
        solve_shifted(TRIANGLE, 2, ProfitMatrix([[1, 1]] * 2))
    with pytest.raises(InputError):
        solve_shifted(TRIANGLE, 3, ProfitMatrix([[1, 1]] * 3))
    with pytest.raises(InputError):
        solve_shifted_small([], 2, ProfitMatrix([[1, 1]]))
    with pytest.raises(OverflowGuardError):
        ProfitMatrix([[2**61, 1]])
    with pytest.raises(OverflowGuardError):
        solve_shifted_small([(2**40,)], 1, ProfitMatrix([[2**40]]))


# --- copy counts ---------------------------------------------------------------

P3 = PartitionMatroid([0, 1, 1], [1, 1])  # three elements, as TRIANGLE
C2 = ProfitMatrix([[3, 1], [2, 2], [1, 0]])  # 3 x 2 profits
X2 = Matrix01([[1, 0], [0, 1], [0, 0]])
COPY_COUNT_SITES = {
    "LiftMatroid": lambda n: LiftMatroid(TRIANGLE, n),
    "UnionMatroid": lambda n: UnionMatroid(TRIANGLE, n),
    "solve_lexmin": lambda n: solve_lexmin(TRIANGLE, n),
    "lexmin_shuffle_basis": lambda n: lexmin_shuffle_basis(TRIANGLE, n),
    "solve_shifted": lambda n: solve_shifted(TRIANGLE, n, C2),
    "solve_shifted_small": lambda n: solve_shifted_small([(1, 0, 1)], n, C2),
    "IntersectionInstance": lambda n: IntersectionInstance(P3, P3, n, C2),
    "weighted_matroid_intersection_max": lambda n: weighted_matroid_intersection_max(
        P3, P3, [1] * 6, n),
    "fiber_bipartite_matching": lambda n: fiber_bipartite_matching(
        BipartiteGraph(2, 2, [(1, 1), (1, 2), (2, 2)]), n, X2),
    "brute_shifted": lambda n: brute_shifted(enumerate_members(TRIANGLE), n, C2),
    "brute_lexmin": lambda n: brute_lexmin(enumerate_members(TRIANGLE), n),
    "brute_shuffle_membership": lambda n: brute_shuffle_membership(enumerate_members(TRIANGLE), n, X2),
}


@pytest.mark.parametrize("site", COPY_COUNT_SITES)
def test_copy_counts_are_ints_never_rounded(site):
    # Every site that takes a copy count once coerced it with int(): 2.9
    # ran as 2, 2.0 and "2" ran, and None raised TypeError.  Each now
    # takes an int of at least 1 and refuses anything else with
    # InputError, and still runs with n = 2.
    call = COPY_COUNT_SITES[site]
    call(2)
    for bad in (2.0, 2.9, True, "2", None):
        with pytest.raises(InputError, match=re.escape(f"copy count must be an integer, got {bad!r}")):
            call(bad)
    for bad in (0, -1):
        with pytest.raises(InputError, match=f"copy count must be >= 1, got {bad}"):
            call(bad)
