"""The brute-force oracles themselves: enumeration, guards, and the
multiset-sufficiency argument."""

import itertools
import random

import pytest

from matroid_shift import (
    ExplicitSetSystem,
    GuardError,
    InputError,
    Matrix01,
    ProfitMatrix,
    Subset01,
    UniformMatroid,
    brute_lexmin,
    brute_shifted,
    brute_shuffle_membership,
    enumerate_members,
    greedy_max,
)
from matroid_shift.bruteforce import evaluate_shifted
from corpora import K4, TRIANGLE, random_matroid


def test_enumerate_members_counts():
    assert len(enumerate_members(TRIANGLE, bases_only=True)) == 3
    assert len(enumerate_members(K4, bases_only=True)) == 16  # Cayley: 4^2
    u31 = UniformMatroid(3, 1)
    sysm = enumerate_members(u31)
    assert sorted(sysm.members) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_explicit_system_validation():
    with pytest.raises(InputError):
        ExplicitSetSystem(2, [(0, 1), (0, 1)])
    with pytest.raises(InputError):
        ExplicitSetSystem(2, [(0, 1, 1)])


def test_brute_shifted_examples():
    trees = enumerate_members(TRIANGLE, bases_only=True)
    value, witness = brute_shifted(trees, 2, ProfitMatrix([[3, 0], [3, 0], [0, 0]]))
    assert value == 6
    assert witness.n == 2 and witness.d == 3

    value0, _ = brute_shifted(trees, 2, ProfitMatrix([[0, 0]] * 3))
    assert value0 == 0

    single = ExplicitSetSystem(3, [(1, 1, 0)])
    value1, witness1 = brute_shifted(single, 3, ProfitMatrix([[1, 1, 1]] * 3))
    assert value1 == 6  # 3 copies of a 2-element member, all-ones profits
    assert witness1 == Matrix01([[1, 1, 1], [1, 1, 1], [0, 0, 0]])


def test_brute_shifted_n1_equals_greedy():
    rng = random.Random(0)
    for _ in range(30):
        m = random_matroid(rng, dmax=6)
        w = [rng.randint(-5, 5) for _ in range(m.d)]
        value, _ = brute_shifted(enumerate_members(m), 1, ProfitMatrix([[x] for x in w]))
        picked = greedy_max(m, w)
        assert value == sum(w[i] for i in picked.indices())


def test_brute_lexmin_examples():
    assert brute_lexmin(enumerate_members(TRIANGLE, bases_only=True), 2)[0] == (3, 1)
    assert brute_lexmin(enumerate_members(K4, bases_only=True), 2)[0] == (6, 0)
    single = ExplicitSetSystem(4, [(1, 1, 1, 0)])
    assert brute_lexmin(single, 3)[0] == (3, 3, 3)


def test_brute_shuffle_membership_examples():
    bases = ExplicitSetSystem(2, [(1, 0), (0, 1)])  # bases of U(2,1)
    assert brute_shuffle_membership(bases, 2, Matrix01([[1, 0], [0, 1]]))
    assert brute_shuffle_membership(bases, 2, Matrix01([[1, 1], [0, 0]]))
    assert not brute_shuffle_membership(bases, 2, Matrix01([[1, 1], [1, 0]]))


def test_brute_shifted_takes_the_first_optimum_in_scan_order():
    # Every multiset of two members is worth 2; the scan meets picks (0, 0) first.
    pair = ExplicitSetSystem(2, [(1, 0), (0, 1)])
    value, witness = brute_shifted(pair, 2, ProfitMatrix([[1, 1], [1, 1]]))
    assert value == 2
    assert witness == Matrix01([[1, 1], [0, 0]])


def test_brute_lexmin_takes_the_first_optimum_in_scan_order():
    # Both one-member multisets have vulnerability (1,); member 0 comes first.
    pair = ExplicitSetSystem(2, [(1, 0), (0, 1)])
    assert brute_lexmin(pair, 1) == ((1,), Matrix01([[1], [0]]))


def test_brute_shuffle_membership_walks_past_pruned_branches():
    # Row sums (1, 2, 1): picks (1, 2) match, after the walk has cut
    # (0, 0), (0, 1), (0, 3) and (1, 1), which overshoot a row.
    sysm = ExplicitSetSystem(3, [(1, 1, 0), (1, 1, 1), (0, 1, 0), (1, 0, 1)])
    assert brute_shuffle_membership(sysm, 2, Matrix01([[1, 0], [1, 1], [1, 0]]))
    # Row sums (0, 2, 2): only member 2 avoids row 0, and it misses row 2.
    assert not brute_shuffle_membership(sysm, 2, Matrix01([[0, 0], [1, 1], [1, 1]]))


def test_brute_oracles_reject_an_empty_system():
    empty = ExplicitSetSystem(2, [])
    with pytest.raises(InputError):
        brute_shifted(empty, 1, ProfitMatrix([[1], [1]]))
    with pytest.raises(InputError):
        brute_lexmin(empty, 1)


def test_brute_oracles_take_many_copies():
    # One multiset of 1200 copies; the scan once recursed once per copy.
    single = ExplicitSetSystem(2, [(1, 0)])
    assert brute_lexmin(single, 1200)[0] == (1,) * 1200
    value, witness = brute_shifted(single, 1200, ProfitMatrix([[1] * 1200, [5] * 1200]))
    assert value == 1200 and witness.row_sums() == (1200, 0)
    assert brute_shuffle_membership(single, 1200, witness)


def test_multiset_sufficiency():
    # ordered tuples give the same optimum as multisets, evaluated literally
    rng = random.Random(1)
    for _ in range(15):
        m = random_matroid(rng, dmax=4)
        n = rng.randint(1, 3)
        sysm = enumerate_members(m)
        if len(sysm) ** n > 10**5:
            continue
        c = ProfitMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m.d)])
        expect, _ = brute_shifted(sysm, n, c)
        ordered_best = max(
            evaluate_shifted(c, [Subset01(mem) for mem in combo])
            for combo in itertools.product(sysm.members, repeat=n)
        )
        assert ordered_best == expect


def test_guards_are_hard_errors():
    with pytest.raises(GuardError):
        enumerate_members(UniformMatroid(25, 3))
    # C(8 + 30 - 1, 30) > 10^7 multisets
    cube = ExplicitSetSystem(3, list(itertools.product((0, 1), repeat=3)))
    with pytest.raises(GuardError):
        brute_shifted(cube, 30, ProfitMatrix([[0] * 30] * 3))
