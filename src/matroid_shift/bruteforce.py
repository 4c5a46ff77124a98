"""Exhaustive ground-truth oracles for tests, acceptance and CLI verification.

Everything here answers by definition: list the members of a set system by
filtering the power set through the independence oracle, then scan all
multisets of n members with one iterative walk (_multisets), whose picks
are nondecreasing and come in lexicographic order; an optimum's witness is
the first one in that order.  Size guards are hard errors, never silent
truncation.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .constructions import Matrix01
from .errors import GuardError, InputError
from .matroids import Matroid, Subset01, checked_ints, copy_count
from .solver import ProfitMatrix, check_multiset_guard

POWERSET_GUARD = 2**20


class ExplicitSetSystem:
    """A set system listed in full: distinct 0/1 member vectors over [d]."""

    __slots__ = ("d", "members")

    def __init__(self, d: int, members: Sequence[Sequence[int]]):
        (self.d,) = checked_ints("ground size", d)
        members = tuple(tuple(m) for m in members)
        for m in members:
            if len(m) != self.d or any(b not in (0, 1) for b in m):
                raise InputError("members must be 0/1 vectors of length d")
        if len(set(members)) != len(members):
            raise InputError("members must be distinct")
        self.members = members

    def __len__(self) -> int:
        return len(self.members)


def enumerate_members(m: Matroid, bases_only: bool = False) -> ExplicitSetSystem:
    """All independent sets of m (or only the bases), by power-set filtering."""
    if 2**m.d > POWERSET_GUARD:
        raise GuardError(f"2^{m.d} subsets exceed the enumeration guard {POWERSET_GUARD}")
    members = []
    for mask in range(1 << m.d):
        elems = frozenset(i for i in range(m.d) if mask >> i & 1)
        if m._indep(elems):
            members.append(tuple((mask >> i) & 1 for i in range(m.d)))
    if bases_only:
        top = max(sum(mem) for mem in members)
        members = [mem for mem in members if sum(mem) == top]
    return ExplicitSetSystem(m.d, members)


def _witness(sys: ExplicitSetSystem, picks: tuple[int, ...]) -> Matrix01:
    # Witness columns in canonical block order so test diffs stay stable.
    return Matrix01(
        tuple(tuple(sys.members[k][i] for k in picks) for i in range(sys.d))
    )


def _multisets(members: Sequence[Sequence[int]], n: int, cap: Sequence[int] | None = None):
    """Yield (counts, picks) for every multiset of n members.

    picks lists the member indices, nondecreasing, in lexicographic order;
    counts[i] is the multiplicity of element i.  Both lists are updated in
    place, so read them before the next step.  With cap, a pick that lifts
    some counts[i] above cap[i] is skipped with everything below it.  The
    stack is picks itself: no recursion, whatever n is.
    """
    supports = [[i for i, b in enumerate(z) if b] for z in members]
    counts = [0] * (len(members[0]) if members else 0)
    picks: list[int] = []
    k = 0  # the next member to try at depth len(picks)
    while True:
        if k < len(members):
            for i in supports[k]:
                counts[i] += 1
            if cap is None or all(counts[i] <= cap[i] for i in supports[k]):
                picks.append(k)
                if len(picks) < n:
                    continue
                yield counts, picks
                picks.pop()
        elif picks:
            k = picks.pop()
        else:
            return
        for i in supports[k]:
            counts[i] -= 1
        k += 1


def brute_shifted(sys: ExplicitSetSystem, n: int, c: ProfitMatrix) -> tuple[int, Matrix01]:
    """Exact shifted optimum over all multisets of n members.

    Row i of the shifted witness is 1 exactly in its first count_i columns,
    so the objective is the sum of prefix sums of the shifted profit rows at
    the member-multiplicity counts.  The witness is the first optimum found.
    """
    n = copy_count(n)
    if c.d != sys.d or c.n != n:
        raise InputError(f"profits {c.d}x{c.n} do not match d={sys.d}, n={n}")
    if not sys.members:
        raise InputError("the set system has no members")
    check_multiset_guard(len(sys), n)
    prefix = [list(accumulate(row, initial=0)) for row in c.shifted().rows]
    best, witness = None, None
    for counts, picks in _multisets(sys.members, n):
        value = sum(p[k] for p, k in zip(prefix, counts))
        if best is None or value > best:
            best, witness = value, tuple(picks)
    return best, _witness(sys, witness)


def brute_lexmin(sys: ExplicitSetSystem, n: int) -> tuple[tuple[int, ...], Matrix01]:
    """Exact lexicographically minimal vulnerability vector over member
    multisets; the witness is the first optimum found."""
    n = copy_count(n)
    if not sys.members:
        raise InputError("the set system has no members")
    check_multiset_guard(len(sys), n)
    best, witness = None, None
    for counts, picks in _multisets(sys.members, n):
        hist = [0] * (n + 1)
        for cnt in counts:
            hist[cnt] += 1
        # The vulnerability vector reversed: entry k counts the elements in
        # at least n - k picks, so ordinary lex order minimizes the last
        # vulnerability entry first.
        key = tuple(accumulate(hist[:0:-1]))
        if best is None or key < best:
            best, witness = key, tuple(picks)
    return tuple(reversed(best)), _witness(sys, witness)


def brute_shuffle_membership(sys: ExplicitSetSystem, n: int, x: Matrix01) -> bool:
    """Membership in the shuffle set by definition: some multiset of n members
    has element multiplicities equal to the row sums of x."""
    n = copy_count(n)
    if x.d != sys.d or x.n != n:
        raise InputError(f"matrix {x.d}x{x.n} does not match d={sys.d}, n={n}")
    check_multiset_guard(len(sys), n)
    target = list(x.row_sums())
    return any(counts == target for counts, _ in _multisets(sys.members, n, cap=target))


def common_members(m1: Matroid, m2: Matroid) -> ExplicitSetSystem:
    """Explicit listing of the sets independent in both matroids."""
    if m1.d != m2.d:
        raise InputError(f"ground sizes differ: {m1.d} vs {m2.d}")
    sys1 = enumerate_members(m1)
    keep = [mem for mem in sys1.members
            if m2._indep(frozenset(i for i, b in enumerate(mem) if b))]
    return ExplicitSetSystem(m1.d, keep)


def evaluate_shifted(c: ProfitMatrix, columns: Sequence[Subset01]) -> int:
    """Literal objective evaluation: build the matrix, shift it, take cbar . ybar.

    Used by tests as a second, unoptimized route to the same number that
    brute_shifted computes through prefix sums.
    """
    from .solver import shift  # local import to keep module load light

    y = Matrix01.from_columns([col.bits for col in columns])
    return c.shifted().dot(shift(y))
