"""Shift calculus and the shifted / lexicographic solvers.

A d x n profit matrix c is row-sorted ("shifted") to cbar; the shifted
optimum max{cbar . xbar : every column of x independent} is found by running
the greedy algorithm over the shuffle matroid on row counts; the n parts it
grows by matroid partitioning are a column-feasible witness.  Lexicographically
minimal bases fall out of the same machinery with an implicit profit matrix
that is constant within each column and strictly decreasing from column to
column: the induced greedy order is simply "column 1 first, then column 2,
...", so no large explicit weights are ever materialized.

Vulnerability vectors are compared from the LAST coordinate down: f beats g
when the highest index where they differ has the smaller f entry.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, combinations_with_replacement
from math import comb
from typing import Iterable, Sequence

from .constructions import Matrix01, UnionMatroid
from .errors import GuardError, InfeasibleError, InputError, InternalError, OverflowGuardError
from .matroids import WEIGHT_GUARD, Matroid, check_weight_guard

# Scans of all multisets of n out of m members (solve_shifted_small and the
# brute-force oracles) are refused above this many multisets.
MULTISET_GUARD = 10**7


class ProfitMatrix:
    """d x n signed integer profit matrix with an exact-arithmetic guard."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise InputError("profit matrix needs at least one row and one column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise InputError("profit rows have unequal lengths")
        check_weight_guard(chain.from_iterable(rows))
        self.rows = rows

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def shifted(self) -> "ProfitMatrix":
        return ProfitMatrix(tuple(sorted(r, reverse=True)) for r in self.rows)

    def row_nonincreasing(self) -> bool:
        return all(all(r[j] >= r[j + 1] for j in range(len(r) - 1)) for r in self.rows)

    def dot(self, x: Matrix01) -> int:
        if x.d != self.d or x.n != self.n:
            raise InputError(f"matrix is {x.d}x{x.n}, profits are {self.d}x{self.n}")
        return sum(c * v for cr, xr in zip(self.rows, x.rows) for c, v in zip(cr, xr))

    def __repr__(self) -> str:
        return f"ProfitMatrix({[list(r) for r in self.rows]})"


class ShiftedSolution:
    """A feasible matrix y, its objective value cbar.ybar, and its vulnerability vector.

    value is None for the lexicographic solver (its profit matrix is implicit)
    and vuln is None when y has entries outside {0, 1} (explicit-list solver
    over general integer vectors).
    """

    __slots__ = ("y", "value", "vuln")

    def __init__(self, y, value: int | None, vuln: tuple[int, ...] | None):
        self.y = y
        self.value = value
        self.vuln = vuln

    def __repr__(self) -> str:
        return f"ShiftedSolution(value={self.value}, vuln={self.vuln})"


def shift(x: Matrix01) -> Matrix01:
    """The unique matrix equivalent to x with every row nonincreasing."""
    return Matrix01(tuple(sorted(r, reverse=True)) for r in x.rows)


def equivalent(x: Matrix01, y: Matrix01) -> bool:
    """Row-permutation equivalence; for 0/1 matrices this is equal row sums."""
    if x.d != y.d or x.n != y.n:
        raise InputError(f"matrices {x.d}x{x.n} and {y.d}x{y.n} differ in shape")
    return x.row_sums() == y.row_sums()


def vulnerability_vector(x: Matrix01) -> tuple[int, ...]:
    """Entry k counts the rows of x with row sum >= k, k = 1..n."""
    sums = sorted(x.row_sums())  # the rows below k come first
    return tuple(len(sums) - bisect_left(sums, k) for k in range(1, x.n + 1))


def validate(y: Matrix01, matroids: Sequence[Matroid], *, rank: int | None = None,
             cbar: ProfitMatrix | None = None, value: int | None = None,
             vuln: Sequence[int] | None = None, x: Matrix01 | None = None) -> None:
    """Raise InternalError unless y is the solution it claims to be.

    Every column must be independent in every matroid, and of size rank when
    rank is given (a basis).  When given, value must equal cbar . shift(y),
    vuln the vulnerability vector of y, and x must be equivalent to y.
    InputError if value is given without cbar.
    """
    if value is not None and cbar is None:
        raise InputError("validate needs cbar to check a value")
    for j, col in enumerate(y.columns(), start=1):
        for m in matroids:
            if not m.is_independent(col):
                raise InternalError(f"column {j} is not independent in the {m.kind} matroid")
        if rank is not None and col.size() != rank:
            raise InternalError(f"column {j} has {col.size()} elements, a basis has {rank}")
    if value is not None and cbar.dot(shift(y)) != value:
        raise InternalError(f"the columns are worth {cbar.dot(shift(y))}, not {value}")
    if vuln is not None and vulnerability_vector(y) != tuple(vuln):
        raise InternalError(f"the vulnerability vector is {list(vulnerability_vector(y))}, "
                            f"not {list(vuln)}")
    if x is not None and not equivalent(x, y):
        raise InternalError("the columns are not equivalent to the selected matrix")


def lex_less(f: Sequence[int], g: Sequence[int]) -> bool:
    """True iff f is strictly better: at the highest differing index, f is smaller.

    The last coordinate is compared first; this is the reverse of naive
    left-to-right lexicographic order.
    """
    if len(f) != len(g):
        raise InputError(f"vulnerability vectors of lengths {len(f)} and {len(g)}")
    for k in range(len(f) - 1, -1, -1):
        if f[k] != g[k]:
            return f[k] < g[k]
    return False


def _flat_weights(cbar: ProfitMatrix) -> list[int]:
    return [c for row in cbar.rows for c in row]


def _profit_order(cbar: ProfitMatrix, bases: bool) -> list[int]:
    # Cells by profit, ties by (column, row); without bases, positive ones only.
    w, n = _flat_weights(cbar), cbar.n
    order = sorted(range(len(w)), key=lambda f: (-w[f], f % n, f // n))
    return [f for f in order if bases or w[f] > 0]


def _columns_from_parts(d: int, parts) -> Matrix01:
    """The d x len(parts) matrix whose column k holds the elements of parts[k]."""
    rows = [[0] * len(parts) for _ in range(d)]
    for k, p in enumerate(parts):
        for i in p:
            rows[i][k] = 1
    return Matrix01(rows)


def _greedy(S: Matroid, n: int, order: Sequence[int]) -> tuple[Matrix01, Matrix01, int]:
    # (x, y, rank of S) of the shuffle greedy in a cell order that takes each
    # row left to right: a refused row never fits again, so x is the row
    # prefix of counts.  The union computes the rank once for its cap.
    union = UnionMatroid(S, n)  # validates n
    n = union.n
    counts, parts = union.grow(f // n for f in order)
    prefixes = [(1,) * c + (0,) * (n - c) for c in range(n + 1)]  # the row of each count
    x = Matrix01([prefixes[c] for c in counts])
    return x, _columns_from_parts(S.d, parts), union.part_rank


def solve_shuffling(S: Matroid, n: int, cbar: ProfitMatrix, bases: bool = False) -> Matrix01:
    """Maximize cbar over the shuffle matroid of S; cbar rows must be nonincreasing.

    With bases=True the selection order is unchanged (adding the constant
    2|c|+1 to every entry preserves the order) but every independence-keeping
    element is taken, which forces a basis of maximum profit among bases.
    """
    _check_dims(S, n, cbar)
    if not cbar.row_nonincreasing():
        raise InputError("profit rows must be nonincreasing; shift the matrix first")
    return _greedy(S, n, _profit_order(cbar, bases))[0]


def solve_fiber(S: Matroid, n: int, x: Matrix01) -> Matrix01:
    """Find y with every column independent in S and y ~ x, or fail.

    Splits the row sums of x into n independent parts, which are the
    columns of y.
    """
    if x.d != S.d or x.n != n:
        raise InputError(f"matrix is {x.d}x{x.n}, expected {S.d}x{n}")
    parts = UnionMatroid(S, n).decompose(x.row_sums())
    if parts is None:
        raise InfeasibleError("matrix is not in the shuffle set")
    y = _columns_from_parts(S.d, parts)
    validate(y, [S], x=x)
    return y


def solve_shifted(S: Matroid, n: int, c: ProfitMatrix, bases: bool = False) -> ShiftedSolution:
    """Shifted optimization over independent-set (or basis) columns of S.

    Shifts c and greedily maximizes over the shuffle matroid; the parts the
    greedy grows are a column-feasible witness.
    """
    _check_dims(S, n, c)
    cbar = c.shifted()
    x, y, rank = _greedy(S, n, _profit_order(cbar, bases))
    value = cbar.dot(x)
    validate(y, [S], rank=rank if bases else None, cbar=cbar, value=value, x=x)
    return ShiftedSolution(y, value, vulnerability_vector(y))


def lexmin_order(d: int, n: int) -> list[int]:
    """Greedy order induced by profits constant per column, decreasing in j."""
    return [i * n + j for j in range(n) for i in range(d)]


def lexmin_shuffle_basis(S: Matroid, n: int) -> Matrix01:
    """The basis of the shuffle matroid picked by the column-order greedy."""
    return _greedy(S, n, lexmin_order(S.d, int(n)))[0]


def solve_lexmin(S: Matroid, n: int) -> ShiftedSolution:
    """n basis columns whose vulnerability vector is lexicographically minimal.

    Vulnerability entry k counts the elements used by at least k of the n
    columns; the last entry is minimized first, then the one before it, and
    so on.  No big-integer profits are built: the reduction's weights only
    matter through the greedy order, which is column-major.
    """
    n = int(n)
    x, y, rank = _greedy(S, n, lexmin_order(S.d, n))
    validate(y, [S], rank=rank, x=x)
    return ShiftedSolution(y, None, vulnerability_vector(y))


def solve_shifted_small(vectors: Sequence[Sequence[int]], n: int, c: ProfitMatrix) -> ShiftedSolution:
    """Shifted optimization over an explicit list of integer vectors.

    The objective value depends only on how many columns equal each listed
    vector, so all C(m+n-1, n) multisets of n of the m vectors are scanned,
    each evaluated directly as cbar . ybar with y built in block order.  The
    answer is the first optimum in ascending order of count tuples
    (n_1, .., n_m), which is the last one in the scan.  More than
    MULTISET_GUARD multisets raise GuardError before the scan.
    """
    members = tuple(tuple(int(v) for v in z) for z in vectors)
    if not members:
        raise InputError("the explicit vector list is empty")
    d = c.d
    if any(len(z) != d for z in members):
        raise InputError("vector length differs from profit row count")
    if int(n) < 1:
        raise InputError(f"copy count must be >= 1, got {n}")
    n = int(n)
    if c.n != n:
        raise InputError(f"profit matrix has {c.n} columns, expected {n}")
    biggest = max((abs(v) for z in members for v in z), default=0)
    total_abs = sum(abs(x) for r in c.rows for x in r)
    if total_abs * max(1, biggest) > WEIGHT_GUARD:
        raise OverflowGuardError("profits times vector magnitudes exceed the exact guard")
    check_multiset_guard(len(members), n)

    cbar = c.shifted()
    best_value = best_picks = None
    for picks in combinations_with_replacement(range(len(members)), n):
        value = 0
        for i in range(d):
            vals = sorted((members[k][i] for k in picks), reverse=True)
            value += sum(cj * vj for cj, vj in zip(cbar.rows[i], vals))
        if best_value is None or value >= best_value:
            best_value, best_picks = value, picks

    y_rows = tuple(tuple(members[k][i] for k in best_picks) for i in range(d))
    if all(v in (0, 1) for r in y_rows for v in r):
        y = Matrix01(y_rows)
        return ShiftedSolution(y, best_value, vulnerability_vector(y))
    return ShiftedSolution(y_rows, best_value, None)


def check_multiset_guard(count: int, n: int) -> None:
    """Raise GuardError if there are more than MULTISET_GUARD multisets of n
    out of count members."""
    if comb(count + n - 1, n) > MULTISET_GUARD:
        raise GuardError(
            f"{comb(count + n - 1, n)} multisets of {n} from {count} members "
            f"exceed the enumeration guard {MULTISET_GUARD}"
        )


def _check_dims(S: Matroid, n: int, c: ProfitMatrix) -> None:
    if int(n) < 1:
        raise InputError(f"copy count must be >= 1, got {n}")
    if c.d != S.d:
        raise InputError(f"profit matrix has {c.d} rows, ground size is {S.d}")
    if c.n != int(n):
        raise InputError(f"profit matrix has {c.n} columns, expected {n}")
