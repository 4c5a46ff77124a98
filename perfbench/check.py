"""Correctness checks for benchmark reports, run outside the timed loop.

Each report that carries columns is re-validated from them with small
oracles written here, independent of the package: column independence,
basis size, and the value and vulnerability recomputed from scratch.  The
bipartite-matching reports carry only a value.  Optima are compared
against, where available,

* reference values stored with the benchmark (``references.json``, keyed by
  instance digest, for seeds 0-10 (``make_references.SEEDS``)),
* the package's brute-force oracles, for instances within ``BRUTE_*`` below,
* a ``networkx`` min-cost flow, for bipartite matchings.

``check_call`` returns None for a correct call and a one-line reason for a
failed one.
"""

from __future__ import annotations

import json
import os
from math import comb

BRUTE_MAX_D = 14          # power-set enumeration: 2^14 oracle calls
BRUTE_MAX_MULTISETS = 20000

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)["optima"]


# --- independent oracles over matroid JSON descriptions (0-based elements) ---

def _find(parent: dict, x):
    while parent.setdefault(x, x) != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _forest(edges, elems) -> bool:
    parent: dict = {}
    for e in elems:
        ru, rv = _find(parent, edges[e][0]), _find(parent, edges[e][1])
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _matched(adjacency, elems) -> bool:
    """True iff the elements have distinct representatives (Kuhn's algorithm)."""
    owner: dict = {}

    def augment(e, seen) -> bool:
        for a in adjacency[e]:
            if a not in seen:
                seen.add(a)
                if a not in owner or augment(owner[a], seen):
                    owner[a] = e
                    return True
        return False

    return all(augment(e, set()) for e in elems)


def independent(mat: dict, elems) -> bool:
    kind, p = mat["kind"], mat["params"]
    elems = list(elems)
    if kind == "graphic":
        return _forest(p["edges"], elems)
    if kind == "uniform":
        return len(elems) <= p["r"]
    if kind == "partition":
        used: dict = {}
        for e in elems:
            b = p["blocks"][e]
            used[b] = used.get(b, 0) + 1
        return all(used[b] <= p["capacities"][b - 1] for b in used)
    if kind == "linear_gf2":
        basis: dict = {}
        for e in elems:
            v = sum(bit << k for k, bit in enumerate(p["columns"][e]))
            while v and (v.bit_length() - 1) in basis:
                v ^= basis[v.bit_length() - 1]
            if not v:
                return False
            basis[v.bit_length() - 1] = v
        return True
    if kind == "transversal":
        return _matched(p["adjacency"], elems)
    raise ValueError(f"unknown matroid kind {kind!r}")


def full_rank(mat: dict) -> int:
    chosen: list = []
    for e in range(mat["d"]):
        if independent(mat, chosen + [e]):
            chosen.append(e)
    return len(chosen)


def graphic_json(vertices: int, edges) -> dict:
    return {"kind": "graphic", "d": len(edges),
            "params": {"vertices": vertices, "edges": [list(e) for e in edges]}}


# --- recomputation from columns ---

def _counts(d: int, columns) -> list:
    counts = [0] * d
    for col in columns:
        for e in col:
            counts[e - 1] += 1
    return counts


def vulnerability(counts, n: int) -> list:
    return [sum(1 for c in counts if c >= k) for k in range(1, n + 1)]


def shifted_value(rows, counts) -> int:
    """cbar . shift(y): row i earns the top counts[i] entries of its profits."""
    return sum(sum(sorted(r, reverse=True)[:c]) for r, c in zip(rows, counts))


def _columns_shape(columns, d: int, n: int) -> str | None:
    if not isinstance(columns, list) or len(columns) != n:
        return f"expected {n} columns"
    for col in columns:
        if not isinstance(col, list) or not all(isinstance(e, int) for e in col):
            return "a column is not a list of element indices"
        if len(set(col)) != len(col) or any(not 1 <= e <= d for e in col):
            return "column lists an element twice or out of range"
    return None


def _columns_in(mat: dict, columns, bases: bool) -> str | None:
    for k, col in enumerate(columns):
        if not independent(mat, [e - 1 for e in col]):
            return f"column {k + 1} is not independent"
    if bases:
        r = full_rank(mat)
        if any(len(col) != r for col in columns):
            return f"a column is not a basis (rank {r})"
    return None


# --- reference optima ---

def _brute_members(mat: dict, bases: bool):
    """The package's brute-force member listing, or None beyond the guards."""
    if mat["d"] > BRUTE_MAX_D:
        return None
    from matroid_shift.bruteforce import enumerate_members
    from matroid_shift.matroids import matroid_from_json
    return enumerate_members(matroid_from_json(mat), bases_only=bases)


def _within_multiset_guard(members, n: int) -> bool:
    return members is not None and comb(len(members) + n - 1, n) <= BRUTE_MAX_MULTISETS


def brute_lexmin(mat: dict, n: int):
    members = _brute_members(mat, True)
    if not _within_multiset_guard(members, n):
        return None
    from matroid_shift.bruteforce import brute_lexmin as brute
    return list(brute(members, n)[0])


def brute_shifted(mat: dict, rows, n: int, bases: bool):
    members = _brute_members(mat, bases)
    if not _within_multiset_guard(members, n):
        return None
    from matroid_shift.bruteforce import brute_shifted as brute
    from matroid_shift.solver import ProfitMatrix
    return brute(members, n, ProfitMatrix(rows))[0]


def flow_matching_value(left: int, right: int, edges, rows, n: int) -> int:
    """Shifted optimum over n matchings, as a min-cost flow (networkx).

    By Koenig's theorem the candidates are multigraphs of maximum degree
    <= n; edge e used m times earns the top m entries of its profit row, so
    each edge becomes n unit arcs priced by its sorted profits.
    """
    import networkx as nx

    g = nx.DiGraph()
    supply = n * left
    g.add_node("s", demand=-supply)
    g.add_node("t", demand=supply)
    g.add_edge("s", "t", capacity=supply, weight=0)
    for v in range(1, left + 1):
        g.add_edge("s", ("L", v), capacity=n, weight=0)
    for v in range(1, right + 1):
        g.add_edge(("R", v), "t", capacity=n, weight=0)
    for e, ((l, r), row) in enumerate(zip(edges, rows)):
        for j, c in enumerate(sorted(row, reverse=True)):
            g.add_edge(("L", l), ("e", e, j), capacity=1, weight=-c)
            g.add_edge(("e", e, j), ("R", r), capacity=1, weight=0)
    return -nx.min_cost_flow_cost(g)


# --- per-call verdicts ---

def _report(stdout: str):
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError:
        rep = None
    return (rep, None) if isinstance(rep, dict) else (None, "stdout is not one JSON report")


def check_call(inst, call: dict, refs: dict) -> str | None:
    """Verdict for one CLI call: None if correct, else the reason."""
    if call["error"] is not None:
        return f"raised {call['error']}"
    expect = 7 if call["kind"] == "fiber" and inst.fiber_extra_one else 0
    if call["code"] != expect:
        return f"exit {call['code']}, expected {expect}"
    if expect != 0:
        return None if not call["stdout"].strip() else "a rejected fiber printed a report"
    rep, why = _report(call["stdout"])
    if rep is None:
        return why
    if call["kind"] == "fiber":
        return _check_fiber(inst, rep, call["fiber_rows"])
    if rep.get("n") != inst.n:
        return f"report n={rep.get('n')}, expected {inst.n}"
    return {"lexmin-trees": _check_lexmin,
            "shifted": _check_shifted,
            "intersect-value": _check_bipartite}[inst.command](inst, rep, refs)


def _check_lexmin(inst, rep: dict, refs: dict) -> str | None:
    mat = graphic_json(inst.data["vertices"], inst.data["edges"])
    cols, n = rep.get("columns"), inst.n
    why = _columns_shape(cols, mat["d"], n) or _columns_in(mat, cols, bases=True)
    if why:
        return why
    vuln = vulnerability(_counts(mat["d"], cols), n)
    if rep.get("vulnerability") != vuln:
        return f"reported vulnerability {rep.get('vulnerability')} != recomputed {vuln}"
    return _compare_optimum(inst, vuln, refs, lambda: brute_lexmin(mat, n))


def _check_shifted(inst, rep: dict, refs: dict) -> str | None:
    mat, rows, bases = inst.data["matroid"], inst.data["rows"], inst.data["bases"]
    cols, n = rep.get("columns"), inst.n
    why = _columns_shape(cols, mat["d"], n) or _columns_in(mat, cols, bases)
    if why:
        return why
    counts = _counts(mat["d"], cols)
    value = shifted_value(rows, counts)
    if rep.get("value") != value:
        return f"reported value {rep.get('value')} != recomputed {value}"
    if rep.get("vulnerability") != vulnerability(counts, n):
        return "reported vulnerability does not match the columns"
    return _compare_optimum(inst, value, refs, lambda: brute_shifted(mat, rows, n, bases))


def _check_bipartite(inst, rep: dict, refs: dict) -> str | None:
    # The two-matroid form of intersect-value reports the value only.
    edges, rows, n = inst.data["edges"], inst.data["rows"], inst.n
    value = rep.get("value")
    if not isinstance(value, int):
        return "report has no integer value"
    flow = flow_matching_value(inst.data["left"], inst.data["right"], edges, rows, n)
    if value != flow:
        return f"value {value} != min-cost-flow optimum {flow}"
    return _compare_optimum(inst, value, refs, lambda: None)


def _check_fiber(inst, rep: dict, x_rows) -> str | None:
    mat, n = inst.data["matroid"], inst.n
    cols = rep.get("columns")
    why = _columns_shape(cols, mat["d"], n) or _columns_in(mat, cols, bases=False)
    if why:
        return why
    want = [sum(r) for r in x_rows]
    if _counts(mat["d"], cols) != want:
        return "fiber columns are not equivalent to the input matrix"
    if rep.get("row_sums_input") != want or rep.get("row_sums_output") != want:
        return "reported row sums do not match"
    return None


def _compare_optimum(inst, got, refs: dict, brute) -> str | None:
    ref = refs.get(inst.digest())
    if ref is not None and ref != got:
        return f"optimum {got} != stored reference {ref}"
    expect = brute()
    if expect is not None and expect != got:
        return f"optimum {got} != brute-force optimum {expect}"
    return None


def optimum_of(inst, stdout: str):
    """The optimum a correct report states: vulnerability for lexmin, else value."""
    rep = json.loads(stdout)
    return rep["vulnerability"] if inst.command == "lexmin-trees" else rep["value"]
