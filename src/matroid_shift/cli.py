"""Command-line surface: parse inputs, run a solver, emit one JSON report.

Subcommands: lexmin-trees, shifted, intersect-value, fiber.  stdout carries
only the JSON report; human-readable messages go to stderr.  Exit codes:

    0  success
    2  graph not connected (lexmin-trees)
    3  parse error or dimension mismatch
    4  verification or recheck mismatch
    5  overflow guard violation
    6  matroid kind outside the strongly-base-orderable families
    7  fiber input not in the shuffle set
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .bruteforce import brute_lexmin, brute_shifted, enumerate_members
from .constructions import Matrix01
from .errors import (
    DisallowedKindError,
    GuardError,
    InfeasibleError,
    InputError,
    OverflowGuardError,
)
from .intersection import (
    BipartiteGraph,
    IntersectionInstance,
    _shifted_intersection_witness,
    degree_matroids,
    fiber_bipartite_matching,
)
from .matroids import GraphicMatroid, Matroid, full_rank, matroid_from_json, matroid_to_json
from .solver import (
    ProfitMatrix,
    equivalent,
    shift,
    solve_fiber,
    solve_lexmin,
    solve_shifted,
    vulnerability_vector,
)

EXIT_OK = 0
EXIT_DISCONNECTED = 2
EXIT_PARSE = 3
EXIT_VERIFY = 4
EXIT_OVERFLOW = 5
EXIT_KIND = 6
EXIT_FIBER = 7


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _digest(payload) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _columns_1based(y: Matrix01) -> list[list[int]]:
    return [[i + 1 for i in y.column(k).indices()] for k in range(y.n)]


def _matrix_from_columns(d: int, n: int, columns) -> Matrix01:
    rows = [[0] * n for _ in range(d)]
    for k, col in enumerate(columns):
        for e in col:
            rows[int(e) - 1][k] = 1
    return Matrix01(rows)


def _load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_table(path: str, what: str, cls):
    """A {d, n, rows} file as a cls (ProfitMatrix or Matrix01) of the declared shape."""
    obj = _load_json_file(path)
    try:
        d, n, rows = int(obj["d"]), int(obj["n"]), [[int(x) for x in r] for r in obj["rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} file {path}: {exc}") from exc
    table = cls(rows)
    if table.d != d or table.n != n:
        raise InputError(f"{what} file {path} declares {d}x{n} but lists {table.d}x{table.n}")
    return table


def parse_graph_file(path: str) -> tuple[int, list[tuple[int, int]]]:
    """DIMACS-adjacent format: 'p V E' then one 'e u v' line per edge."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    lines = [ln.strip() for ln in raw.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("c")]
    if not lines or not lines[0].startswith("p"):
        raise InputError(f"{path}: first line must be 'p <vertices> <edges>'")
    head = lines[0].split()
    if len(head) != 3:
        raise InputError(f"{path}: malformed problem line {lines[0]!r}")
    try:
        vertices, num_edges = int(head[1]), int(head[2])
    except ValueError as exc:
        raise InputError(f"{path}: malformed problem line {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "e":
            raise InputError(f"{path}: malformed edge line {ln!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InputError(f"{path}: malformed edge line {ln!r}") from exc
        if not (1 <= u <= vertices and 1 <= v <= vertices):
            raise InputError(f"{path}: edge {ln!r} has an endpoint outside 1..{vertices}")
        edges.append((u, v))
    if len(edges) != num_edges:
        raise InputError(f"{path}: header promises {num_edges} edges, found {len(edges)}")
    return vertices, edges


def graph_is_connected(vertices: int, edges) -> bool:
    if vertices < 1:
        return False
    parent = list(range(vertices + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(1, vertices + 1)}) == 1


def _report(command: str, digest: str, wall_ms: float, verification: str, **fields) -> dict:
    rep = {"schema": 1, "command": command, "input_digest": digest}
    rep.update(fields)
    rep["verification"] = verification
    rep["wall_time_ms"] = round(wall_ms, 3)
    return rep


def _recheck_lexmin(report: dict, m: Matroid, n: int) -> bool:
    rep = json.loads(json.dumps(report))
    y = _matrix_from_columns(m.d, n, rep["columns"])
    r = full_rank(m)
    cols_ok = all(
        m.is_independent(y.column(k)) and y.column(k).size() == r for k in range(n)
    )
    return cols_ok and list(vulnerability_vector(y)) == rep["vulnerability"]


def _recheck_shifted(report: dict, m: Matroid, c: ProfitMatrix, bases: bool) -> bool:
    rep = json.loads(json.dumps(report))
    y = _matrix_from_columns(m.d, c.n, rep["columns"])
    cols_ok = all(m.is_independent(col) for col in y.columns())
    if bases:
        r = full_rank(m)
        cols_ok = cols_ok and all(col.size() == r for col in y.columns())
    return (cols_ok and c.shifted().dot(shift(y)) == rep["value"]
            and list(vulnerability_vector(y)) == rep["vulnerability"])


def _recheck_matching(report: dict, g: BipartiteGraph, c: ProfitMatrix) -> bool:
    rep = json.loads(json.dumps(report))
    m1, m2 = degree_matroids(g)
    y = _matrix_from_columns(g.d, c.n, rep["columns"])
    cols_ok = all(m1.is_independent(col) and m2.is_independent(col) for col in y.columns())
    return cols_ok and c.shifted().dot(shift(y)) == rep["value"]


def _recheck_fiber(report: dict, m: Matroid, x: Matrix01) -> bool:
    rep = json.loads(json.dumps(report))
    y = _matrix_from_columns(m.d, x.n, rep["columns"])
    cols_ok = all(m.is_independent(col) for col in y.columns())
    return cols_ok and equivalent(x, y)


def cmd_lexmin_trees(args) -> tuple[dict, int]:
    vertices, edges = parse_graph_file(args.graph)
    if not graph_is_connected(vertices, edges):
        print("graph not connected", file=sys.stderr)
        return {}, EXIT_DISCONNECTED
    if args.n < 1:
        raise InputError(f"--n must be >= 1, got {args.n}")
    m = GraphicMatroid(vertices, edges)
    digest = _digest({"command": "lexmin-trees", "vertices": vertices,
                      "edges": edges, "n": args.n})

    t0 = time.perf_counter()
    sol = solve_lexmin(m, args.n)
    wall = (time.perf_counter() - t0) * 1000.0
    verification = "skipped"
    if args.verify:
        try:
            expect, _ = brute_lexmin(enumerate_members(m, bases_only=True), args.n)
            verification = "ok" if expect == sol.vuln else "mismatch"
        except GuardError as exc:
            print(f"verification skipped: {exc}", file=sys.stderr)

    report = _report("lexmin-trees", digest, wall, verification,
                     n=args.n,
                     vulnerability=list(sol.vuln),
                     columns=_columns_1based(sol.y))
    code = EXIT_OK
    if verification == "mismatch":
        print("verification mismatch against brute-force oracle", file=sys.stderr)
        code = EXIT_VERIFY
    if code == EXIT_OK and args.recheck and not _recheck_lexmin(report, m, args.n):
        print("recheck failed: emitted solution does not re-validate", file=sys.stderr)
        code = EXIT_VERIFY
    return report, code


def cmd_shifted(args) -> tuple[dict, int]:
    m = matroid_from_json(_load_json_file(args.matroid))
    c = _load_table(args.profits, "profits", ProfitMatrix)
    if args.n is not None and args.n != c.n:
        raise InputError(f"--n {args.n} conflicts with profits file n={c.n}")
    n = c.n
    digest = _digest({"command": "shifted", "matroid": matroid_to_json(m),
                      "profits": [list(r) for r in c.rows], "n": n,
                      "bases": bool(args.bases)})

    t0 = time.perf_counter()
    sol = solve_shifted(m, n, c, bases=args.bases)
    wall = (time.perf_counter() - t0) * 1000.0
    verification = "skipped"
    if args.verify:
        try:
            expect, _ = brute_shifted(enumerate_members(m, bases_only=args.bases), n, c)
            verification = "ok" if expect == sol.value else "mismatch"
        except GuardError as exc:
            print(f"verification skipped: {exc}", file=sys.stderr)

    report = _report("shifted", digest, wall, verification,
                     n=n,
                     value=sol.value,
                     vulnerability=list(sol.vuln),
                     columns=_columns_1based(sol.y))
    code = EXIT_OK
    if verification == "mismatch":
        print("verification mismatch against brute-force oracle", file=sys.stderr)
        code = EXIT_VERIFY
    if code == EXIT_OK and args.recheck and not _recheck_shifted(report, m, c, args.bases):
        print("recheck failed: emitted solution does not re-validate", file=sys.stderr)
        code = EXIT_VERIFY
    return report, code


def cmd_intersect_value(args) -> tuple[dict, int]:
    c = _load_table(args.profits, "profits", ProfitMatrix)
    if args.n is not None and args.n != c.n:
        raise InputError(f"--n {args.n} conflicts with profits file n={c.n}")
    n = c.n

    if args.bipartite:
        if args.matroids:
            raise InputError("--bipartite replaces the two matroid files")
        g = BipartiteGraph.from_json(_load_json_file(args.bipartite))
        m1, m2 = degree_matroids(g)
        digest = _digest({"command": "intersect-value",
                          "bipartite": {"left": g.left, "right": g.right,
                                        "edges": [list(e) for e in g.edges]},
                          "profits": [list(r) for r in c.rows], "n": n})
        t0 = time.perf_counter()
        inst = IntersectionInstance(m1, m2, n, c)
        value, x = _shifted_intersection_witness(inst)
        y = fiber_bipartite_matching(g, n, x)
        wall = (time.perf_counter() - t0) * 1000.0
        report = _report("intersect-value", digest, wall, "skipped",
                         n=n,
                         value=value,
                         vulnerability=list(vulnerability_vector(y)),
                         columns=_columns_1based(y))
        code = EXIT_OK
        if args.recheck and not _recheck_matching(report, g, c):
            print("recheck failed: emitted solution does not re-validate", file=sys.stderr)
            code = EXIT_VERIFY
        return report, code

    if len(args.matroids) != 2:
        raise InputError("intersect-value needs two matroid files (or --bipartite)")
    m1 = matroid_from_json(_load_json_file(args.matroids[0]))
    m2 = matroid_from_json(_load_json_file(args.matroids[1]))
    digest = _digest({"command": "intersect-value",
                      "m1": matroid_to_json(m1), "m2": matroid_to_json(m2),
                      "profits": [list(r) for r in c.rows], "n": n})
    t0 = time.perf_counter()
    inst = IntersectionInstance(m1, m2, n, c)
    value, _ = _shifted_intersection_witness(inst)
    wall = (time.perf_counter() - t0) * 1000.0
    report = _report("intersect-value", digest, wall, "skipped",
                     n=n, value=value)
    return report, EXIT_OK


def cmd_fiber(args) -> tuple[dict, int]:
    m = matroid_from_json(_load_json_file(args.matroid))
    x = _load_table(args.matrix, "matrix", Matrix01)
    if args.n is not None and args.n != x.n:
        raise InputError(f"--n {args.n} conflicts with matrix file n={x.n}")
    n = x.n
    digest = _digest({"command": "fiber", "matroid": matroid_to_json(m),
                      "matrix": [list(r) for r in x.rows], "n": n})

    t0 = time.perf_counter()
    y = solve_fiber(m, n, x)
    wall = (time.perf_counter() - t0) * 1000.0
    print(f"row sums: input {list(x.row_sums())} | output {list(y.row_sums())}",
          file=sys.stderr)
    report = _report("fiber", digest, wall, "skipped",
                     n=n,
                     columns=_columns_1based(y),
                     row_sums_input=list(x.row_sums()),
                     row_sums_output=list(y.row_sums()))
    code = EXIT_OK
    if args.recheck and not _recheck_fiber(report, m, x):
        print("recheck failed: emitted solution does not re-validate", file=sys.stderr)
        code = EXIT_VERIFY
    return report, code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroid-shift",
        description="Shifted and lexicographic optimization over matroids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_verify: bool) -> None:
        if with_verify:
            p.add_argument("--verify", action="store_true",
                           help="cross-check against the brute-force oracle")
        p.add_argument("--recheck", action="store_true",
                       help="re-parse the emitted report and re-validate it")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized corpora (reserved; solvers are deterministic)")

    p = sub.add_parser("lexmin-trees", help="n lexicographically minimal spanning trees")
    p.add_argument("graph", help="graph file: 'p V E' header then 'e u v' lines")
    p.add_argument("--n", type=int, required=True, help="number of trees")
    common(p, with_verify=True)
    p.set_defaults(func=cmd_lexmin_trees)

    p = sub.add_parser("shifted", help="shifted optimization over one matroid")
    p.add_argument("matroid", help="matroid JSON file")
    p.add_argument("profits", help="profits JSON file {d, n, rows}")
    p.add_argument("--n", type=int, default=None, help="cross-check against the profits file")
    p.add_argument("--bases", action="store_true", help="restrict columns to bases")
    common(p, with_verify=True)
    p.set_defaults(func=cmd_shifted)

    p = sub.add_parser("intersect-value",
                       help="shifted optimal value over a matroid intersection")
    p.add_argument("matroids", nargs="*",
                   help="two matroid JSON files (omit with --bipartite)")
    p.add_argument("profits", help="profits JSON file {d, n, rows}")
    p.add_argument("--n", type=int, default=None, help="cross-check against the profits file")
    p.add_argument("--bipartite", metavar="GRAPH",
                   help="bipartite graph JSON; also recovers the matching columns")
    common(p, with_verify=False)
    p.set_defaults(func=cmd_intersect_value)

    p = sub.add_parser("fiber", help="recover column-feasible y equivalent to x")
    p.add_argument("matroid", help="matroid JSON file")
    p.add_argument("matrix", help="matrix JSON file {d, n, rows}")
    p.add_argument("--n", type=int, default=None, help="cross-check against the matrix file")
    common(p, with_verify=False)
    p.set_defaults(func=cmd_fiber)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
    except OverflowGuardError as exc:
        return _fail(EXIT_OVERFLOW, f"overflow guard: {exc}")
    except DisallowedKindError as exc:
        return _fail(EXIT_KIND, str(exc))
    except InfeasibleError as exc:
        return _fail(EXIT_FIBER, f"not in shuffle set: {exc}")
    except InputError as exc:
        return _fail(EXIT_PARSE, f"input error: {exc}")
    except GuardError as exc:
        return _fail(EXIT_PARSE, f"enumeration guard: {exc}")
    if report:
        print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
