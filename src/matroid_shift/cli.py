"""Command-line surface: parse inputs, run a solver, emit one JSON report.

Subcommands: lexmin-trees, shifted, intersect-value, fiber.  stdout carries
only the JSON report; human-readable messages go to stderr.  Exit codes:

    0  success
    2  graph not connected (lexmin-trees)
    3  parse error or dimension mismatch, rejected command-line arguments included
    4  verification, recheck or self-check mismatch
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
from itertools import chain, compress

from .bruteforce import brute_lexmin, brute_shifted, enumerate_members
from .constructions import Matrix01
from .errors import (
    DisallowedKindError,
    GuardError,
    InfeasibleError,
    InputError,
    InternalError,
    OverflowGuardError,
)
from .intersection import (
    BipartiteGraph,
    IntersectionInstance,
    degree_matroids,
    shifted_value_intersection,
    solve_shifted_bipartite_matching,
)
from .matroids import GraphicMatroid, full_rank, json_int, matroid_from_json, matroid_to_json
from .solver import ProfitMatrix, ShiftedSolution, solve_fiber, solve_lexmin, solve_shifted, validate

EXIT_OK = 0
EXIT_DISCONNECTED = 2
EXIT_PARSE = 3
EXIT_VERIFY = 4
EXIT_OVERFLOW = 5
EXIT_KIND = 6
EXIT_FIBER = 7

# lexmin-trees allocates once per tree before any work, and --n is the one
# copy count that no input file bounds.
MAX_TREES = 4096


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _digest(payload) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _columns_1based(y: Matrix01) -> list[list[int]]:
    return [list(compress(range(1, y.d + 1), col)) for col in zip(*y.rows)]


def _matrix_from_columns(d: int, n: int, columns) -> Matrix01:
    rows = [[0] * n for _ in range(d)]
    for k, col in enumerate(columns):
        for e in col:
            rows[int(e) - 1][k] = 1
    return Matrix01(rows)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_json_file(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or over the digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_table(path: str, what: str, cls):
    """A {d, n, rows} file as a cls (ProfitMatrix or Matrix01) of the declared shape."""
    obj = _load_json_file(path)
    try:
        d, n, rows = obj["d"], obj["n"], [list(r) for r in obj["rows"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad {what} file {path}: {exc}") from exc
    values = (d, n, *chain.from_iterable(rows))
    if not {int}.issuperset(map(type, values)):
        for v in values:  # name the first that is not an int
            json_int(v)
    table = cls(rows)
    if table.d != d or table.n != n:
        raise InputError(f"{what} file {path} declares {d}x{n} but lists {table.d}x{table.n}")
    return table


def _decimal(token: str) -> int | None:
    """The value of a token of ASCII digits only, else None (int() would
    also take signs, underscores and non-ASCII digits)."""
    try:
        return int(token) if token.isascii() and token.isdigit() else None
    except ValueError as exc:  # over Python's limit on digits
        raise InputError(f"a number of {len(token)} digits is too long") from exc


def _count(token: str) -> int:
    """argparse type of --n: ASCII decimal digits only, as in the graph files."""
    try:
        value = _decimal(token)
    except InputError as exc:  # argparse would print "invalid _count value" and the token
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if value is None:
        raise argparse.ArgumentTypeError(f"expected ASCII decimal digits, got {token!r}")
    return value


def parse_graph_file(path: str) -> tuple[int, list[tuple[int, int]]]:
    """DIMACS-adjacent format: 'p V E' then one 'e u v' line per edge.

    One pass over the lines.  An edge line of 'e' and two tokens of ASCII
    digits is read inline; any other line is malformed, unless one of its
    tokens is a number over the digit limit, which _decimal names."""
    vertices, edges = None, []
    for ln in _read_text(path).splitlines():
        ln = ln.strip()
        if not ln or ln[0] == "c":
            continue
        parts = ln.split()
        if vertices is None:
            if parts[0] != "p":
                raise InputError(f"{path}: first line must be 'p <vertices> <edges>'")
            counts = [_decimal(t) for t in parts[1:]]
            if len(parts) != 3 or None in counts:
                raise InputError(f"{path}: malformed problem line {ln!r}")
            vertices, num_edges = counts
            if vertices < 1:
                raise InputError(f"{path}: a graph needs at least one vertex")
            continue
        tag, u, v = parts if len(parts) == 3 else ("", "", "")
        if tag == "e" and u.isascii() and u.isdigit() and v.isascii() and v.isdigit():
            try:
                u, v = int(u), int(v)
            except ValueError:  # over Python's limit on digits: named below
                pass
            else:
                if not (1 <= u <= vertices and 1 <= v <= vertices):
                    raise InputError(f"{path}: edge {ln!r} has an endpoint outside 1..{vertices}")
                edges.append((u, v))
                continue
        for t in parts[1:]:
            _decimal(t)  # raises on a number over the digit limit
        raise InputError(f"{path}: malformed edge line {ln!r}")
    if vertices is None:
        raise InputError(f"{path}: first line must be 'p <vertices> <edges>'")
    if len(edges) != num_edges:
        raise InputError(f"{path}: header promises {num_edges} edges, found {len(edges)}")
    return vertices, edges


def _solution_fields(sol: ShiftedSolution) -> dict:
    fields = {"n": sol.y.n, "value": sol.value, "vulnerability": list(sol.vuln),
              "columns": _columns_1based(sol.y)}
    if sol.value is None:  # lexmin: its profits are implicit
        del fields["value"]
    return fields


def _run(args, command: str, inputs: dict, solve, fields, brute=None,
         matroids=(), bases: bool = False, c: ProfitMatrix | None = None,
         x: Matrix01 | None = None) -> tuple[dict, int]:
    """Time solve(), report fields(solution), then run --verify and --recheck.

    brute() returns the report fields the brute-force optimum must match.
    --recheck re-reads the report's columns from its JSON text and passes
    them to validate: independent in every matroid (bases when bases is
    set), the reported value under c shifted, the reported vulnerability,
    and equivalence to x.
    """
    digest = _digest({"command": command, **inputs})
    t0 = time.perf_counter()
    sol = solve()
    wall = (time.perf_counter() - t0) * 1000.0
    report = {"schema": 1, "command": command, "input_digest": digest, **fields(sol),
              "verification": "skipped"}
    if brute is not None and args.verify:
        try:
            ok = all(report[k] == v for k, v in brute().items())
            report["verification"] = "ok" if ok else "mismatch"
        except GuardError as exc:
            print(f"verification skipped: {exc}", file=sys.stderr)
    report["wall_time_ms"] = round(wall, 3)
    if report["verification"] == "mismatch":
        print("verification mismatch against brute-force oracle", file=sys.stderr)
        return report, EXIT_VERIFY
    if args.recheck and matroids:  # with no matroid there is no column to recheck
        rep = json.loads(json.dumps(report))
        y = _matrix_from_columns(matroids[0].d, rep["n"], rep["columns"])
        validate(y, matroids, rank=full_rank(matroids[0]) if bases else None,
                 cbar=c.shifted() if c else None, value=rep.get("value"),
                 vuln=rep.get("vulnerability"), x=x)
    return report, EXIT_OK


def cmd_lexmin_trees(args) -> tuple[dict, int]:
    if not 1 <= args.n <= MAX_TREES:
        raise InputError(f"--n must be between 1 and {MAX_TREES}, got {args.n}")
    vertices, edges = parse_graph_file(args.graph)
    inputs = {"vertices": vertices, "edges": edges, "n": args.n}
    if vertices == 1 and not edges:
        # One vertex is connected and its spanning trees are empty, but a
        # matroid needs an element: report the n empty trees directly.
        empty = {"n": args.n, "vulnerability": [0] * args.n, "columns": [[] for _ in range(args.n)]}
        return _run(args, "lexmin-trees", inputs, lambda: None, lambda _: empty)
    # Fewer than vertices - 1 edges cannot connect the graph; checking that
    # before building the matroid keeps memory proportional to the edges.
    m = GraphicMatroid(vertices, edges) if len(edges) >= vertices - 1 else None
    if m is None or full_rank(m) != vertices - 1:
        print("graph not connected", file=sys.stderr)
        return {}, EXIT_DISCONNECTED
    return _run(args, "lexmin-trees", inputs,
                lambda: solve_lexmin(m, args.n), _solution_fields,
                brute=lambda: {"vulnerability": list(
                    brute_lexmin(enumerate_members(m, bases_only=True), args.n)[0])},
                matroids=[m], bases=True)


def _profits(args) -> ProfitMatrix:
    c = _load_table(args.profits, "profits", ProfitMatrix)
    if args.n is not None and args.n != c.n:
        raise InputError(f"--n {args.n} conflicts with profits file n={c.n}")
    return c


def cmd_shifted(args) -> tuple[dict, int]:
    m = matroid_from_json(_load_json_file(args.matroid))
    c = _profits(args)
    inputs = {"matroid": matroid_to_json(m), "profits": [list(r) for r in c.rows], "n": c.n,
              "bases": bool(args.bases)}
    return _run(args, "shifted", inputs,
                lambda: solve_shifted(m, c.n, c, bases=args.bases), _solution_fields,
                brute=lambda: {"value": brute_shifted(
                    enumerate_members(m, bases_only=args.bases), c.n, c)[0]},
                matroids=[m], bases=args.bases, c=c)


def cmd_intersect_value(args) -> tuple[dict, int]:
    c = _profits(args)
    inputs = {"profits": [list(r) for r in c.rows], "n": c.n}
    if args.bipartite:
        if args.matroids:
            raise InputError("--bipartite replaces the two matroid files")
        g = BipartiteGraph.from_json(_load_json_file(args.bipartite))
        inputs["bipartite"] = {"left": g.left, "right": g.right,
                               "edges": [list(e) for e in g.edges]}
        return _run(args, "intersect-value", inputs,
                    lambda: solve_shifted_bipartite_matching(g, c.n, c), _solution_fields,
                    matroids=degree_matroids(g), c=c)

    if len(args.matroids) != 2:
        raise InputError("intersect-value needs two matroid files (or --bipartite)")
    if args.recheck:
        raise InputError("--recheck needs --bipartite: only it reports columns to recheck")
    m1, m2 = (matroid_from_json(_load_json_file(f)) for f in args.matroids)
    inputs.update(m1=matroid_to_json(m1), m2=matroid_to_json(m2))
    return _run(args, "intersect-value", inputs,
                lambda: shifted_value_intersection(IntersectionInstance(m1, m2, c.n, c)),
                lambda value: {"n": c.n, "value": value})


def cmd_fiber(args) -> tuple[dict, int]:
    m = matroid_from_json(_load_json_file(args.matroid))
    x = _load_table(args.matrix, "matrix", Matrix01)
    if args.n is not None and args.n != x.n:
        raise InputError(f"--n {args.n} conflicts with matrix file n={x.n}")
    inputs = {"matroid": matroid_to_json(m), "matrix": [list(r) for r in x.rows], "n": x.n}
    report, code = _run(args, "fiber", inputs, lambda: solve_fiber(m, x.n, x),
                        lambda y: {"n": x.n, "columns": _columns_1based(y),
                                   "row_sums_input": list(x.row_sums()),
                                   "row_sums_output": list(y.row_sums())},
                        matroids=[m], x=x)
    print(f"row sums: input {report['row_sums_input']} | output {report['row_sums_output']}",
          file=sys.stderr)
    return report, code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a rejected argument, which here means a
    # disconnected graph; rejected arguments are parse errors.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("lexmin-trees", help="n lexicographically minimal spanning trees")
    p.add_argument("graph", help="graph file: 'p V E' header then 'e u v' lines")
    p.add_argument("--n", type=_count, required=True, help="number of trees")
    common(p, with_verify=True)
    p.set_defaults(func=cmd_lexmin_trees)

    p = sub.add_parser("shifted", help="shifted optimization over one matroid")
    p.add_argument("matroid", help="matroid JSON file")
    p.add_argument("profits", help="profits JSON file {d, n, rows}")
    p.add_argument("--n", type=_count, default=None, help="cross-check against the profits file")
    p.add_argument("--bases", action="store_true", help="restrict columns to bases")
    common(p, with_verify=True)
    p.set_defaults(func=cmd_shifted)

    p = sub.add_parser("intersect-value",
                       help="shifted optimal value over a matroid intersection")
    p.add_argument("matroids", nargs="*",
                   help="two matroid JSON files (omit with --bipartite)")
    p.add_argument("profits", help="profits JSON file {d, n, rows}")
    p.add_argument("--n", type=_count, default=None, help="cross-check against the profits file")
    p.add_argument("--bipartite", metavar="GRAPH",
                   help="bipartite graph JSON; also recovers the matching columns")
    common(p, with_verify=False)
    p.set_defaults(func=cmd_intersect_value)

    p = sub.add_parser("fiber", help="recover column-feasible y equivalent to x")
    p.add_argument("matroid", help="matroid JSON file")
    p.add_argument("matrix", help="matrix JSON file {d, n, rows}")
    p.add_argument("--n", type=_count, default=None, help="cross-check against the matrix file")
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
    except InternalError as exc:
        return _fail(EXIT_VERIFY, f"self-check failed: {exc}")
    except InputError as exc:
        return _fail(EXIT_PARSE, f"input error: {exc}")
    except GuardError as exc:
        return _fail(EXIT_PARSE, f"enumeration guard: {exc}")
    if report:
        print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
