"""CLI surface: subcommands, JSON reports, exit codes, verify and recheck."""

import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from matroid_shift import Matrix01, cli, solver
from matroid_shift.cli import main

TRIANGLE_GRAPH = "p 3 3\ne 1 2\ne 2 3\ne 1 3\n"
K4_GRAPH = "p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
DISCONNECTED = "p 4 2\ne 1 2\ne 3 4\n"

TRIANGLE_MATROID = {"kind": "graphic", "d": 3,
                    "params": {"vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}}
U21 = {"kind": "uniform", "d": 2, "params": {"r": 1}}
U32 = {"kind": "uniform", "d": 3, "params": {"r": 2}}
K22_GRAPH = {"left": 2, "right": 2, "edges": [[1, 1], [1, 2], [2, 1], [2, 2]]}


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        p = tmp_path / name
        if isinstance(content, bytes):
            p.write_bytes(content)
        elif isinstance(content, str):
            p.write_text(content)
        else:
            p.write_text(json.dumps(content))
        return str(p)
    return write


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def test_lexmin_trees_verify(files, capsys):
    graph = files("tri.graph", TRIANGLE_GRAPH)
    code, report, _ = run_main(capsys, ["lexmin-trees", graph, "--n", "2",
                                        "--verify", "--recheck"])
    assert code == 0
    assert report["schema"] == 1
    assert report["command"] == "lexmin-trees"
    assert report["vulnerability"] == [3, 1]
    assert report["verification"] == "ok"
    assert len(report["columns"]) == 2
    assert all(len(col) == 2 for col in report["columns"])
    assert report["wall_time_ms"] >= 0


def test_lexmin_trees_k4(files, capsys):
    graph = files("k4.graph", K4_GRAPH)
    code, report, _ = run_main(capsys, ["lexmin-trees", graph, "--n", "2", "--verify"])
    assert code == 0
    assert report["vulnerability"] == [6, 0]
    assert report["verification"] == "ok"


def test_lexmin_trees_single_edge_many_copies(files, capsys):
    graph = files("edge.graph", "p 2 1\ne 1 2\n")
    code, report, _ = run_main(capsys, ["lexmin-trees", graph, "--n", "5"])
    assert code == 0
    assert report["vulnerability"] == [1, 1, 1, 1, 1]
    assert report["verification"] == "skipped"


def test_lexmin_trees_one_vertex_has_empty_trees(files, capsys):
    # One vertex is connected, with or without a self-loop, and its
    # spanning trees are empty; without an edge there is no matroid.
    for name, text in (("point.graph", "p 1 0\n"), ("loop.graph", "p 1 1\ne 1 1\n")):
        code, report, _ = run_main(capsys, ["lexmin-trees", files(name, text), "--n", "3",
                                            "--verify", "--recheck"])
        assert code == 0
        assert report["vulnerability"] == [0, 0, 0]
        assert report["columns"] == [[], [], []]


def test_lexmin_trees_disconnected(files, capsys):
    graph = files("disc.graph", DISCONNECTED)
    code, report, err = run_main(capsys, ["lexmin-trees", graph, "--n", "2"])
    assert code == 2
    assert report is None
    assert "not connected" in err


def test_lexmin_trees_rejects_n_before_reading_the_graph(files, capsys):
    graph = files("disc.graph", DISCONNECTED)
    code, report, err = run_main(capsys, ["lexmin-trees", graph, "--n", "0"])
    assert code == 3
    assert report is None
    assert "--n" in err


@pytest.mark.parametrize("text", [
    "p -2 0\n",
    "p 0 0\n",
    "p +3 3\ne 1 2\ne 2 3\ne 1 3\n",
    "p 3 +3\ne 1 2\ne 2 3\ne 1 3\n",
    "p 3 3\ne 1 2\ne 2 3\ne 0_1 3\n",
    "p \uff13 3\ne 1 2\ne 2 3\ne 1 3\n",  # full-width digit three
    "p 3 3\ne 1 2\ne 2 3\ne 1 \u0663\n",  # Arabic-Indic digit three
], ids=["negative-vertices", "no-vertices", "plus-vertices", "plus-edges", "underscore",
        "full-width", "arabic-indic"])
def test_graph_tokens_must_be_ascii_decimals(files, capsys, text):
    graph = files("bad.graph", text)
    code, report, err = run_main(capsys, ["lexmin-trees", graph, "--n", "2"])
    assert code == 3
    assert report is None
    assert "input error" in err


def peak_alloc_mb(fn):
    """(fn(), the most memory in MB that Python held at once while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_lexmin_trees_memory_follows_edges(files, capsys):
    # Too few edges to connect three million declared vertices: exit 2
    # without a union-find over all of them (about 100 MB).
    graph = files("sparse.graph", "p 3000000 0\n")
    code, peak = peak_alloc_mb(lambda: main(["lexmin-trees", graph, "--n", "1"]))
    assert code == 2 and "not connected" in capsys.readouterr().err
    assert peak < 5


def test_shifted_graphic_memory_follows_edges(files, capsys):
    # A triangle declared with two million vertices: the oracle's union-find
    # covers the three it touches, and the answer is the triangle's.
    big = {**TRIANGLE_MATROID, "params": {**TRIANGLE_MATROID["params"], "vertices": 2_000_000}}
    profits = files("c.json", {"d": 3, "n": 2, "rows": [[3, 0], [3, 0], [0, 0]]})
    argv = ["shifted", files("big.json", big), profits, "--bases", "--verify", "--recheck"]
    code, peak = peak_alloc_mb(lambda: main(argv))
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["value"] == 6 and report["verification"] == "ok"
    assert peak < 5


def test_lexmin_trees_parse_error(files, capsys):
    graph = files("bad.graph", "p 3\ne 1 2\n")
    code, report, _ = run_main(capsys, ["lexmin-trees", graph, "--n", "2"])
    assert code == 3
    assert report is None


@pytest.mark.parametrize("text", ["p 2 1\ne 1 5\n", "p 2 1\ne 0 1\n"])
def test_lexmin_trees_endpoint_out_of_range(files, capsys, text):
    graph = files("bad.graph", text)
    code, report, err = run_main(capsys, ["lexmin-trees", graph, "--n", "2"])
    assert code == 3
    assert report is None
    assert "outside" in err


def test_shifted_triangle(files, capsys):
    matroid = files("tri.json", TRIANGLE_MATROID)
    profits = files("c.json", {"d": 3, "n": 2, "rows": [[3, 0], [3, 0], [0, 0]]})
    code, report, _ = run_main(capsys, ["shifted", matroid, profits,
                                        "--bases", "--verify", "--recheck"])
    assert code == 0
    assert report["value"] == 6
    assert report["verification"] == "ok"


def test_shifted_zero_profits(files, capsys):
    matroid = files("u32.json", U32)
    profits = files("c.json", {"d": 3, "n": 2, "rows": [[0, 0]] * 3})
    code, report, _ = run_main(capsys, ["shifted", matroid, profits, "--verify"])
    assert code == 0
    assert report["value"] == 0


def test_shifted_dim_mismatch(files, capsys):
    matroid = files("u21.json", U21)
    profits = files("c.json", {"d": 3, "n": 2, "rows": [[1, 1]] * 3})
    code, report, _ = run_main(capsys, ["shifted", matroid, profits])
    assert code == 3


def test_shifted_n_conflict(files, capsys):
    matroid = files("tri.json", TRIANGLE_MATROID)
    profits = files("c.json", {"d": 3, "n": 2, "rows": [[1, 1]] * 3})
    code, _, _ = run_main(capsys, ["shifted", matroid, profits, "--n", "3"])
    assert code == 3


def test_shifted_overflow(files, capsys):
    matroid = files("u21.json", U21)
    profits = files("c.json", {"d": 2, "n": 1, "rows": [[2**61], [1]]})
    code, _, err = run_main(capsys, ["shifted", matroid, profits])
    assert code == 5
    assert "overflow" in err


@pytest.mark.parametrize("matroid, profit_rows", [
    ({"kind": "graphic", "d": 3, "params": {"vertices": 3}}, [[1, 1]] * 3),
    (TRIANGLE_MATROID, [[1, 1], 1, [1, 1]]),
    ({"kind": "graphic", "d": 3, "params": {"vertices": 3, "edges": [[1, 2], None, [1, 3]]}},
     [[1, 1]] * 3),
    ({"kind": "uniform", "d": 3, "params": {"r": "x"}}, [[1, 1]] * 3),
])
def test_shifted_malformed_input_exits_3(files, capsys, matroid, profit_rows):
    matroid = files("m.json", matroid)
    profits = files("c.json", {"d": 3, "n": 2, "rows": profit_rows})
    code, report, err = run_main(capsys, ["shifted", matroid, profits])
    assert code == 3
    assert report is None
    assert "input error" in err


def test_shifted_transversal_long_augmenting_path(files, capsys):
    # Element e (1-based) may use agents e and e + 1, the last one only agent
    # 1.  The matching of all 1500 elements needs an augmenting path through
    # every element; the recursive matching once ended in a RecursionError.
    d = 1500
    adjacency = [[e, e + 1] for e in range(1, d)] + [[1]]
    matroid = files("t.json", {"kind": "transversal", "d": d,
                               "params": {"agents": d, "adjacency": adjacency}})
    profits = files("c.json", {"d": d, "n": 1, "rows": [[1]] * d})
    code, report, _ = run_main(capsys, ["shifted", matroid, profits])
    assert code == 0
    assert report["value"] == d


def test_fiber_malformed_matrix_exits_3(files, capsys):
    matroid = files("u21.json", U21)
    matrix = files("x.json", {"d": 2, "n": 2, "rows": [[1, 0], None]})
    code, _, err = run_main(capsys, ["fiber", matroid, matrix])
    assert code == 3
    assert "input error" in err


@pytest.mark.parametrize("args", [
    ["lexmin-trees", "GRAPH", "--n", "abc"],
    ["lexmin-trees", "GRAPH", "--n", "2", "--no-such-option"],
    ["lexmin-trees", "--n", "2"],
    ["no-such-command"],
    [],
])
def test_rejected_arguments_exit_3(files, capsys, args):
    # argparse's own status 2 would read as "graph not connected".
    graph = files("tri.graph", TRIANGLE_GRAPH)
    with pytest.raises(SystemExit) as exc:
        main([graph if a == "GRAPH" else a for a in args])
    out = capsys.readouterr()
    assert exc.value.code == 3
    assert out.out == ""
    assert out.err.startswith("usage: matroid-shift")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lexmin-trees", "--help"])
    assert exc.value.code == 0
    assert "--n" in capsys.readouterr().out


@pytest.mark.parametrize("value", [2.9, True, "7"])
def test_shifted_rejects_non_integer_profits(files, capsys, value):
    # int() once read these as 2, 1 and 7 and reported a value with exit 0.
    matroid = files("u21.json", U21)
    profits = files("c.json", {"d": 2, "n": 1, "rows": [[value], [1]]})
    code, report, err = run_main(capsys, ["shifted", matroid, profits])
    assert (code, report) == (3, None)
    assert "input error" in err


@pytest.mark.parametrize("value", [1.9, True, "1"])
def test_fiber_rejects_non_integer_matrix(files, capsys, value):
    matroid = files("u21.json", U21)
    matrix = files("x.json", {"d": 2, "n": 1, "rows": [[value], [0]]})
    code, report, err = run_main(capsys, ["fiber", matroid, matrix])
    assert (code, report) == (3, None)
    assert "input error" in err


@pytest.mark.parametrize("shape", [{"d": 2.0, "n": 1}, {"d": 2, "n": True}, {"d": "2", "n": 1}])
def test_tables_reject_non_integer_shape(files, capsys, shape):
    matroid = files("u21.json", U21)
    profits = files("c.json", {**shape, "rows": [[1], [1]]})
    code, report, err = run_main(capsys, ["shifted", matroid, profits])
    assert (code, report) == (3, None)
    assert "input error" in err


@pytest.mark.parametrize("bad", [1.5, True, "3", None], ids=["float", "bool", "string", "null"])
def test_tables_name_their_first_non_integer_entry(files, capsys, bad):
    matroid = files("u21.json", U21)
    profits = files("c.json", {"d": 2, "n": 2, "rows": [[5, 1], [bad, 0.5]]})
    code, report, err = run_main(capsys, ["shifted", matroid, profits])
    assert (code, report) == (3, None)
    assert f"expected an integer, got {bad!r}" in err
    matrix = files("x.json", {"d": 2, "n": 2, "rows": [[1, 0], [bad, 0.5]]})
    code, report, err = run_main(capsys, ["fiber", matroid, matrix])
    assert (code, report) == (3, None)
    assert f"expected an integer, got {bad!r}" in err


def test_matrix_file_names_its_first_entry_outside_0_1(files, capsys):
    matroid = files("u21.json", U21)
    matrix = files("x.json", {"d": 2, "n": 2, "rows": [[1, 0], [-1, 2]]})
    code, report, err = run_main(capsys, ["fiber", matroid, matrix])
    assert (code, report) == (3, None)
    assert "matrix entries must be 0 or 1, got -1" in err


@pytest.mark.parametrize("matroid", [
    {"kind": "uniform", "d": 2, "params": {"r": 1.9}},
    {"kind": "uniform", "d": 2, "params": {"r": True}},
    {"kind": "uniform", "d": 2, "params": {"r": "1"}},
    {"kind": "uniform", "d": "2", "params": {"r": 1}},
    {"kind": "graphic", "d": 2, "params": {"vertices": 3, "edges": [[1, 2.5], [2, 3]]}},
    {"kind": "partition", "d": 2, "params": {"blocks": [1, 1], "capacities": [1.5]}},
], ids=["r-float", "r-bool", "r-string", "d-string", "edge-float", "capacity-float"])
def test_matroid_files_reject_non_integers(files, capsys, matroid):
    # int() once read each of these as a valid matroid and exited 0.
    matroid = files("m.json", matroid)
    profits = files("c.json", {"d": 2, "n": 1, "rows": [[5], [3]]})
    code, report, err = run_main(capsys, ["shifted", matroid, profits])
    assert (code, report) == (3, None)
    assert "input error" in err


def test_bipartite_file_rejects_non_integers(files, capsys):
    graph = files("g.json", {**K22_GRAPH, "left": 2.7})
    profits = files("c.json", {"d": 4, "n": 2, "rows": [[1, 1]] * 4})
    code, report, err = run_main(capsys, ["intersect-value", "--bipartite", graph, profits])
    assert (code, report) == (3, None)
    assert "input error" in err


@pytest.mark.parametrize("argv, brute", [
    (["lexmin-trees", "@graph", "--n", "2", "--verify"], "brute_lexmin"),
    (["shifted", "@matroid", "@profits", "--verify"], "brute_shifted"),
])
def test_wall_time_excludes_verification(files, capsys, monkeypatch, argv, brute):
    paths = {"@graph": files("tri.graph", TRIANGLE_GRAPH),
             "@matroid": files("tri.json", TRIANGLE_MATROID),
             "@profits": files("c.json", {"d": 3, "n": 2, "rows": [[3, 0], [3, 0], [0, 0]]})}
    original = getattr(cli, brute)

    def slow_brute(*args):
        time.sleep(0.5)
        return original(*args)

    monkeypatch.setattr(cli, brute, slow_brute)
    code, report, _ = run_main(capsys, [paths.get(a, a) for a in argv])
    assert code == 0
    assert report["verification"] == "ok"
    assert report["wall_time_ms"] < 500


def test_intersect_value_two_matroids(files, capsys):
    part1 = files("m1.json", {"kind": "partition", "d": 2,
                              "params": {"blocks": [1, 2], "capacities": [1, 1]}})
    part2 = files("m2.json", {"kind": "partition", "d": 2,
                              "params": {"blocks": [1, 1], "capacities": [1]}})
    profits = files("c.json", {"d": 2, "n": 2, "rows": [[1, 1], [1, 1]]})
    code, report, _ = run_main(capsys, ["intersect-value", part1, part2, profits])
    assert code == 0
    assert report["value"] == 2
    assert "columns" not in report


def test_intersect_value_two_matroids_rejects_recheck(files, capsys):
    part = files("m.json", {"kind": "partition", "d": 2,
                            "params": {"blocks": [1, 2], "capacities": [1, 1]}})
    profits = files("c.json", {"d": 2, "n": 2, "rows": [[1, 1], [1, 1]]})
    code, report, err = run_main(capsys, ["intersect-value", part, part, profits, "--recheck"])
    assert code == 3
    assert report is None
    assert "--bipartite" in err


def test_intersect_value_rejects_graphic(files, capsys):
    tri = files("tri.json", TRIANGLE_MATROID)
    profits = files("c.json", {"d": 3, "n": 2, "rows": [[1, 1]] * 3})
    code, _, err = run_main(capsys, ["intersect-value", tri, tri, profits])
    assert code == 6
    assert "strongly base orderable" in err


def test_intersect_value_bipartite(files, capsys):
    graph = files("k22.json", K22_GRAPH)
    profits = files("c.json", {"d": 4, "n": 2, "rows": [[1, 1]] * 4})
    code, report, _ = run_main(capsys, ["intersect-value", "--bipartite", graph,
                                        profits, "--recheck"])
    assert code == 0
    assert report["value"] == 4
    assert len(report["columns"]) == 2


def test_intersect_value_bipartite_with_huge_declared_sides(files, capsys):
    # The degree matroids' blocks follow the vertices the edges touch, so a
    # declared side of 10**12 allocates nothing and changes no answer.
    edges = [[1, 1], [1, 2], [2, 1], [3, 2], [3, 3]]
    profits = files("c.json", {"d": 5, "n": 2, "rows": [[4, 1], [3, 3], [2, 0], [5, 2], [1, 1]]})
    reports = []
    for left, right in ((3, 3), (10**12, 10**12)):
        graph = files("g.json", {"left": left, "right": right, "edges": edges})
        code, report, _ = run_main(capsys, ["intersect-value", "--bipartite", graph, profits,
                                            "--recheck"])
        assert code == 0
        reports.append(report)
    assert reports[1]["value"] == reports[0]["value"]
    assert reports[1]["columns"] == reports[0]["columns"]


def test_fiber_roundtrip(files, capsys):
    matroid = files("u21.json", U21)
    matrix = files("x.json", {"d": 2, "n": 2, "rows": [[1, 0], [1, 0]]})
    code, report, err = run_main(capsys, ["fiber", matroid, matrix, "--recheck"])
    assert code == 0
    assert sorted(report["columns"]) == [[1], [2]]
    assert report["row_sums_input"] == report["row_sums_output"] == [1, 1]
    assert "row sums" in err


def test_fiber_infeasible(files, capsys):
    matroid = files("tri.json", TRIANGLE_MATROID)
    matrix = files("x.json", {"d": 3, "n": 2, "rows": [[1, 1]] * 3})
    code, report, err = run_main(capsys, ["fiber", matroid, matrix])
    assert code == 7
    assert "not in shuffle set" in err


CHECKED_ARGV = {
    "lexmin-trees": (["lexmin-trees", "@graph", "--n", "2"], {"@graph": TRIANGLE_GRAPH}),
    "shifted": (["shifted", "@matroid", "@profits", "--bases"],
                {"@matroid": TRIANGLE_MATROID,
                 "@profits": {"d": 3, "n": 2, "rows": [[3, 0], [3, 0], [0, 0]]}}),
    "bipartite": (["intersect-value", "--bipartite", "@graph", "@profits"],
                  {"@graph": K22_GRAPH, "@profits": {"d": 4, "n": 2, "rows": [[1, 1]] * 4}}),
    "fiber": (["fiber", "@matroid", "@matrix"],
              {"@matroid": U21, "@matrix": {"d": 2, "n": 2, "rows": [[1, 0], [1, 0]]}}),
}


def checked_argv(files, command):
    argv, inputs = CHECKED_ARGV[command]
    paths = {a: files(a[1:] + ".in", content) for a, content in inputs.items()}
    return [paths.get(a, a) for a in argv]


@pytest.mark.parametrize("command", ["lexmin-trees", "shifted", "fiber"])
def test_corrupt_witness_exits_4(files, capsys, monkeypatch, command):
    original = solver._columns_from_parts

    def corrupt(*args):
        y = original(*args)
        return Matrix01([[1 - v for v in y.rows[0]], *y.rows[1:]])

    monkeypatch.setattr(solver, "_columns_from_parts", corrupt)
    code, report, err = run_main(capsys, checked_argv(files, command))
    assert code == 4
    assert report is None
    assert "self-check failed" in err


@pytest.mark.parametrize("command", sorted(CHECKED_ARGV))
def test_recheck_catches_a_corrupt_report(files, capsys, monkeypatch, command):
    original = cli._columns_1based
    monkeypatch.setattr(cli, "_columns_1based",
                        lambda y: [list(range(1, y.d + 1))] + original(y)[1:])
    code, report, err = run_main(capsys, checked_argv(files, command) + ["--recheck"])
    assert code == 4
    assert report is None
    assert "self-check failed" in err


@pytest.mark.parametrize("token", ["\uff12", "+2", "2_0", " 2", "2" * 5000],
                         ids=["full-width", "plus", "underscore", "space", "over-digit-limit"])
@pytest.mark.parametrize("command", sorted(CHECKED_ARGV))
def test_n_must_be_ascii_decimal(files, capsys, command, token):
    # int() read each token as a number, so --n accepted it and, unless it
    # contradicted a file's n, the call solved and exited 0.
    argv = checked_argv(files, command)
    if "--n" in argv:
        argv = argv[:argv.index("--n")]
    assert run_main(capsys, argv + ["--n", "2"])[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n", token])
    out = capsys.readouterr()
    assert exc.value.code == 3
    assert out.out == ""
    assert "argument --n" in out.err


@pytest.mark.parametrize("command", sorted(CHECKED_ARGV))
def test_n_over_the_digit_limit_names_its_length(files, capsys, command):
    # argparse once printed "invalid _count value:" and the whole token,
    # 5,000 digits, instead of the length message of the digit check.
    argv = checked_argv(files, command)
    if "--n" in argv:
        argv = argv[:argv.index("--n")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n", "9" * 5000])
    err = capsys.readouterr().err
    assert exc.value.code == 3
    assert "a number of 5000 digits is too long" in err
    assert "_count" not in err
    assert len(err) < 500


BAD_INPUT_ARGV = {
    "unreadable-file": ["shifted", "@missing", "@profits"],
    "invalid-json": ["shifted", "@garbled", "@profits"],
    "declared-shape": ["shifted", "@matroid", "@short_profits"],
    "no-problem-line": ["lexmin-trees", "@edge_first", "--n", "1"],
    "problem-line-token-not-p": ["lexmin-trees", "@px_line", "--n", "1"],
    "missing-edges": ["lexmin-trees", "@two_of_three", "--n", "1"],
    "bipartite-with-matroids": ["intersect-value", "@u32", "@u32", "@profits",
                                "--bipartite", "@k22"],
    "one-matroid": ["intersect-value", "@u32", "@profits"],
    "fiber-n-conflict": ["fiber", "@u21", "@matrix", "--n", "3"],
    "undecodable-graph": ["lexmin-trees", "@undecodable", "--n", "1"],
    "undecodable-matroid": ["shifted", "@undecodable", "@profits"],
    "undecodable-profits": ["shifted", "@u32", "@undecodable"],
    "undecodable-matrix": ["fiber", "@u21", "@undecodable"],
    "undecodable-bipartite": ["intersect-value", "--bipartite", "@undecodable", "@profits"],
    "deeply-nested-json": ["shifted", "@deep", "@profits"],
    "json-integer-over-digit-limit": ["shifted", "@huge_integer", "@profits"],
    "graph-token-over-digit-limit": ["lexmin-trees", "@huge_token", "--n", "1"],
    "trees-over-limit": ["lexmin-trees", "@edge", "--n", "4097"],
    "trees-far-over-limit": ["lexmin-trees", "@edge", "--n", "99999999999"],
}
BAD_INPUT_FILES = {
    "@garbled": "{not json",
    "@profits": {"d": 3, "n": 2, "rows": [[1, 0]] * 3},
    "@matroid": TRIANGLE_MATROID,
    "@short_profits": {"d": 3, "n": 2, "rows": [[1, 0], [1, 0]]},
    "@edge_first": "e 1 2\np 2 1\n",
    "@px_line": "px 2 1\ne 1 2\n",
    "@two_of_three": "p 3 3\ne 1 2\ne 2 3\n",
    "@edge": "p 2 1\ne 1 2\n",
    "@u32": U32,
    "@k22": K22_GRAPH,
    "@u21": U21,
    "@matrix": {"d": 2, "n": 2, "rows": [[1, 0], [0, 1]]},
    "@undecodable": b"p 2 1\ne 1 2\n\xff\n",  # not UTF-8
    "@deep": "[" * 100_000 + "]" * 100_000,  # deeper than the recursion limit
    "@huge_integer": "[" + "9" * 5000 + "]",  # over Python's 4300-digit limit
    "@huge_token": "p 2 1\ne 1 " + "2" * 5000 + "\n",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_ARGV))
def test_bad_inputs_exit_3(files, capsys, tmp_path, case):
    paths = {a: files(a[1:] + ".in", content) for a, content in BAD_INPUT_FILES.items()}
    paths["@missing"] = str(tmp_path / "missing.json")
    code, report, err = run_main(capsys, [paths.get(a, a) for a in BAD_INPUT_ARGV[case]])
    assert code == 3
    assert report is None
    assert "input error" in err


def test_lexmin_trees_verify_with_many_copies(files, capsys):
    # The brute-force check once recursed once per copy: a RecursionError.
    graph = files("edge.graph", "p 2 1\ne 1 2\n")
    code, report, _ = run_main(capsys, ["lexmin-trees", graph, "--n", "1200", "--verify"])
    assert code == 0
    assert report["verification"] == "ok"
    assert report["vulnerability"] == [1] * 1200


def test_shifted_verify_with_many_copies(files, capsys):
    matroid = files("u11.json", {"kind": "uniform", "d": 1, "params": {"r": 1}})
    profits = files("c.json", {"d": 1, "n": 1200, "rows": [list(range(1200))]})
    code, report, _ = run_main(capsys, ["shifted", matroid, profits, "--verify"])
    assert code == 0
    assert report["verification"] == "ok"
    assert report["value"] == sum(range(1200))


@settings(max_examples=300, deadline=None)
@given(vertices=st.integers(1, 6), data=st.data())
def test_connectivity_matches_networkx(vertices, data):
    # Multigraphs with loops, parallel edges and declared vertices that no
    # edge touches; --n 1 solves whenever the graph is connected.  (With no
    # edges at all the ground set is empty, which exits 3.)
    end = st.integers(1, vertices)
    edges = data.draw(st.lists(st.tuples(end, end), min_size=1, max_size=9), label="edges")
    g = nx.MultiGraph()
    g.add_nodes_from(range(1, vertices + 1))
    g.add_edges_from(edges)
    text = f"p {vertices} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "g.graph"
        graph.write_text(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["lexmin-trees", str(graph), "--n", "1"])
    assert code == (0 if nx.is_connected(g) else 2)


def test_stdout_is_pure_json(files, capsys):
    graph = files("tri.graph", TRIANGLE_GRAPH)
    code = main(["lexmin-trees", graph, "--n", "2", "--verify"])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)  # must parse as a single JSON document


def test_reports_are_deterministic(files, capsys):
    graph = files("tri.graph", TRIANGLE_GRAPH)
    _, rep1, _ = run_main(capsys, ["lexmin-trees", graph, "--n", "2"])
    _, rep2, _ = run_main(capsys, ["lexmin-trees", graph, "--n", "2"])
    for rep in (rep1, rep2):
        rep.pop("wall_time_ms")
    assert rep1 == rep2


def test_console_entry_point(files, tmp_path):
    graph = tmp_path / "tri.graph"
    graph.write_text(TRIANGLE_GRAPH)
    # The child imports the package this process imported, installed or
    # not (pytest's pythonpath setting reaches only this process).
    here = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "matroid_shift.cli", "lexmin-trees", str(graph), "--n", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vulnerability"] == [3, 1]
