"""Tests of the benchmark itself: inputs, checker and tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run._import_package()


def _solve(cli, inst, tmp_path, tracer=None) -> dict:
    workloads.write([inst], str(tmp_path))
    rec = run.call_cli(cli, inst.resolved_argv(str(tmp_path)), tracer)
    rec.update(index=0, kind="main")
    return rec


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b = workloads.generate(workload, 7), workloads.generate(workload, 7)
    assert workloads.input_digest(a) == workloads.input_digest(b)
    assert [i.digest() for i in a] == [i.digest() for i in b]
    assert workloads.input_digest(a) != workloads.input_digest(workloads.generate(workload, 8))


def test_fiber_inputs_follow_the_seed():
    inst = next(i for i in workloads.generate("shifted-mix", 3) if i.fiber_extra_one)
    cols = [[1, 2], [2, 3]] + [[1]] * (inst.n - 2)
    assert workloads.fiber_rows(inst, 3, cols) == workloads.fiber_rows(inst, 3, cols)
    rows = workloads.fiber_rows(inst, 3, cols)
    assert sum(map(sum, rows)) == sum(map(len, cols)) + 1


@pytest.mark.parametrize("workload", ["lexmin-trees", "shifted-mix"])
def test_correct_report_passes_and_flipped_column_fails(cli, workload, tmp_path):
    inst = workloads.generate(workload, 0)[0]
    rec = _solve(cli, inst, tmp_path)
    assert check.check_call(inst, rec, {}) is None

    rep = json.loads(rec["stdout"])
    col = rep["columns"][0]
    d = len(inst.data["edges"]) if "edges" in inst.data else inst.data["matroid"]["d"]
    missing = next(e for e in range(1, d + 1) if e not in col)
    rep["columns"][0] = sorted(col + [missing])  # one 0 flipped to 1
    bad = dict(rec, stdout=json.dumps(rep))
    assert check.check_call(inst, bad, {}) is not None
    verdicts = run.check_calls([inst], [rec, bad], {})
    assert verdicts[0] is None and verdicts[1] is not None


def test_bipartite_value_is_checked_against_the_flow(cli, tmp_path):
    inst = workloads.generate("bipartite-matching", 0)[0]
    rec = _solve(cli, inst, tmp_path)
    assert check.check_call(inst, rec, {}) is None
    rep = json.loads(rec["stdout"])
    rep["value"] += 1
    assert "min-cost-flow" in check.check_call(inst, dict(rec, stdout=json.dumps(rep)), {})


def test_degree_partitions_match_the_package(cli):
    from matroid_shift.intersection import BipartiteGraph, degree_matroids
    from matroid_shift.matroids import matroid_to_json

    inst = workloads.generate("bipartite-matching", 0)[5]
    d = inst.data
    g = BipartiteGraph(d["left"], d["right"], d["edges"])
    expect = tuple(map(matroid_to_json, degree_matroids(g)))
    assert workloads.degree_partitions(d["left"], d["right"], d["edges"]) == expect


@pytest.mark.xfail(strict=True, reason="fiber_bipartite_matching colour-table defect (ROADMAP, "
                   "'Fix first'); once fixed, bipartite-matching can call --bipartite again")
def test_bipartite_witness_path_on_workload_graphs(cli, tmp_path):
    """intersect-value --bipartite --recheck on every graph of seed 0."""
    instances = workloads.generate("bipartite-matching", 0)
    workloads.write(instances, str(tmp_path))
    failed = []
    for inst in instances:
        d = inst.data
        graph = tmp_path / (inst.name.rsplit("/", 1)[1] + ".graph.json")
        graph.write_text(json.dumps({"left": d["left"], "right": d["right"], "edges": d["edges"]}))
        profits = inst.resolved_argv(str(tmp_path))[-1]
        rec = run.call_cli(cli, ["intersect-value", "--bipartite", str(graph), profits, "--recheck"])
        if rec["error"] is not None or rec["code"] != 0:
            failed.append((inst.name, rec["error"] or f"exit {rec['code']}"))
    assert failed == []


def test_wrong_reference_optimum_fails(cli, tmp_path):
    inst = workloads.generate("shifted-mix", 0)[0]
    rec = _solve(cli, inst, tmp_path)
    value = json.loads(rec["stdout"])["value"]
    assert check.check_call(inst, rec, {inst.digest(): value}) is None
    assert "reference" in check.check_call(inst, rec, {inst.digest(): value + 1})


def test_crash_and_unexpected_exit_fail():
    inst = workloads.generate("bipartite-matching", 0)[0]
    base = {"kind": "main", "index": 0, "stdout": "", "stderr": "", "seconds": 0.0}
    assert "raised" in check.check_call(inst, dict(base, code=None, error="KeyError: 3"), {})
    assert "exit 4" in check.check_call(inst, dict(base, code=4, error=None), {})


def test_all_failing_calls_still_report():
    calls = [{"index": i, "kind": "main", "code": None, "error": "KeyError: 0",
              "seconds": 0.02 * (i + 1), "scaled": 0.01 * (i + 1),
              "stdout": "", "stderr": ""} for i in range(3)]
    loop = {"wall": 0.2, "scaled_wall": 0.1, "peak_rss_mb": 30.0, "setup_times": [0.05]}
    rows = {name: value for name, value, _, _ in run.end_to_end(loop, calls, ["raised"] * 3)}
    assert rows["fail_frac"] == 1.0 and rows["solved_per_s"] == 0.0
    assert rows["latency_ms.p50"] == pytest.approx(20.0)
    one = {name: value for name, value, _, _ in run.end_to_end(loop, calls[:1], ["raised"])}
    assert one["fail_frac"] == 1.0 and one["latency_ms.p90"] == pytest.approx(10.0)


def test_setup_sample_keeps_the_loaded_package(cli, tmp_path):
    inst = workloads.generate("shifted-mix", 2)
    workloads.write(inst, str(tmp_path))
    before = {p.name: p.read_text() for p in tmp_path.iterdir()}
    modules = {name: sys.modules[name] for name in run._package_modules()}
    seconds = run.setup_sample("shifted-mix", 2, workloads.input_digest(inst), str(tmp_path))
    assert seconds > 0
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before
    assert {name: sys.modules[name] for name in run._package_modules()} == modules


def test_rejected_fiber_must_exit_7(cli, tmp_path):
    inst = next(i for i in workloads.generate("shifted-mix", 0) if i.fiber_extra_one)
    workloads.write([inst], str(tmp_path))
    calls: list = []
    run.run_pass(cli, [inst], str(tmp_path), 0, calls)
    main, fiber = calls
    assert fiber["kind"] == "fiber" and fiber["code"] == 7
    assert run.check_calls([inst], calls, {}) == [None, None]
    assert check.check_call(inst, dict(fiber, code=0), {}) is not None


def test_bipartite_flow_reference_matches_brute_force():
    from matroid_shift.bruteforce import brute_shifted, common_members
    from matroid_shift.intersection import BipartiteGraph, degree_matroids
    from matroid_shift.solver import ProfitMatrix

    edges = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1), (3, 2)]
    rows = [[5, -1], [3, 3], [-2, 4], [7, 0], [1, 1], [2, -3]]
    g = BipartiteGraph(3, 2, edges)
    members = common_members(*degree_matroids(g))
    expect, _ = brute_shifted(members, 2, ProfitMatrix(rows))
    assert check.flow_matching_value(3, 2, edges, rows, 2) == expect


def _package_attributes() -> dict:
    out = {}
    for m in tracer_mod._package_modules():
        for name, value in vars(m).items():
            out[(m.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("matroid_shift"):
                for attr, inner in vars(value).items():
                    out[(m.__name__, name, attr)] = inner
    return out


def test_tracer_restores_every_function(cli, tmp_path):
    before = _package_attributes()
    inst = workloads.generate("lexmin-trees", 0)[0]
    plain = _solve(cli, inst, tmp_path)

    t = tracer_mod.Tracer()
    t.install()
    try:
        assert len(t._patches) >= len(tracer_mod.TARGETS)
        assert cli.main is not before[("matroid_shift.cli", "main")]
        traced = _solve(cli, inst, tmp_path, t)
    finally:
        t.uninstall()

    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert run._canonical(traced["stdout"]) == run._canonical(plain["stdout"])
    metrics = t.summary(1)
    assert metrics["constructions.lift_calls"] > 0
    assert metrics["matroids.oracle_calls.graphic"] == metrics["matroids.oracle_calls"] > 0
    assert metrics["trace.spans"] == len(t.span_start)
    assert set(metrics) | {"trace.overhead_ratio"} == set(run.metric_units("per_layer"))


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lexmin-trees",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
