"""The benchmark's span tracer patches package functions by name; each of
its targets must still exist, or ``perfbench/run.py --trace 1`` breaks, and
its engine counters must still see the union and intersection engines."""

import importlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from matroid_shift import DisallowedKindError, OracleMatroid
from matroid_shift.constructions import AgentFlow, BlockSums, SlotUnion, count_union
from matroid_shift.intersection import SBO_KINDS
from corpora import FAMILIES, random_matroid

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_tracer().TARGETS, ids=lambda t: f"{t.module}.{t.name}")
def test_tracer_target_resolves(target):
    module = importlib.import_module(f"matroid_shift.{target.module}")
    if target.owner is None:
        assert callable(getattr(module, target.attr, None))
    else:
        assert target.attr in vars(getattr(module, target.owner))


def test_tracer_counts_engine_spans_and_restores_the_package(tmp_path, capsys):
    from matroid_shift import cli

    graph = tmp_path / "k4.graph"
    graph.write_text("p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    bipartite = tmp_path / "k22.json"
    bipartite.write_text(json.dumps({"left": 2, "right": 2,
                                     "edges": [[1, 1], [1, 2], [2, 1], [2, 2]]}))
    profits = tmp_path / "c.json"
    profits.write_text(json.dumps({"d": 4, "n": 2, "rows": [[3, 1], [2, 2], [1, 0], [5, 4]]}))
    # fiber decomposes, so the tracer's memo probe reads the union's caches.
    matroid = tmp_path / "u32.json"
    matroid.write_text(json.dumps({"kind": "uniform", "d": 3, "params": {"r": 2}}))
    matrix = tmp_path / "x.json"
    matrix.write_text(json.dumps({"d": 3, "n": 2, "rows": [[1, 0], [1, 1], [1, 0]]}))
    main = cli.main
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.main is not main
        for call, argv in enumerate([["lexmin-trees", str(graph), "--n", "2"],
                                     ["intersect-value", "--bipartite", str(bipartite),
                                      str(profits)],
                                     ["fiber", str(matroid), str(matrix)]]):
            tracer.begin_call(call)
            assert cli.main(argv) == 0
            tracer.end_call()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert cli.main is main
    summary = tracer.summary(1)
    assert summary["constructions.augmentations"] > 0
    assert summary["constructions.augment_success_ratio"] > 0  # truthy _try_augment results
    assert summary["constructions.cache_entries_max"] > 0
    assert summary["intersection.stages"] > 0


@pytest.mark.parametrize("kind, params, tries", [
    ("partition", {"blocks": [1, 1, 2], "capacities": [1, 1]}, 5),
    ("transversal", {"agents": 2, "adjacency": [[1], [1], [2]]}, 5),
])
def test_tracer_counts_the_copies_of_a_count_union(tmp_path, capsys, kind, params, tries):
    # Rows 0 and 1 share one block or agent, which takes n = 2 copies, and
    # row 2 has its own; the greedy tries the cells by profit.  Row 0
    # fills the block or agent and row 1 is refused for good, by the full
    # block or by the flow's failed search, so its second copy is not
    # tried.  Row 2 then fills the cap of 4.
    from matroid_shift import cli

    matroid = tmp_path / "m.json"
    matroid.write_text(json.dumps({"kind": kind, "d": 3, "params": params}))
    profits = tmp_path / "c.json"
    profits.write_text(json.dumps({"d": 3, "n": 2, "rows": [[5, 4], [3, 2], [1, 1]]}))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tracer.begin_call(0)
        assert cli.main(["shifted", str(matroid), str(profits)]) == 0
        tracer.end_call()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    summary = tracer.summary(1)
    assert summary["constructions.augmentations"] == tries
    assert summary["constructions.augment_success_ratio"] == 4 / tries


def test_count_union_picks_an_engine_for_every_family():
    # Block sums for partition and uniform parts, one flow for transversal
    # parts, slots for the rest; only the engines of the strongly base
    # orderable kinds the intersection takes answer circuits.
    engines = {"graphic": SlotUnion, "uniform": BlockSums, "partition": BlockSums,
               "linear_gf2": SlotUnion, "transversal": AgentFlow}
    rng = random.Random(3)
    matroids = [random_matroid(rng, kind=kind) for kind in FAMILIES]
    matroids.append(OracleMatroid(3, lambda s: len(s) <= 1))
    answering = set()
    for m in matroids:
        engine = count_union(m, 2)
        assert type(engine) is engines.get(m.kind, SlotUnion)
        try:
            engine.circuits((0,) * m.d, list(range(m.d)))
        except DisallowedKindError:
            continue
        answering.add(m.kind)
    assert answering == set(SBO_KINDS)
