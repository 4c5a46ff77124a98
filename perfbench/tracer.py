"""Span tracer that wraps the package's layer entry points from outside.

``Tracer.install`` replaces each target in ``TARGETS`` with a wrapper that
records one span per call: target id, start, end, parent span and the
benchmark call it belongs to.  Module-level functions are replaced in every
``matroid_shift`` module that imported them by name, so calls through
``from .solver import solve_lexmin`` are seen too.  ``uninstall`` puts every
original object back.  Spans stay in memory, in flat arrays, until
``summary`` turns them into per-layer self times and counts.

Two targets, ``UnionMatroid._try_augment`` and ``_augmenting_path``, are
private functions of the current matroid-partition and intersection engines,
and the memo sizes are read from private tables.  The metrics drawn from
them (``ENGINE_METRICS``) are tied to that engine and are expected to
disappear when it is replaced.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass

PACKAGE = "matroid_shift"
FAMILIES = ("graphic", "uniform", "partition", "linear_gf2", "transversal")


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    owner: str | None  # class name for a method, None for a module function
    attr: str

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


TARGETS = (
    Target("cli", "cli", None, "main"),
    Target("solver", "solver", None, "solve_lexmin"),
    Target("solver", "solver", None, "solve_shifted"),
    Target("solver", "solver", None, "solve_fiber"),
    Target("matroids", "matroids", "GraphicMatroid", "_indep"),
    Target("matroids", "matroids", "UniformMatroid", "_indep"),
    Target("matroids", "matroids", "PartitionMatroid", "_indep"),
    Target("matroids", "matroids", "LinearGf2Matroid", "_indep"),
    Target("matroids", "matroids", "TransversalMatroid", "_indep"),
    Target("matroids", "matroids", None, "greedy_in_order"),
    Target("constructions", "constructions", "LiftMatroid", "_indep"),
    Target("constructions", "constructions", "UnionMatroid", "decompose"),
    Target("constructions", "constructions", "UnionMatroid", "_try_augment"),
    Target("constructions", "constructions", "ShuffleMatroid", "_indep"),
    Target("constructions", "constructions", "ShuffleMatroid", "decompose_matrix"),
    Target("intersection", "intersection", None, "weighted_matroid_intersection_max"),
    Target("intersection", "intersection", None, "_augmenting_path"),
)
ENGINE_METRICS = frozenset({
    "constructions.augmentations", "constructions.augment_success_ratio",
    "constructions.cache_entries_max", "intersection.stages",
    "intersection.path_search_self_s",
})
LAYERS = ("cli", "solver", "matroids", "constructions", "intersection")
FAMILY_OF = {f"{cls}._indep": fam for cls, fam in zip(
    ("GraphicMatroid", "UniformMatroid", "PartitionMatroid", "LinearGf2Matroid",
     "TransversalMatroid"), FAMILIES)}
INDEX = {t.name: i for i, t in enumerate(TARGETS)}


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.span_target = array("H")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.truthy = [0] * len(TARGETS)  # calls whose result was truthy
        self.call = [-1]                  # benchmark call the next spans belong to
        self._stack = [-1]
        self._patches: list = []          # (owner object, attribute, original)
        # Memo sizes of the union/lift objects seen in the current call
        # (engine counter): id -> (object, size); max of the per-call sum.
        self._memos: dict = {}
        self.cache_entries_max = 0

    # --- installation ---

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for tid, t in enumerate(TARGETS):
            mod = sys.modules[f"{PACKAGE}.{t.module}"]
            if t.owner is not None:
                cls = getattr(mod, t.owner)
                original = cls.__dict__[t.attr]
                self._patch(cls, t.attr, original, self._wrap(original, tid))
                continue
            original = getattr(mod, t.attr)
            wrapper = self._wrap(original, tid)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- recording ---

    def _wrap(self, fn, tid: int):
        target, parent, call = self.span_target, self.span_parent, self.span_call
        start, end, stack, current = self.span_start, self.span_end, self._stack, self.call
        clock = time.perf_counter
        count_truthy = TARGETS[tid].name == "UnionMatroid._try_augment"
        probe = self._probe_memo if TARGETS[tid].name == "UnionMatroid.decompose" else None
        truthy = self.truthy

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            target.append(tid)
            parent.append(stack[-1])
            call.append(current[0])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count_truthy and result:
                truthy[tid] += 1
            if probe is not None:
                probe(args[0])
            return result

        return wrapper

    def _probe_memo(self, union) -> None:
        # Engine counter: reads the private memo tables of UnionMatroid and
        # of the LiftMatroid it partitions.
        size = len(union._indep_cache) + len(union._dep_cache)
        size += len(getattr(union.part, "_base_cache", ()))
        self._memos[id(union)] = (union, size)

    def begin_call(self, call_id: int) -> None:
        self.call[0] = call_id
        self._memos.clear()

    def end_call(self) -> None:
        total = sum(size for _, size in self._memos.values())
        self.cache_entries_max = max(self.cache_entries_max, total)
        self._memos.clear()
        self.call[0] = -1

    # --- aggregation ---

    def summary(self, rounds: int) -> dict:
        """Per-layer metrics, every count and time divided by ``rounds``."""
        k = len(TARGETS)
        count, incl, self_t = [0] * k, [0.0] * k, [0.0] * k
        target, parent, start, end = self.span_target, self.span_parent, self.span_start, self.span_end
        child = array("d", bytes(8 * len(start)))  # time covered by child spans
        for p, s, e in zip(parent, start, end):
            if p >= 0:
                child[p] += e - s
        by = INDEX
        lift_tid = by["LiftMatroid._indep"]
        family_tids = {by[name] for name in FAMILY_OF}
        base_from_lift = 0
        for t, p, s, e, c in zip(target, parent, start, end, child):
            count[t] += 1
            incl[t] += e - s
            self_t[t] += e - s - c
            if t in family_tids and p >= 0 and target[p] == lift_tid:
                base_from_lift += 1

        def per_round(x):
            return x / rounds

        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, t in enumerate(TARGETS):
            layer_self[t.layer] += self_t[i]
        oracle_ids = [by[name] for name in FAMILY_OF]
        lift_calls = count[by["LiftMatroid._indep"]]
        aug = count[by["UnionMatroid._try_augment"]]
        m = {
            "cli.self_s": per_round(layer_self["cli"]),
            "solver.self_s": per_round(layer_self["solver"]),
            "matroids.self_s": per_round(layer_self["matroids"]),
            "matroids.oracle_calls": per_round(sum(count[i] for i in oracle_ids)),
        }
        for name, fam in FAMILY_OF.items():
            m[f"matroids.oracle_calls.{fam}"] = per_round(count[by[name]])
        m.update({
            "matroids.oracle_s": per_round(sum(incl[i] for i in oracle_ids)),
            "matroids.greedy_self_s": per_round(self_t[by["greedy_in_order"]]),
            "constructions.self_s": per_round(layer_self["constructions"]),
            "constructions.lift_calls": per_round(lift_calls),
            "constructions.lift_self_s": per_round(self_t[by["LiftMatroid._indep"]]),
            "constructions.lift_per_oracle": lift_calls / base_from_lift if base_from_lift else 0.0,
            "constructions.union_queries": per_round(count[by["UnionMatroid.decompose"]]),
            "constructions.union_self_s": per_round(self_t[by["UnionMatroid.decompose"]]),
            "constructions.augmentations": per_round(aug),
            "constructions.augment_success_ratio":
                self.truthy[by["UnionMatroid._try_augment"]] / aug if aug else 0.0,
            "constructions.cache_entries_max": self.cache_entries_max,
            "intersection.self_s": per_round(layer_self["intersection"]),
            "intersection.stages": per_round(count[by["_augmenting_path"]]),
            "intersection.path_search_self_s": per_round(self_t[by["_augmenting_path"]]),
            "trace.spans": per_round(len(target)),
        })
        return m
