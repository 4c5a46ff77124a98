"""Seeded instance generators for the three benchmark workloads.

Every workload is a fixed ladder of instance shapes; the seed only fills in
the random parts (edge placement, vertex labels, edge order, matroid
parameters, profits).  A workload is made of ``ROUNDS[workload]`` rounds,
each one random draw of every shape on the ladder.  A run executes whole
rounds, so each shape weighs alike in it whatever the number of rounds
that fit, and every round adds fresh draws: the latency distribution of
a run is then comparable from seed to seed, and run-to-run spread measures
the program rather than the luck of the draw.

An instance carries the files the CLI reads and the argv that names them.
Files are written during set-up; the only inputs made later are the
``fiber`` follow-ups of ``shifted-mix``, which are built from the report of
the ``shifted`` call they follow (see ``fiber_rows``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("lexmin-trees", "shifted-mix", "bipartite-matching")

# lexmin-trees ladder: every shape is solved with each n in LEXMIN_NS.
LEXMIN_GRIDS = ((3, 3), (3, 4), (2, 8), (4, 4), (4, 5), (5, 5))
LEXMIN_COMPLETE = (5, 6, 7, 8, 9, 10)
LEXMIN_SPARSE = (8, 10, 12, 14, 16)  # two graphs per size: 2.25x and 2.75x edges
LEXMIN_NS = (2, 3, 4)

# shifted-mix ladder: family x n x (independent sets | bases) x size band.
FAMILIES = ("graphic", "uniform", "partition", "linear_gf2", "transversal")
SHIFTED_NS = (2, 3, 4)
SHIFTED_D_BANDS = ((12, 20), (21, 30), (31, 40))

# bipartite-matching ladder: sides x n x edge band (edges per vertex).
BIPARTITE_SIDES = ((3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5), (4, 6),
                   (5, 5), (5, 6), (6, 6))
BIPARTITE_NS = (2, 3)
BIPARTITE_EDGE_BANDS = ((0.8, 1.0), (1.0, 1.2), (1.2, 1.4))

# Rounds generated per workload: about as many as fit into a 25 s run on
# the hardware named in README.md, where a round takes 4-7 s of
# lexmin-trees, 4.5-7.5 s of shifted-mix and 2.7-4.5 s of
# bipartite-matching.  A longer run starts over at round 0.
ROUNDS = {"lexmin-trees": 6, "shifted-mix": 6, "bipartite-matching": 10}
# The round of each workload's warm-up instance: one fixed heavy instance,
# the same for every seed, solved untimed before the first round.
WARM_UP = -1


@dataclass
class Instance:
    """One CLI call: the files it reads and its argv ("@name" = file in the work dir)."""

    name: str
    shape: str
    command: str
    n: int
    files: dict = field(default_factory=dict)
    argv: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    round: int = 0
    # shifted-mix only: add one extra 1 to the permuted solution, so the
    # fiber call must reject it (exit 7).
    fiber_extra_one: bool = False

    def resolved_argv(self, workdir: str) -> list:
        return [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in self.argv]

    def digest(self) -> str:
        canon = json.dumps([self.name, self.command, self.files, self.argv,
                            self.round, self.fiber_extra_one], sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _warm_tag(rnd: int) -> str:
    return "warm-up " if rnd == WARM_UP else ""


def _rng(workload: str, seed: int | str, tag: str = "") -> random.Random:
    # String seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{tag}")


def _graph_text(vertices: int, edges) -> str:
    lines = [f"p {vertices} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _relabel_shuffle(rng: random.Random, vertices: int, edges) -> list:
    label = list(range(1, vertices + 1))
    rng.shuffle(label)
    out = [(label[u - 1], label[v - 1]) for u, v in edges]
    rng.shuffle(out)
    return out


def _grid(a: int, b: int) -> tuple[int, list]:
    idx = lambda i, j: i * b + j + 1  # noqa: E731
    edges = []
    for i in range(a):
        for j in range(b):
            if j + 1 < b:
                edges.append((idx(i, j), idx(i, j + 1)))
            if i + 1 < a:
                edges.append((idx(i, j), idx(i + 1, j)))
    return a * b, edges


def _complete(v: int) -> tuple[int, list]:
    return v, [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1)]


def _connected_simple(rng: random.Random, vertices: int, num_edges: int) -> list:
    """Random spanning tree plus distinct random extra edges (a simple graph)."""
    order = list(range(1, vertices + 1))
    rng.shuffle(order)
    edges = set()
    for k in range(1, vertices):
        u, w = order[k], order[rng.randrange(k)]
        edges.add((min(u, w), max(u, w)))
    while len(edges) < num_edges:
        u, w = rng.sample(range(1, vertices + 1), 2)
        edges.add((min(u, w), max(u, w)))
    return sorted(edges)


def _lexmin_instance(k: int, shape: str, vertices: int, edges, n: int, rnd: int) -> Instance:
    fname = f"{k:04d}.graph"
    return Instance(
        name=f"lexmin-trees/{k:04d}", shape=f"{_warm_tag(rnd)}{shape} n={n}",
        command="lexmin-trees", n=n,
        files={fname: _graph_text(vertices, edges)},
        argv=["lexmin-trees", "@" + fname, "--n", str(n)],
        data={"vertices": vertices, "edges": edges}, round=rnd,
    )


def lexmin_trees(seed: int) -> list[Instance]:
    rng = _rng("lexmin-trees", seed)
    out = []
    for rnd in range(ROUNDS["lexmin-trees"]):
        graphs = []
        for a, b in LEXMIN_GRIDS:
            graphs.append((f"grid {a}x{b}",) + _grid(a, b))
        for v in LEXMIN_COMPLETE:
            graphs.append((f"K{v}",) + _complete(v))
        for v in LEXMIN_SPARSE:
            # Edge counts are fixed (2.25 and 2.75 per vertex): a random count
            # moves the cost of a sparse graph by half and with it the p90.
            for e in (round(2.25 * v), round(2.75 * v)):
                graphs.append((f"sparse V={v} E={e}", v, _connected_simple(rng, v, e)))
        for n in LEXMIN_NS:
            for shape, vertices, edges in graphs:
                edges = _relabel_shuffle(rng, vertices, edges)
                out.append(_lexmin_instance(len(out), shape, vertices, edges, n, rnd))
    warm = _rng("lexmin-trees", "warm-up")
    vertices, edges = _grid(5, 5)
    out.append(_lexmin_instance(len(out), "grid 5x5", vertices,
                                _relabel_shuffle(warm, vertices, edges), 4, WARM_UP))
    return out


def _matroid(rng: random.Random, family: str, d: int) -> dict:
    """A matroid JSON description (1-based) with rank < d."""
    if family == "graphic":
        v = max(5, (d + 1) // 2)
        edges = _connected_simple(rng, v, d)
        rng.shuffle(edges)
        return {"kind": "graphic", "d": d,
                "params": {"vertices": v, "edges": [list(e) for e in edges]}}
    if family == "uniform":
        return {"kind": "uniform", "d": d, "params": {"r": rng.randint(max(2, d // 5), d // 2)}}
    if family == "partition":
        nb = rng.randint(d // 6 + 1, d // 3)
        # Capacities <= 2 with >= 3 elements per block on average keep rank < d.
        return {"kind": "partition", "d": d,
                "params": {"blocks": [rng.randint(1, nb) for _ in range(d)],
                           "capacities": [rng.randint(1, 2) for _ in range(nb)]}}
    if family == "linear_gf2":
        k = rng.randint(5, 8)
        cols = []
        for _ in range(d):
            mask = rng.randint(1, 2**k - 1)
            cols.append([(mask >> b) & 1 for b in range(k)])
        return {"kind": "linear_gf2", "d": d, "params": {"columns": cols}}
    if family == "transversal":
        agents = rng.randint(d // 4 + 1, d // 2)
        adj = [sorted(rng.sample(range(1, agents + 1), rng.randint(1, 3))) for _ in range(d)]
        return {"kind": "transversal", "d": d, "params": {"agents": agents, "adjacency": adj}}
    raise ValueError(f"unknown family {family!r}")


def _profit_rows(rng: random.Random, d: int, n: int) -> list:
    """Rows that rise, fall or zigzag, with negative entries mixed in."""
    rows = []
    for _ in range(d):
        row = [rng.randint(-40, 100) for _ in range(n)]
        kind = rng.randrange(3)
        if kind == 0:
            row.sort()
        elif kind == 1:
            row.sort(reverse=True)
        rows.append(row)
    return rows


def _json_text(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _shifted_instance(rng: random.Random, k: int, family: str, d: int, n: int,
                      bases: bool, rnd: int) -> Instance:
    mat = _matroid(rng, family, d)
    rows = _profit_rows(rng, d, n)
    mname, pname = f"{k:04d}.matroid.json", f"{k:04d}.profits.json"
    argv = ["shifted", "@" + mname, "@" + pname]
    if bases:
        argv.append("--bases")
    return Instance(
        name=f"shifted-mix/{k:04d}",
        shape=f"{_warm_tag(rnd)}{family} d={d} n={n}{' bases' if bases else ''}",
        command="shifted", n=n,
        files={mname: _json_text(mat),
               pname: _json_text({"d": d, "n": n, "rows": rows})},
        argv=argv,
        data={"matroid": mat, "rows": rows, "bases": bases}, round=rnd,
        # Every other basis instance gets a fiber input with one
        # 1 too many, which no n bases can cover.
        fiber_extra_one=bases and (k // 2) % 2 == 1,
    )


def shifted_mix(seed: int) -> list[Instance]:
    rng = _rng("shifted-mix", seed)
    out = []
    for rnd, (lo, hi), n, family, bases in itertools.product(
            range(ROUNDS["shifted-mix"]), SHIFTED_D_BANDS, SHIFTED_NS, FAMILIES, (False, True)):
        out.append(_shifted_instance(rng, len(out), family, rng.randint(lo, hi), n, bases, rnd))
    out.append(_shifted_instance(_rng("shifted-mix", "warm-up"), len(out), "transversal",
                                 40, 4, False, WARM_UP))
    return out


def fiber_rows(inst: Instance, seed: int, columns: list) -> list:
    """Fiber input for the shifted instance ``inst`` from its report's columns.

    Each row of the reported solution is permuted across the columns (the
    permutation comes from the seed), so the row sums are kept and the fiber
    exists.  With ``inst.fiber_extra_one`` one more 1 is put into a row that
    is not full, which pushes the total above n * rank.
    """
    d, n = inst.data["matroid"]["d"], inst.n
    rows = [[0] * n for _ in range(d)]
    for k, col in enumerate(columns):
        for e in col:
            rows[e - 1][k] = 1
    rng = _rng("shifted-mix", seed, "fiber:" + inst.name)
    for r in rows:
        rng.shuffle(r)
    if inst.fiber_extra_one:
        open_rows = [i for i, r in enumerate(rows) if sum(r) < n]
        i = rng.choice(open_rows)
        zeros = [j for j, x in enumerate(rows[i]) if x == 0]
        rows[i][rng.choice(zeros)] = 1
    return rows


def degree_partitions(left: int, right: int, edges) -> tuple[dict, dict]:
    """The two partition matroids (JSON, 1-based) whose common independent
    sets are the matchings: one block of capacity 1 per vertex of a side."""
    return tuple({"kind": "partition", "d": len(edges),
                  "params": {"blocks": [e[side] for e in edges], "capacities": [1] * size}}
                 for side, size in ((0, left), (1, right)))


def bipartite_matching(seed: int) -> list[Instance]:
    """Shifted matchings, solved as ``intersect-value`` of the two degree
    partition matroids.

    This is the value path of ``intersect-value --bipartite`` without its
    witness recovery.  That recovery, ``fiber_bipartite_matching``, has the
    colour-table defect listed in ROADMAP ("Fix first") and fails on about 1
    in 75 of these graphs; a benchmark workload must not fail, so the timed
    calls stop at the value.  The benchmark's tests run the witness call on
    the same graphs as an expected failure until the defect is fixed.
    """
    rng = _rng("bipartite-matching", seed)
    out = []
    for rnd, n, (left, right), (lo, hi) in itertools.product(
            range(ROUNDS["bipartite-matching"]), BIPARTITE_NS, BIPARTITE_SIDES,
            BIPARTITE_EDGE_BANDS):
        e = rng.randint(int(lo * (left + right)), int(hi * (left + right)))
        out.append(_bipartite_instance(rng, len(out), left, right, e, n, rnd))
    # The warm-up graph is half again as dense as the ladder's densest, so
    # its memos (about 65 MB) outgrow those of any ladder draw (at most
    # about 36 MB seen) and set peak_rss_mb; the costliest draw of a seed
    # would otherwise set it, and that swings by half from seed to seed.
    out.append(_bipartite_instance(_rng("bipartite-matching", "warm-up"), len(out),
                                   6, 6, 26, 3, WARM_UP))
    return out


def _bipartite_instance(rng: random.Random, k: int, left: int, right: int, e: int,
                        n: int, rnd: int) -> Instance:
    edges = [[rng.randint(1, left), rng.randint(1, right)] for _ in range(e)]
    rows = _profit_rows(rng, e, n)
    m1, m2 = degree_partitions(left, right, edges)
    names = [f"{k:04d}.{part}.json" for part in ("left", "right", "profits")]
    return Instance(
        name=f"bipartite-matching/{k:04d}",
        shape=f"{_warm_tag(rnd)}{left}x{right} E={e} n={n}",
        command="intersect-value", n=n,
        files=dict(zip(names, map(_json_text, (m1, m2, {"d": e, "n": n, "rows": rows})))),
        argv=["intersect-value"] + ["@" + f for f in names],
        data={"left": left, "right": right, "edges": edges, "rows": rows},
        round=rnd,
    )


GENERATORS = {
    "lexmin-trees": lexmin_trees,
    "shifted-mix": shifted_mix,
    "bipartite-matching": bipartite_matching,
}


def generate(workload: str, seed: int) -> list[Instance]:
    return GENERATORS[workload](seed)


def rounds(instances: list[Instance]) -> list[list[int]]:
    """Instance indices grouped by round, rounds in order; no warm-up."""
    out: list = [[] for _ in range(max(i.round for i in instances) + 1)]
    for index, inst in enumerate(instances):
        if inst.round != WARM_UP:
            out[inst.round].append(index)
    return out


def warm_up(instances: list[Instance]) -> int:
    """Index of the warm-up instance."""
    return next(i for i, inst in enumerate(instances) if inst.round == WARM_UP)


def write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path`` in place, truncating only after the write.

    Rewriting a file with the bytes it already holds then keeps its disk
    blocks; truncating first would free and reallocate them, which costs
    the kernel a time that swings several-fold from run to run.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "w") as fh:
        fh.write(text)
        fh.truncate()


def write(instances: list[Instance], workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for inst in instances:
        for fname, text in inst.files.items():
            write_file(os.path.join(workdir, fname), text)


def input_digest(instances: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.digest().encode())
    return h.hexdigest()
