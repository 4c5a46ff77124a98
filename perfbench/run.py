"""Closed-loop benchmark of the matroid-shift command line, in process.

    python3 perfbench/run.py --workload lexmin-trees --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing is installed.  Set-up imports the package,
generates the workload from ``--seed`` and writes the input files into a
scratch directory of the checkout (removed on exit).  After one untimed
warm-up call, one caller calls ``matroid_shift.cli.main(argv)`` for each
instance, capturing stdout, in whole rounds of the workload (see
workloads.py), each in a seeded random order, until ``--seconds`` of loop
time have passed.  Each call is timed by the benchmark itself; ``--verify``
and ``--recheck`` are never passed.
Set-up is timed ``SETUP_SAMPLES`` times, spread evenly over the loop and
outside its clock, so its median sees the same machine as the calls.  The
first set-up creates the input files; the later ones write the same bytes
into the same files again.  Creating (and at exit deleting) hundreds of
small files costs the kernel a time that swings several-fold from run to
run, which would bury the set-up work a change can add.
Every call and set-up time is scaled to a reference host speed (see
``reference_seconds``), so the reported times follow the program rather
than a shared host whose speed swings by a quarter from minute to minute.
After the loop every report is checked (see check.py) and failures are
listed on stderr with their inputs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each round
untraced and then traced, and prints per-layer metrics (per round) and the
tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import check
import workloads
from tracer import ENGINE_METRICS, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 16
WORKDIR_PREFIX = ".perfbench-work-"
# The reference loop's time at the reference host speed.  On a 2-vCPU
# Xeon KVM guest (2.1 GHz, Python 3.11) it takes 0.9-1.5 ms.
REFERENCE_S = 1.0e-3
_REFERENCE_TABLE = {k: k for k in range(1024)}


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop of table lookups and integer
    arithmetic: the host's current speed.  It allocates nothing the garbage
    collector tracks, so garbage the program left behind cannot slow it."""
    table, acc = _REFERENCE_TABLE, 0
    t0 = time.perf_counter()
    for i in range(8000):
        acc += table[(i * 7919) & 1023] % 7
    return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at the reference host speed, from the reference loop's
    times just before and just after the timed work."""
    return seconds * 2 * REFERENCE_S / (ref_before + ref_after)


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _package_modules() -> list:
    return [m for m in sys.modules if m == "matroid_shift" or m.startswith("matroid_shift.")]


def _import_package():
    """Import matroid_shift.cli from this checkout's src/, freshly."""
    for name in _package_modules():
        del sys.modules[name]
    cli = importlib.import_module("matroid_shift.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"matroid_shift was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: str | None = None):
    """One set-up: import, generate, write (into a new scratch directory
    unless one is given).  Returns (cli, instances, workdir, seconds)."""
    t0 = time.perf_counter()
    cli = _import_package()
    instances = workloads.generate(workload, seed)
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix=WORKDIR_PREFIX, dir=ROOT)
    workloads.write(instances, workdir)
    return cli, instances, workdir, time.perf_counter() - t0


def setup_sample(workload: str, seed: int, digest: str, workdir: str) -> float:
    """Time one more set-up into ``workdir``, then put back the modules the
    loop is calling."""
    saved = {name: sys.modules.pop(name) for name in _package_modules()}
    try:
        _, instances, _, seconds = setup(workload, seed, workdir)
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    if workloads.input_digest(instances) != digest:
        raise RuntimeError(f"set-up of {workload} seed {seed} is not deterministic")
    return seconds


def call_cli(cli, argv: list, tracer=None, call_id: int = -1) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    if tracer is not None:
        tracer.begin_call(call_id)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception as exc:  # a crash fails this call, not the benchmark
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_call()
    return {"code": code, "error": error, "seconds": t1 - t0,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_instance(cli, instances, index: int, workdir: str, seed: int, calls: list,
                 tracer=None) -> None:
    """Call the CLI on one instance, and for ``shifted`` on its fiber follow-up."""
    inst = instances[index]
    rec = call_cli(cli, inst.resolved_argv(workdir), tracer, len(calls))
    rec.update(index=index, kind="main")
    calls.append(rec)
    if inst.command != "shifted":
        return
    try:
        columns = json.loads(rec["stdout"])["columns"] if rec["code"] == 0 else None
    except (json.JSONDecodeError, KeyError, TypeError):
        columns = None
    if columns is None:
        return  # the shifted call already failed; no fiber input to build
    rows = workloads.fiber_rows(inst, seed, columns)
    path = os.path.join(workdir, inst.name.rsplit("/", 1)[1] + ".matrix.json")
    workloads.write_file(path, json.dumps({"d": len(rows), "n": inst.n, "rows": rows}))
    frec = call_cli(cli, ["fiber", inst.resolved_argv(workdir)[1], path], tracer, len(calls))
    frec.update(index=index, kind="fiber", fiber_rows=rows)
    calls.append(frec)


def run_pass(cli, instances, workdir: str, seed: int, calls: list, tracer=None,
             indices=None) -> float:
    """One pass over the instances (or those in ``indices``) in list order;
    returns wall seconds."""
    t0 = time.perf_counter()
    for index in range(len(instances)) if indices is None else indices:
        run_instance(cli, instances, index, workdir, seed, calls, tracer)
    return time.perf_counter() - t0


def _canonical(stdout: str) -> str:
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    if isinstance(rep, dict):
        rep.pop("wall_time_ms", None)
    return json.dumps(rep, sort_keys=True)


def check_calls(instances, calls: list, refs: dict) -> list:
    """Verdict per call (None = correct); identical reports are checked once."""
    seen: dict = {}
    verdicts = []
    for rec in calls:
        key = (rec["index"], rec["kind"], rec["code"], rec["error"], _canonical(rec["stdout"]))
        if key not in seen:
            seen[key] = check.check_call(instances[rec["index"]], rec, refs)
        verdicts.append(seen[key])
    return verdicts


def list_failures(workload: str, seed: int, instances, calls, verdicts) -> None:
    shown = set()
    for rec, why in zip(calls, verdicts):
        if why is None or (rec["index"], rec["kind"]) in shown:
            continue
        shown.add((rec["index"], rec["kind"]))
        inst = instances[rec["index"]]
        print(f"FAILED {inst.name} [{rec['kind']}] ({inst.shape}) "
              f"workload={workload} seed={seed}: {why}", file=sys.stderr)
        for fname, text in inst.files.items():
            print(f"  {fname}: {text.strip()}", file=sys.stderr)
        if rec["kind"] == "fiber":
            print(f"  fiber matrix rows: {rec['fiber_rows']}", file=sys.stderr)


def _percentile(ms: list, q: int):
    """q-th percentile; None without samples, the sample itself with one."""
    if len(ms) < 2:
        return ms[0] if ms else None
    return statistics.quantiles(ms, n=100, method="inclusive")[q - 1]


def _table(rows: list) -> None:
    print(f"{'metric':40s} {'value':>14s} {'unit':8s} samples")
    for name, value, unit, samples in rows:
        shown = "n/a" if value is None else f"{value:14.6g}"
        print(f"{name:40s} {shown:>14s} {unit:8s} {samples}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "matroid_shift" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'matroid_shift'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = None
    try:
        ref = reference_seconds()
        cli, instances, workdir, first_setup = setup(args.workload, args.seed)
        first_setup = scaled(first_setup, ref, reference_seconds())
        print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances, "
              f"input digest {workloads.input_digest(instances)[:16]}")
        calls: list = []
        if args.trace:
            metrics = traced_run(cli, instances, workdir, args, calls)
        else:
            loop = timed_loop(cli, instances, workdir, args, calls, first_setup)
        verdicts = check_calls(instances, calls, check.load_references())
        list_failures(args.workload, args.seed, instances, calls, verdicts)
        if not args.trace:
            units = metric_units("end_to_end")
            metrics = {name: {"value": value, "unit": unit}
                       for name, value, unit, _ in end_to_end(loop, calls, verdicts)
                       if name in units}
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    # A call that raised is a failed operation; a report that exits as
    # expected but states a wrong answer makes the run incorrect.
    correct = all(v is None or rec["error"] is not None for rec, v in zip(calls, verdicts))
    print(json.dumps({"correct": correct, "attempted": len(calls),
                      "failed": sum(v is not None for v in verdicts), "metrics": metrics}))
    return 0


def timed_loop(cli, instances, workdir: str, args, calls: list, first_setup: float) -> dict:
    """Untraced calls in whole rounds (see workloads.py), round 0 first,
    until --seconds of loop time have passed.

    Each round visits its instances in a seeded random order.  The
    warm-up instance is solved first, untimed; its calls carry no
    "scaled" time.  After the first set-up (``first_setup``, already scaled),
    SETUP_SAMPLES - 1 more are timed between calls at even steps of loop
    time, off the loop's clock.  The reference loop runs between every two
    timed steps; each step is scaled by the reference times on both sides.
    """
    order_rng = random.Random(f"order:{args.workload}:{args.seed}")
    digest = workloads.input_digest(instances)
    step = args.seconds / (SETUP_SAMPLES - 1)
    run_instance(cli, instances, workloads.warm_up(instances), workdir, args.seed, calls)
    ref = reference_seconds()
    setup_times = [first_setup]
    wall = scaled_wall = 0.0
    rounds = workloads.rounds(instances)
    done = 0

    def timed_setup() -> None:
        nonlocal ref
        seconds = setup_sample(args.workload, args.seed, digest, workdir)
        ref_after = reference_seconds()
        setup_times.append(scaled(seconds, ref, ref_after))
        ref = ref_after

    while done == 0 or wall < args.seconds:
        order = list(rounds[done % len(rounds)])
        order_rng.shuffle(order)
        for index in order:
            while len(setup_times) < SETUP_SAMPLES and wall >= (len(setup_times) - 1) * step:
                timed_setup()
            first = len(calls)
            t0 = time.perf_counter()
            run_instance(cli, instances, index, workdir, args.seed, calls)
            seconds = time.perf_counter() - t0
            ref_after = reference_seconds()
            factor = scaled(1.0, ref, ref_after)
            for rec in calls[first:]:
                rec["scaled"] = rec["seconds"] * factor
            wall += seconds
            scaled_wall += seconds * factor
            ref = ref_after
        done += 1
    # Read before the remaining set-up samples and before the checker
    # imports networkx.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_times) < SETUP_SAMPLES:
        timed_setup()
    print(f"{len(calls)} calls ({done} rounds), loop wall {wall:.3f} s, "
          f"{scaled_wall:.3f} s at the reference speed")
    return {"wall": wall, "scaled_wall": scaled_wall, "peak_rss_mb": peak_rss_mb,
            "setup_times": setup_times}


def end_to_end(loop: dict, calls: list, verdicts: list) -> list:
    """Rows (name, value, unit, samples) of the end-to-end metrics, printed as a table."""
    # Every timed call is a latency sample, failed ones too; the warm-up's
    # calls are not timed.
    timed = [(rec, v) for rec, v in zip(calls, verdicts) if "scaled" in rec]
    ok = [v is None for _, v in timed]
    ms = [rec["scaled"] * 1000.0 for rec, _ in timed]
    wall_ms = [rec["seconds"] * 1000.0 for rec, _ in timed]
    rows = [
        ("solved_per_s", sum(ok) / loop["scaled_wall"], "1/s", len(ok)),
        ("latency_ms.p50", _percentile(ms, 50), "ms", len(ms)),
        ("latency_ms.p90", _percentile(ms, 90), "ms", len(ms)),
        ("fail_frac", sum(v is not None for v in verdicts) / len(verdicts), "fraction",
         len(verdicts)),
        ("peak_rss_mb", loop["peak_rss_mb"], "MB", 1),
        ("setup_s", statistics.median(loop["setup_times"]), "s", len(loop["setup_times"])),
        # Unscaled wall-clock figures, for reading only.
        ("wall_clock.solved_per_s", sum(ok) / loop["wall"], "1/s", len(ok)),
        ("wall_clock.latency_ms.p50", _percentile(wall_ms, 50), "ms", len(ms)),
        ("wall_clock.latency_ms.p90", _percentile(wall_ms, 90), "ms", len(ms)),
    ]
    _table(rows)
    if len(ms) < 100:
        print(f"note: only {len(ms)} latency samples; fewer than ten lie beyond p90",
              file=sys.stderr)
    return rows


def traced_run(cli, instances, workdir: str, args, calls: list) -> dict:
    """After the untraced warm-up, each round runs untraced, then traced,
    round 0 first, until --seconds; per-layer metrics are per traced round."""
    tracer = Tracer()
    plain_wall = traced_wall = 0.0
    rounds = workloads.rounds(instances)
    done = 0
    run_instance(cli, instances, workloads.warm_up(instances), workdir, args.seed, calls)
    while done == 0 or plain_wall + traced_wall < args.seconds:
        indices = rounds[done % len(rounds)]
        plain_wall += run_pass(cli, instances, workdir, args.seed, calls, indices=indices)
        tracer.install()
        try:
            traced_wall += run_pass(cli, instances, workdir, args.seed, calls, tracer, indices)
        finally:
            tracer.uninstall()
        done += 1
    metrics = tracer.summary(done)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    print(f"{len(calls)} calls in {done} untraced + {done} traced rounds; "
          f"untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s")
    units = metric_units("per_layer")
    _table([(name, value, units[name], f"{done} (engine)" if name in ENGINE_METRICS else done)
            for name, value in metrics.items()])
    total_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    for layer in LAYERS:
        share = metrics[f"{layer}.self_s"] / total_self if total_self else 0.0
        print(f"self-time share {layer:14s} {share:7.1%}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
