"""Regenerate references.json: checked optima for the benchmark's fixed seeds.

    python3 perfbench/make_references.py

Every instance of every workload is solved once through the CLI and its
report is re-validated by check.py (columns, value, vulnerability, and the
brute-force or min-cost-flow optimum where those apply).  Only optima that
pass are stored, keyed by instance digest; failures are listed and left out.
The stored values are what this version of the solver reports, so they
catch a later change of optimum, not an error already present here.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS

SEEDS = range(11)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import check

    optima: dict = {}
    for seed in SEEDS:
        for workload in WORKLOADS:
            cli, instances, workdir, _ = run.setup(workload, seed)
            try:
                calls: list = []
                run.run_pass(cli, instances, workdir, seed, calls)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            verdicts = run.check_calls(instances, calls, {})
            run.list_failures(workload, seed, instances, calls, verdicts)
            for rec, why in zip(calls, verdicts):
                if rec["kind"] == "main" and why is None:
                    inst = instances[rec["index"]]
                    optima[inst.digest()] = check.optimum_of(inst, rec["stdout"])
            print(f"seed {seed} {workload}: {len(optima)} optima so far", flush=True)
    with open(check.REFERENCES, "w") as fh:
        json.dump({"optima": optima}, fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
