"""The benchmark's span tracer patches package functions by name; each of
its targets must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
