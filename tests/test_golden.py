"""Golden CLI reports: each case in tests/golden must print the same report.

A case file holds the argv (``@name`` stands for an input file), the input
files, the exit code and the report printed on stdout, one list entry per
line.  The report is compared byte for byte, apart from the value of
``wall_time_ms``.  After a deliberate change to the reports, rewrite the
expected exit codes and reports with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from matroid_shift.cli import main

GOLDEN = Path(__file__).parent / "golden"
WALL_TIME = re.compile(r'("wall_time_ms": )[^,\n}]+')


def run_case(case: dict, workdir: Path) -> tuple[int, list[str]]:
    for name, content in case["files"].items():
        text = content if isinstance(content, str) else json.dumps(content)
        (workdir / name).write_text(text)
    argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in case["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, WALL_TIME.sub(r"\1null", out.getvalue()).splitlines()


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden_report(path, tmp_path):
    case = json.loads(path.read_text())
    code, stdout = run_case(case, tmp_path)
    assert (code, stdout) == (case["exit"], case["stdout"])


def record() -> None:
    for path in sorted(GOLDEN.glob("*.json")):
        case = json.loads(path.read_text())
        with tempfile.TemporaryDirectory() as tmp:
            case["exit"], case["stdout"] = run_case(case, Path(tmp))
        path.write_text(json.dumps(case, indent=1) + "\n")


if __name__ == "__main__":
    record()
