"""The benchmark's output contract: whatever a workload prints, and whether
or not its output checks pass, the last line of its standard output is one
strict-JSON result object.

Runs ``perfbench/run.py --seconds 0`` (set-up plus one round) in a fresh
interpreter per workload, as the benchmark is run.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


@pytest.mark.parametrize("workload", ["equilibrium", "crowd", "trading"])
def test_last_stdout_line_is_the_result(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    # a failed output check still ends with a result line: correct is false,
    # the check is named on stderr and the exit code is 1
    assert result["correct"] is ("CHECK FAILED" not in proc.stderr)
    assert proc.returncode == (0 if result["correct"] else 1), proc.stderr[-2000:]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    for name in END_TO_END:
        value = result["metrics"][name]["value"]
        assert isinstance(value, float) and math.isfinite(value) and value > 0
