"""The benchmark's output contract: whatever a workload prints, and whether
or not its output checks pass, the last line of its standard output is one
strict-JSON result object; a traced run's object carries every per-layer
metric that BENCHMARK.json declares.

Runs ``perfbench/run.py --seconds 0`` (set-up plus one round) in a fresh
interpreter per workload, as the benchmark is run.
"""

import importlib
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


def _per_layer_names():
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"] for m in json.load(fh)["per_layer"]}


def test_every_trace_hook_resolves():
    # a hook whose function is renamed or moved drops its metrics silently
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for hook in tracing.HOOKS:
        fn = getattr(importlib.import_module(hook.module), hook.attr, None)
        assert callable(fn), f"{hook.module}.{hook.attr}"


# Counts a round must reach: a hooked function that still resolves but is no
# longer called reads 0 without any other sign.  Equilibrium solves five specs
# (K = 1, 1, 1, 2, 3: eight ARE calls) with one consistency solve each; a
# trading round plans six times in rl_loop and once for the recovery.
TRACED_COUNTS = {
    "equilibrium": {"meanfield.sweeps": 5, "riccati.are_calls": 8},
    "trading": {"trading.fh_sweeps": 7},
}


@pytest.mark.parametrize("workload", ["equilibrium", "trading"])
def test_traced_run_reports_every_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["failed"] == 0, proc.stderr[-2000:]
    assert set(result["metrics"]) == _per_layer_names() | {"trace.overhead_s"}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["numerics.rk4_nodes"] > 0
    for name, count in TRACED_COUNTS[workload].items():
        assert metrics[name] == count, name
