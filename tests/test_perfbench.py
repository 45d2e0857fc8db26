"""The benchmark harness runs its smoke passes and reports correct.

The traced passes wrap functions by name: `montecarlo` guards the
`EventStream.check` and `EventStream.merged` hooks, `figures` is the
only workload whose traced pass enters `cli.grid_map`, and `spectral`
runs the `g2_general`, `g2_three_level` and `decompose` hooks.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["montecarlo", "figures", "spectral"])
def test_smoke_run_is_correct(workload):
    cp = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", workload],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert cp.returncode == 0, cp.stderr[-2000:]
    result = json.loads(cp.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, cp.stdout[-2000:]
