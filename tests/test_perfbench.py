"""The benchmark harness runs its Monte Carlo smoke pass and reports correct.

The traced pass wraps `EventStream.check` and `EventStream.merged` by name,
so this also guards those hooks.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_montecarlo_smoke_run_is_correct():
    cp = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", "montecarlo"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert cp.returncode == 0, cp.stderr[-2000:]
    result = json.loads(cp.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, cp.stdout[-2000:]
