"""The benchmark's smoke mode, run as a user would.

`perfbench/run.py --smoke` solves the first request of every workload
variant untraced and traced, requires equal output bytes, and checks
every output: spot values are recomputed through the Kronecker Lyapunov
oracle at a relative tolerance of 1e-6, so this guards the production
solve kernel with an independent route.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout.splitlines()
