"""The benchmark's own tests pass against this checkout.

The benchmark hooks sudogen names (``sudoku.gen_pi_direct``, ``_phi_mask``,
``compose``, ``is_sigma``, ``DisjointStack.try_push`` and ``clear``) and
replays its workloads through them, so renaming or dropping one of them
fails here rather than only when the benchmark is next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "benchmarks", "-p", "test_*.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
