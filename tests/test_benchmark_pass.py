"""The benchmark's untimed correctness pass, run as a test.

``python -m perfbench.check --seeds 1`` runs one round of each workload
in process and checks every answer against the benchmark's oracles; it
exits 1 if any operation other than a known cli fault fails or answers
wrongly.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_correctness_pass_finds_no_unexpected_fault():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run([sys.executable, "-m", "perfbench.check", "--seeds", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
