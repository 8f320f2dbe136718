"""scripts/output_digest.py: one SHA-256 per output family."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import hardedge

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
FAMILIES = ["trajectories", "gap_hardedge", "gap_mb", "verify", "sigma", "table1",
            "ode", "residuals"]


def test_output_digest_prints_one_line_per_family():
    src = str(Path(hardedge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(SCRIPT)], env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == FAMILIES
    assert all(re.fullmatch(r"\w+ [0-9a-f]{64}", line) for line in lines)
    assert elapsed <= 3.0
