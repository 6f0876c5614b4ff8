"""Demos run end to end as scripts, against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_composite_certificate_demo():
    # the adversarial sigma = 5000 run must still fail the composite decrease
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "04_composite_certificate.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bad = [line for line in proc.stdout.splitlines() if line.startswith("sigma = 5000")]
    assert len(bad) == 1 and "passes? False" in bad[0], proc.stdout
