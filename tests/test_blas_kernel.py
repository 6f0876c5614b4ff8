"""Output bytes that do not depend on the BLAS kernel.

OPENBLAS_CORETYPE makes a DYNAMIC_ARCH OpenBLAS, as numpy's wheels ship it,
pick the named kernel in the process that it is set for.  A short default
certify and a default simulate must write the same hashed files and exit
with the same code under the Prescott kernel (SSE3, no FMA) as under the
host's default one: the closed loops, the records, the checks and the line
fits make no BLAS or LAPACK call whose bits reach these files.  The README
names the figures that still go through LAPACK: an n = 30 synthesis, and
the e-ISS gain's spectral norm ||P_eps G||.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
RUNS = {"certify": ("certify", "--override", "integrator.horizon=8"), "simulate": ("simulate",)}


def _run(out: Path, args: tuple, coretype: str | None) -> tuple[int, dict]:
    """(exit code, {file name: bytes}) of one CLI run in a process of its own on coretype."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(SRC)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-m", "orbitclf.cli", *args, "--out", str(out)],
                          env=env, capture_output=True, timeout=300)
    return proc.returncode, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path, command):
    default = _run(tmp_path / "default", RUNS[command], None)
    assert default[0] == 0 and default[1], default[0]
    assert _run(tmp_path / "prescott", RUNS[command], "Prescott") == default
