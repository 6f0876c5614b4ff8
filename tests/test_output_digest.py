"""tools/output_digest.py: one command that digests every output of a fixed list of runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digest(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_output_digest_repeats_on_a_fast_case():
    # a mech run twice, each into its own temporary directory: the same lines,
    # one per output file, then stdout (its output path normalized) and the exit
    first = _digest("--case", "mech_k1_0")
    assert first == _digest("--case", "mech_k1_0", "--root", str(ROOT))
    names = [line.split()[0] for line in first]
    assert names == ["mech_k1_0/summary.json", "mech_k1_0/trajectory.csv",
                     "mech_k1_0/stdout", "mech_k1_0/exit"], first
    assert first[-1] == "mech_k1_0/exit 0"
    assert all(len(line.split()[1]) == 64 for line in first[:-1])


def test_output_digest_against_prints_only_the_differences(tmp_path):
    # both trees digested, only differing lines printed: none, exit 0
    assert _digest("--case", "mech_k1_0", "--against", str(ROOT)) == []
    # against a tree without the package every line differs, and the exit is 1
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"),
                           "--case", "mech_k1_0", "--against", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert "- mech_k1_0/exit 1" in lines and "+ mech_k1_0/exit 0" in lines, lines


def test_output_digest_env_applies_to_the_checkout_only():
    # --env sets its variables in CHECKOUT's case processes only: a Python home
    # that does not exist stops CHECKOUT's interpreter, while OTHER (the same
    # tree) runs as usual, so the exit codes differ
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"),
                           "--case", "mech_k1_0", "--against", str(ROOT),
                           "--env", "PYTHONHOME=/nonexistent", "--env", "LC_ALL=C"],
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert "- mech_k1_0/exit 0" in lines and "+ mech_k1_0/exit 0" not in lines, lines
    # under another BLAS kernel the mech run writes the same bytes
    assert _digest("--case", "mech_k1_0", "--against", str(ROOT),
                   "--env", "OPENBLAS_CORETYPE=Prescott") == []
    for bad in ("OPENBLAS_CORETYPE", "=Prescott"):
        proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"),
                               "--case", "mech_k1_0", "--env", bad],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2 and "KEY=VALUE" in proc.stderr, proc.stderr
