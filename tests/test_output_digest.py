"""tools/output_digest.py: one command that digests every output of a fixed list of runs."""

import hashlib
import os
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
    assert names == ["mech_k1_0/summary.json", "mech_k1_0/trajectory.npy",
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


def test_output_digest_cpus_pins_the_checkout_only(tmp_path):
    # --cpus N runs CHECKOUT's case processes on N CPUs: a stand-in package whose CLI
    # prints the number of CPUs it may run on prints 1, and without --cpus all of them
    package = tmp_path / "src" / "orbitclf"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import os\nprint(len(os.sched_getaffinity(0)))\n")
    everyone = len(os.sched_getaffinity(0))
    for cpus, printed in (["--cpus", "1"], b"1\n"), ([], b"%d\n" % everyone):
        lines = _digest("--case", "synth", "--root", str(tmp_path), *cpus)
        assert "synth/stdout " + hashlib.sha256(printed).hexdigest() in lines, lines
    # a Hopf batch stepped in two processes and in one: the same bytes
    assert _digest("--case", "certify_seed0", "--against", str(ROOT), "--cpus", "1") == []
    for bad in ("0", str(everyone + 1)):
        proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"),
                               "--case", "synth", "--cpus", bad],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2 and "--cpus takes 1 to" in proc.stderr, proc.stderr
