"""Run Tier-1 against single-line mutants that loosen a certify or sweep check.

    python tools/mutants.py

Each mutant replaces one line of ``src/orbitclf`` with a looser version of
the same check: a tolerance raised, a sample skipped, a bound coefficient
scaled.  The tool copies this checkout (without ``.git`` and caches) into a
temporary directory, runs Tier-1 there once unmutated, which must pass, and
then once per mutant with that mutant applied alone.  A mutant whose run
passes is a survivor: no test can tell the loosened check from the real one.
The tool prints one line per mutant, ``killed`` with the first test that
failed, or ``SURVIVED``.  It exits 1 if any survived, 2 if the unmutated run
fails, a mutant's line is not found exactly once or a run ends other than by
passing or failing tests, else 0.  Each run stops at its first failing test;
a survivor's run is a full Tier-1 run (about 45 s on a 2-vCPU machine).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (name, file under src/orbitclf, the line as it stands, the line loosened)
MUTANTS = [
    ("RATE_RTOL 1e-12 -> 1e-3", "certify.py",
     "RATE_RTOL = 1e-12", "RATE_RTOL = 1e-3"),
    ("SANDWICH_RTOL 1e-9 -> 1e-2", "certify.py",
     "SANDWICH_RTOL = 1e-9", "SANDWICH_RTOL = 1e-2"),
    ("V_c decrease tested on no sample", "certify.py",
     "vc_ok = np.all((vdot_c <= _rounding(sigma_vdot_z, vdot_eps))[region])",
     "vc_ok = np.all((vdot_c <= _rounding(sigma_vdot_z, vdot_eps))[region & False])"),
    ("sandwich & -> |", "certify.py",
     "inside = (lower * s - slack <= vc) & (vc <= upper * s + slack)",
     "inside = (lower * s - slack <= vc) | (vc <= upper * s + slack)"),
    ("e-ISS envelope delta1 from the median ratio", "certify.py",
     "delta1 = float(np.exp(logc) * np.max(ratio) / d0)",
     "delta1 = float(np.exp(logc) * np.median(ratio) / d0)"),
    ("AG envelope skips the first positive amplitude", "certify.py",
     "ok = ok and bool(np.all(np.abs(ratio - 1.0) <= AG_ENVELOPE_TOL))",
     "ok = ok and bool(np.all(np.abs(ratio[1:] - 1.0) <= AG_ENVELOPE_TOL))"),
    ("AG_INTERCEPT_TOL x10", "certify.py",
     "AG_INTERCEPT_TOL = 1e-4", "AG_INTERCEPT_TOL = 1e-3"),
    ("ZS verdict at 10 ZS_DECAY", "certify.py",
     "zs_ok = bool(env[-1] <= ZS_DECAY * d0)", "zs_ok = bool(env[-1] <= 10 * ZS_DECAY * d0)"),
    ("ZS rate fit floor x10", "certify.py",
     "floor = max(ZS_DECAY * d0, 1e-14)", "floor = max(10 * ZS_DECAY * d0, 1e-14)"),
    ("strict e-ISS d-gain term x1.5", "certify.py",
     "gain = 2.0 * eta_n * float(np.linalg.norm(cert.P_eps @ loop.plant.dyn.G, 2)) * d_inf",
     "gain = 3.0 * eta_n * float(np.linalg.norm(cert.P_eps @ loop.plant.dyn.G, 2)) * d_inf"),
    ("eta-gain bound coefficient x10", "cli.py",
     "eta_gain <= cert_mod.min_norm_ultimate_bound(cert, 1.0), eta_gain),",
     "eta_gain <= cert_mod.min_norm_ultimate_bound(cert, 10.0), eta_gain),"),
    ("sweep amplitude-0 row at 1e-3", "cli.py",
     "all(row[1] <= 1e-6 for row in amp_rows if row[0] == 0.0)),",
     "all(row[1] <= 1e-3 for row in amp_rows if row[0] == 0.0)),"),
]


def tier1(tree: Path) -> tuple[int, str]:
    """Tier-1 in the tree, stopping at the first failure: pytest's exit code (0: all
    passed) and the id of the test that failed, or ""."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"],
                         cwd=tree, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    return run.returncode, (failed or [""])[0]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="orbitclf-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        texts = {}
        for name, file, line, _ in MUTANTS:
            text = texts.setdefault(file, (tree / "src" / "orbitclf" / file).read_text())
            if text.count(line) != 1:
                print(f"mutant {name!r}: its line is not found exactly once in {file}")
                return 2
        if tier1(tree)[0] != 0:
            print("Tier-1 fails on the unmutated copy")
            return 2
        survivors = []
        for name, file, line, loosened in MUTANTS:
            path = tree / "src" / "orbitclf" / file
            path.write_text(texts[file].replace(line, loosened))
            try:
                code, test = tier1(tree)
            finally:
                path.write_text(texts[file])
            if code not in (0, 1):  # pytest's codes for "all passed" and "a test failed"
                print(f"mutant {name!r}: pytest exited {code}")
                return 2
            if code == 0:
                survivors.append(name)
            print(f"SURVIVED  {name}" if code == 0 else f"killed    {name}  by {test}", flush=True)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survived" + "".join(
        f"\n  {name}" for name in survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
