"""Print a digest of every output of a fixed list of runs, to compare two trees byte for byte.

    python tools/output_digest.py [--root CHECKOUT] [--against OTHER] [--case NAME ...]
                                  [--env KEY=VALUE ...] [--cpus N]

Each case runs in a process of its own with the package from
``CHECKOUT/src`` (default: this checkout), CLI runs into a temporary
directory, named by an ``out`` override ahead of the case's own arguments so
that a case may set ``out`` itself.  For each case the tool prints one line
per output file, ``<case>/<file> <sha256>``, then ``<case>/stdout <sha256>``
with the output directory's path replaced by ``<out>``, ``<case>/exit
<code>`` and, when stderr is not empty, ``<case>/error <its last line>``.
Equal lines mean byte-identical files, stdout, exit codes and error texts.  With
``--against OTHER`` it digests both checkouts and prints only the lines
that differ, ``- `` before OTHER's and ``+ `` before CHECKOUT's, and exits 1
on any difference.  ``--root`` and ``--against`` may name a checkout that
lacks this tool, such as a parent commit's.  ``--env KEY=VALUE`` (repeatable)
sets a variable in CHECKOUT's case processes only, so

    python tools/output_digest.py --against . --env OPENBLAS_CORETYPE=Prescott

compares this tree with itself across two BLAS kernels.  ``--cpus N`` pins
CHECKOUT's case processes to the first N CPUs this tool may run on
(``os.sched_setaffinity``, set in each case process before it starts the
case), so

    python tools/output_digest.py --against . --cpus 1

compares a Hopf batch stepped in two processes (``orbitclf.simulator``
splits one when two CPUs are usable) with the same batch stepped in one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _override(*pairs: str) -> tuple[str, ...]:
    return tuple(arg for pair in pairs for arg in ("--override", pair))


BENCH_CERTIFY = _override("k1=1", "k2=2", "disturbance.kind=piecewise_constant_random",
                          "integrator.horizon=8")
MECH = _override("plant.kind=mech", "disturbance.kind=phase_error_driven")
#: a fixed tridiagonal SPD Q for the n = 30 synthesis, the largest certificate.json:
#: 2 on the diagonal, -0.5 beside it, so its eigenvalues lie in (1, 3)
Q_N30 = [[2.0 if i == j else -0.5 if abs(i - j) == 1 else 0.0 for j in range(30)]
         for i in range(30)]

#: case name -> CLI arguments, or the demo script's file name
CASES = {
    "synth": ("synth",),
    "synth_n30": ("synth",) + _override("k1=2", "k2=14", "Q=" + json.dumps(Q_N30)),
    "simulate": ("simulate",),
    # 11 samples: the record's law calls take short columns
    "simulate_short": ("simulate",) + _override("integrator.horizon=0.01"),
    "certify": ("certify",),
    "sweep": ("sweep",),
    # eps rows under their own certificates beside the amplitude rows, damping on
    "sweep_k1_1": ("sweep",) + BENCH_CERTIFY + _override("controller=min_norm_plus_us"),
    **{f"certify_seed{s}": ("certify", "--seed", str(s)) + BENCH_CERTIFY for s in range(4)},
    "mech_long": ("simulate",) + MECH + _override("k1=1", "plant.q1_plus=4",
                                                  "integrator.horizon=3"),
    "mech_k1_0": ("simulate",) + MECH + _override("k1=0", "plant.q1_plus=4",
                                                  "integrator.horizon=3"),
    "mech_default": ("simulate",) + MECH + _override("k1=1"),
    # k1 = 0 on the default phase interval: it stops in the phase domain
    "mech_k1_0_default": ("simulate",) + MECH + _override("k1=0"),
    # a usage error and four config errors, each exit 2
    "usage_no_command": (),
    "certify_short": ("certify",) + _override("integrator.horizon=0.006"),
    "certify_sigma0": ("certify",) + _override("k1=1", "k2=2", "integrator.horizon=8", "sigma=0"),
    "certify_bad_annulus": ("certify",) + _override("plant.annulus_fraction=1.5"),
    "certify_bad_y1_rate": ("certify",) + _override("k1=1", "plant.y1_rate=-1"),
    # values outside their keys' domains, each exit 2 before anything is allocated
    "simulate_bad_eps": ("simulate",) + _override("eps=1e-300", "integrator.horizon=0.05"),
    "simulate_bad_r0": ("simulate",) + _override("plant.r0=1e300", "integrator.horizon=0.05"),
    "simulate_bad_dims": ("simulate",) + _override("k2=1e300", "integrator.horizon=0.05"),
    "simulate_bad_out": ("simulate",) + _override("out=5"),
    "simulate_bad_dwell": ("simulate",) + _override("disturbance.kind=piecewise_constant_random",
                                                    "disturbance.dwell=1e-300"),
    "simulate_bad_coupling": ("simulate",) + _override("plant.coupling=1e300",
                                                       "integrator.horizon=0.05"),
    # sweep grids on which a check row could not fail, each exit 2
    "sweep_one_eps": ("sweep",) + _override("sweep.eps_grid=[0.1]", "integrator.horizon=4"),
    "sweep_no_zero_amplitude": ("sweep",) + _override("sweep.amplitude_grid=[0.01]",
                                                      "integrator.horizon=4"),
    "demo_01": "01_certificate_synthesis.py",
    "demo_02": "02_rapid_exponential_tracking.py",
    "demo_03": "03_disturbance_rejection_bounds.py",
    "demo_04": "04_composite_certificate.py",
    "demo_05": "05_phase_error_mechanism.py",
    "demo_06": "06_epsilon_sweep.py",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(case: str, root: Path = ROOT, env: dict | None = None,
           cpus: int | None = None) -> list[str]:
    """The digest lines of one case, run against the checkout at root with env's variables set,
    on the first `cpus` usable CPUs (default: all of them)."""
    spec = CASES[case]
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        out = Path(tmp) / "out"
        if isinstance(spec, str):
            argv = [sys.executable, str(root / "demos" / spec)]
        else:
            argv = [sys.executable, "-m", "orbitclf.cli", "--override", f"out={out}", *spec]
        pin = None if cpus is None else (  # in the case process, before it starts
            lambda: os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus]))
        proc = subprocess.run(argv, capture_output=True, cwd=tmp, env=env, preexec_fn=pin)
        lines = [f"{case}/{path.relative_to(out).as_posix()} {_sha(path.read_bytes())}"
                 for path in sorted(out.rglob("*")) if path.is_file()]
        stdout = proc.stdout.replace(str(out).encode(), b"<out>")
        lines += [f"{case}/stdout {_sha(stdout)}", f"{case}/exit {proc.returncode}"]
        stderr = proc.stderr.decode(errors="replace").replace(str(out), "<out>").splitlines()
        if stderr:
            lines.append(f"{case}/error {stderr[-1]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ and demos/ run")
    parser.add_argument("--against", type=Path, default=None,
                        help="checkout to compare with; print only the lines that differ")
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="run only this case; may repeat (default: every case)")
    parser.add_argument("--env", action="append", default=[], metavar="KEY=VALUE",
                        help="set this variable in CHECKOUT's case processes; may repeat")
    parser.add_argument("--cpus", type=int, default=None, metavar="N",
                        help="run CHECKOUT's case processes on the first N usable CPUs")
    args = parser.parse_args(argv)
    if args.cpus is not None and not 1 <= args.cpus <= len(os.sched_getaffinity(0)):
        parser.error(f"--cpus takes 1 to {len(os.sched_getaffinity(0))} CPUs, got {args.cpus}")
    env = dict(pair.split("=", 1) for pair in args.env if "=" in pair[1:])
    if len(env) != len(args.env):
        parser.error(f"--env takes distinct KEY=VALUE pairs, got {args.env}")
    differ = False
    for case in args.case or CASES:
        lines = digest(case, args.root.resolve(), env, args.cpus)
        if args.against is None:
            print("\n".join(lines), flush=True)
            continue
        other = digest(case, args.against.resolve())
        diff = ([f"- {line}" for line in other if line not in lines]
                + [f"+ {line}" for line in lines if line not in other])
        if diff:
            differ = True
            print("\n".join(diff), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
