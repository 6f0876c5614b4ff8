"""The benchmark's workloads: the operations of one pass and their output gates.

Each workload is a closed loop with one caller: a pass runs its operations
one after another through ``orbitclf.cli.main``, each starting when the
previous one has returned.  The operations are built from the benchmark
seed alone; ``resolve`` is all a fresh interpreter needs to reach a
resolved configuration, which is what ``setup_s`` times.

Why each workload exists, which layers it loads and which it bypasses is
in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Both Riccati residuals must be at or below this (absolute, Frobenius).
RESIDUAL_CEILING = 1e-10
#: Relative tolerance on scalars that come out of an integration.
TRAJECTORY_RTOL = 1e-6
#: Relative tolerance on scalars that come out of a synthesis alone.
SYNTHESIS_RTOL = 1e-9

#: report.json flags that must all be true for a certify run to pass.
MANDATORY_FLAGS = ("min_norm_bound_ok", "sigma_condition_ok", "zs_ok", "ag_ok",
                   "eta_gain_ok", "iss_ok", "vc_decrease_ok", "eiss_form_ok",
                   "sandwich_ok")


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``argv`` excludes ``--out``, which the runner adds."""

    label: str
    argv: tuple[str, ...]
    #: False only for an operation that fails today because of a known defect
    expect_ok: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: number of distinct inputs; the seed picks one as ``seed % instances``
    instances: int
    build_ops: Callable[[int], list[Op]]
    #: (op, out_dir) -> key scalars compared against reference.json
    scalars: Callable[[Op, Path], dict]
    #: (op, out_dir) -> failures of the checks that need no reference
    intrinsic: Callable[[Op, Path], list[str]]
    #: the hostspeed.KERNELS entry whose slowdown follows this workload's
    speed_kernel: str


def _payload(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["payload"]


def _override(*pairs: str) -> tuple[str, ...]:
    argv: list[str] = []
    for pair in pairs:
        argv += ["--override", pair]
    return tuple(argv)


def _residual_failures(payload: dict) -> list[str]:
    return [f"{key} = {payload[key]:.3e} > {RESIDUAL_CEILING:g}"
            for key in ("care_residual", "scaled_residual")
            if not payload[key] <= RESIDUAL_CEILING]


# ---------------------------------------------------------------------------
# certify_hopf: one full certify battery per pass

CERTIFY_HORIZON = 8.0  # at 6 the asymptotic-gain fit fails for some seeds: the tail is not settled


def _certify_ops(instance: int) -> list[Op]:
    return [Op("certify", ("certify", "--seed", str(instance)) + _override(
        "k1=1", "k2=2", "disturbance.kind=piecewise_constant_random",
        f"integrator.horizon={CERTIFY_HORIZON:g}"))]


def _certify_scalars(op: Op, out: Path) -> dict:
    rep = _payload(out / "report.json")
    keys = ("sigma", "eta_bound_min_norm", "eta_bound_damped", "eta_ultimate_measured",
            "ag_gain_estimate", "eta_gain_estimate")
    return {k: rep[k] for k in keys}


def _certify_intrinsic(op: Op, out: Path) -> list[str]:
    rep = _payload(out / "report.json")
    failures = [f"{flag} is not true" for flag in MANDATORY_FLAGS if rep[flag] is not True]
    if rep["damped_bound_ok"] is False:
        failures.append("damped_bound_ok is false")
    if not rep["e_iss_rate_measured"] > 0.0:
        failures.append("e_iss_rate_measured is not positive")
    return failures + _residual_failures(rep["extras"])


# ---------------------------------------------------------------------------
# synth_care: many small syntheses and a few n = 30 ones

# (k1, k2) per case: ten n = 2, five n = 9, three n = 30
SYNTH_DIMS = [(0, 1)] * 10 + [(1, 4)] * 5 + [(2, 14)] * 3


def spd_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """A seeded SPD Q with a fixed spectrum in [0.5, 2] and a random eigenbasis.

    Fixing the spectrum keeps the Newton-Kleinman iteration count, and so
    the cost of a case, the same from seed to seed.
    """
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q = (R * np.geomspace(0.5, 2.0, n)) @ R.T
    return 0.5 * (Q + Q.T)


def _synth_ops(instance: int) -> list[Op]:
    rng = np.random.default_rng(instance)
    ops = []
    for i, (k1, k2) in enumerate(SYNTH_DIMS):
        Q = spd_matrix(rng, k1 + 2 * k2)
        ops.append(Op(f"synth{i:02d}_n{k1 + 2 * k2}",
                      ("synth",) + _override(f"k1={k1}", f"k2={k2}",
                                             "Q=" + json.dumps(Q.tolist()))))
    return ops


def _synth_scalars(op: Op, out: Path) -> dict:
    cert = _payload(out / "certificate.json")
    return {k: cert[k] for k in ("gamma", "c1", "c2")}


def _synth_intrinsic(op: Op, out: Path) -> list[str]:
    """Residual ceilings, plus an oracle that shares no code with orbitclf.riccati."""
    cert = _payload(out / "certificate.json")
    failures = _residual_failures(cert)
    P, Q = np.asarray(cert["P"]), np.asarray(cert["Q"])
    k1, k2 = cert["k1"], cert["k2"]
    n = k1 + 2 * k2
    F = np.zeros((n, n))
    F[k1:k1 + k2, k1 + k2:] = np.eye(k2)
    G = np.zeros((n, k1 + k2))
    G[:k1, :k1] = np.eye(k1)
    G[k1 + k2:, k1:] = np.eye(k2)
    residual = np.linalg.norm(F.T @ P + P @ F - P @ G @ G.T @ P + Q)
    if not residual <= RESIDUAL_CEILING:
        failures.append(f"recomputed CARE residual {residual:.3e}")
    w_p = np.linalg.eigvalsh(P)
    oracle = {"c1": w_p[0], "c2": w_p[-1], "gamma": np.linalg.eigvalsh(Q)[0] / w_p[-1]}
    for key, want in oracle.items():
        if not math.isclose(cert[key], want, rel_tol=SYNTHESIS_RTOL):
            failures.append(f"{key} = {cert[key]!r}, eigvalsh gives {want!r}")
    return failures


# ---------------------------------------------------------------------------
# simulate_mech: one long in-domain run and the README's default run

MECH_HORIZON = 3.0
MECH_Q1_PLUS = 4.0  # widens the phase interval so tau stays in [0, 1] for MECH_HORIZON
MECH_BASE = _override("k1=1", "plant.kind=mech", "disturbance.kind=phase_error_driven")


def _mech_ops(instance: int) -> list[Op]:
    return [
        Op("mech_long", ("simulate",) + MECH_BASE + _override(
            f"plant.q1_plus={MECH_Q1_PLUS:g}", f"integrator.horizon={MECH_HORIZON:g}")),
        # the README's default mech run; it leaves the phase domain at t ~ 0.9 s
        # (ROADMAP open item 5) and stays here so that error_rate shows it
        Op("mech_default", ("simulate",) + MECH_BASE, expect_ok=False),
    ]


def _mech_scalars(op: Op, out: Path) -> dict:
    if op.label != "mech_long":
        return {}
    summary = _payload(out / "summary.json")
    return {"eta_ultimate": summary["eta_ultimate"], "samples": summary["samples"]}


def _mech_intrinsic(op: Op, out: Path) -> list[str]:
    if op.label != "mech_long":
        return []
    summary = _payload(out / "summary.json")
    want = int(round(MECH_HORIZON / summary["dt"])) + 1
    failures = []
    if summary["samples"] != want:
        failures.append(f"{summary['samples']} samples, expected {want}")
    if not all(math.isfinite(summary[k]) for k in ("eta_ultimate", "max_v_eps", "max_mu_norm")):
        failures.append("non-finite summary value")
    return failures


WORKLOADS = {
    w.name: w for w in (
        Workload("certify_hopf", "the integrate-and-record path with a costly disturbance",
                 32, _certify_ops, _certify_scalars, _certify_intrinsic, "numpy"),
        Workload("synth_care", "the riccati kernels alone, mostly small n with a few n = 30",
                 32, _synth_ops, _synth_scalars, _synth_intrinsic, "python"),
        # phase_error_driven is deterministic, so the seed selects nothing here
        Workload("simulate_mech", "a single mech run with a heavy recording pass",
                 1, _mech_ops, _mech_scalars, _mech_intrinsic, "numpy"),
    )
}


def instance_of(workload: Workload, seed: int) -> int:
    return seed % workload.instances


def resolve(name: str, seed: int) -> list[dict]:
    """Build the workload's operations and resolve each one's configuration."""
    from orbitclf import cli

    workload = WORKLOADS[name]
    configs = []
    for op in workload.build_ops(instance_of(workload, seed)):
        args = cli.make_parser().parse_args(list(op.argv))
        configs.append(cli.load_config(args.config, args.override, args.seed, args.out))
    return configs


def gate(workload: Workload, op: Op, outcome: dict, out: Path,
         reference: dict | None) -> list[str]:
    """Every check on one operation's outputs; returns the failures.

    ``reference`` maps op labels to the exit code, error message and key
    scalars captured by capture_reference.py.
    """
    want = None if reference is None else reference.get(op.label)
    if want is None:
        return ["no reference for this operation"]
    failures = []
    if (outcome["exit"], outcome["message"]) != (want["exit"], want["message"]):
        failures.append(f"outcome exit={outcome['exit']!r} {outcome['message']!r}, "
                        f"reference exit={want['exit']!r} {want['message']!r}")
    if outcome["exit"] == 0:
        failures += workload.intrinsic(op, out)
        failures += compare_scalars(workload.scalars(op, out), want["scalars"])
    return failures


def compare_scalars(got: dict, want: dict) -> list[str]:
    """Differences between measured key scalars and their reference values."""
    failures = []
    for key, ref in want.items():
        value = got.get(key)
        if isinstance(ref, int) or ref is None:
            ok = value == ref
        else:
            rtol = SYNTHESIS_RTOL if key in ("gamma", "c1", "c2") else TRAJECTORY_RTOL
            ok = value is not None and math.isclose(value, ref, rel_tol=rtol)
        if not ok:
            failures.append(f"{key} = {value!r}, reference {ref!r}")
    return failures


def hash_outputs(out: Path) -> dict[str, str]:
    """sha256 of every file an operation wrote, keyed by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}
