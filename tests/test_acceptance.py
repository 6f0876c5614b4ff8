"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

import orbitclf as oc
from orbitclf import cli
from orbitclf.plants import pzd_distance

from oracles import exact_zero_solution, vz_converse_lyapunov, zero_field

SQRT3 = np.sqrt(3.0)

DIMS_GRID = [oc.OutputDims(k1, k2) for k1 in range(4) for k2 in range(4) if k1 + k2 >= 1]


def _report(num: int, label: str, ok: bool) -> bool:
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def _seeded_pairs(n_pairs: int = 200, seed: int = 20260810):
    """n_pairs (dims, SPD Q) cases; the first 15 enumerate the dims grid."""
    rng = np.random.default_rng(seed)
    for i in range(n_pairs):
        dims = DIMS_GRID[i % len(DIMS_GRID)]
        n = dims.n_eta
        R = rng.normal(size=(n, n)) / np.sqrt(n)
        yield dims, R.T @ R + 0.1 * np.eye(n)


def test_criterion_1_care_correctness():
    t0 = time.monotonic()
    ok = True
    for dims, Q in _seeded_pairs():
        dyn = oc.build_fg(dims)
        P = oc.solve_care(dyn, Q)
        ok &= oc.care_residual(dyn, P, Q) <= 1e-10
        ok &= np.max(np.linalg.eigvals(dyn.F - dyn.G @ dyn.G.T @ P).real) < 0.0
    P_cf = oc.solve_care(oc.build_fg(oc.OutputDims(0, 1)), np.eye(2))
    ok &= bool(np.max(np.abs(P_cf - np.array([[SQRT3, 1.0], [1.0, SQRT3]]))) <= 1e-12)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    assert _report(1, f"CARE residual/Hurwitz/closed form ({elapsed:.1f}s)", ok)


def test_criterion_2_scaled_care():
    ok = True
    for dims, Q in _seeded_pairs():
        dyn = oc.build_fg(dims)
        P = oc.solve_care(dyn, Q)
        for eps in (0.05, 0.1, 0.5, 1.0):
            _, P_eps, Q_eps = oc.scale_epsilon(P, Q, dims, eps)
            ok &= oc.scaled_care_residual(dyn, P_eps, Q_eps, eps) <= 1e-10
    assert _report(2, "epsilon-scaled Riccati identity residual <= 1e-10", ok)


def test_criterion_3_res_clf_decrease():
    dims = oc.OutputDims(0, 1)
    dyn = oc.build_fg(dims)
    plant = oc.HopfPlant(dims=dims)
    ok = True
    for eps in (0.1, 0.5):
        cert = oc.certificate(dyn, np.eye(2), eps)
        loop = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller="min_norm",
                                      sigma=1.0)
        rec = oc.integrate(loop, np.array([1.0, 0.3, 1.2, 0.0]), T=10.0, dt=1e-3)
        bound = rec.v_eps[0] * np.exp(-cert.rate * rec.t) * (1.0 + 1e-3)
        ok &= bool(np.all(rec.v_eps <= bound + 1e-300))
    assert _report(3, "V_eps <= V_eps(0) e^{-(gamma/eps) t} (1 + 1e-3)", ok)


def test_criterion_4_ultimate_bounds():
    t0 = time.monotonic()
    dims = oc.OutputDims(0, 1)
    dyn = oc.build_fg(dims)
    plant = oc.HopfPlant(dims=dims)
    cert = oc.certificate(dyn, np.eye(2), 0.1)
    x0 = np.array([0.0, 0.0, 1.0, 0.0])
    ok = True
    for kind in ("sinusoid", "piecewise_constant_random"):
        ults = []
        for amp in (0.01, 0.05, 0.1):
            sig = oc.DisturbanceSignal(kind=kind, dim=1, amplitude=amp, frequency=0.5,
                                       dwell=0.5, seed=3)
            loop = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller="min_norm",
                                          signal=sig, sigma=1.0)
            rec = oc.integrate(loop, x0, T=12.0, dt=1e-3)
            ult = oc.ultimate_bound(rec)
            ok &= bool(ult <= oc.min_norm_ultimate_bound(cert, amp))  # 100% of runs
            ults.append(ult)
        # linearity in |d|inf within +-25%
        gains = np.array(ults) / np.array([0.01, 0.05, 0.1])
        ok &= bool(np.all(np.abs(gains / np.mean(gains) - 1.0) <= 0.25))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    assert _report(4, f"measured ultimate eta within theoretical bound, linear scaling "
                      f"({elapsed:.1f}s)", ok)


def test_criterion_5_composite_certificate():
    dims = oc.OutputDims(0, 1)
    dyn = oc.build_fg(dims)
    plant = oc.HopfPlant(dims=dims)
    cert = oc.certificate(dyn, np.eye(2), 0.1)
    consts = oc.converse_constants(plant)
    lq = plant.lipschitz_q
    sigma = oc.choose_sigma(cert, consts, lq)
    amp, eps_bar = 0.002, 0.1
    sig = oc.DisturbanceSignal(kind="sinusoid", dim=1, amplitude=amp, frequency=0.5)
    loop = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller="min_norm_plus_us",
                                  signal=sig, eps_bar=eps_bar, sigma=sigma)
    rec = oc.integrate(loop, np.array([0.45, 0.2, 1.2, 0.0]), T=20.0, dt=1e-3)

    vc_ok, _, details = oc.check_iss_lyapunov(rec, loop, amp)
    region_nonvacuous = details["region_samples"] > 0
    sandwich_ok = (len(rec) >= 10_000
                   and oc.check_composite_sandwich(rec, cert, sigma, consts, plant))
    s_ok, margin = oc.sigma_condition(cert, consts, lq, sigma)
    ok = bool(vc_ok and region_nonvacuous and sandwich_ok and s_ok
              and np.isclose(margin, 0.5, atol=1e-12))
    assert _report(5, "composite dV_c/dt in region, V_c sandwich, sigma rule", ok)


def test_criterion_6_converse_lyapunov_grid():
    dims = oc.OutputDims(0, 1)
    plant = oc.HopfPlant(dims=dims)
    consts = oc.converse_constants(plant)
    rng = np.random.default_rng(20260811)
    ok = True
    for _ in range(10_000):
        rr = rng.uniform(plant.r0 - consts.r, plant.r0 + consts.r)
        th = rng.uniform(0.0, 2.0 * np.pi)
        z = rr * np.array([np.cos(th), np.sin(th)])
        v, grad, _ = vz_converse_lyapunov(plant, np.zeros(0), z)
        dist = pzd_distance(np.zeros(0), z, plant)
        ok &= consts.c4 * dist**2 <= v + 1e-12
        ok &= v <= consts.c5 * dist**2 + 1e-12
        ok &= grad @ zero_field(plant, z) <= -consts.c6 * dist**2 + 1e-12
        ok &= np.linalg.norm(grad) <= consts.c7 * dist + 1e-12
    assert _report(6, "three converse-Lyapunov inequalities on 1e4 annulus grid", ok)


def test_criterion_7_zs_ag_iss():
    dims = oc.OutputDims(0, 1)
    dyn = oc.build_fg(dims)
    plant = oc.HopfPlant(dims=dims)
    cert = oc.certificate(dyn, np.eye(2), 0.1)
    x0 = np.array([0.45, 0.2, 1.2, 0.0])

    def run(amp):
        sig = None
        if amp > 0.0:
            sig = oc.DisturbanceSignal(kind="sinusoid", dim=1, amplitude=amp, frequency=0.5)
        loop = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller="min_norm",
                                      signal=sig, sigma=1.0)
        return oc.integrate(loop, x0, T=16.0, dt=1e-3)

    zero_rec = run(0.0)
    zs_ok, _ = oc.check_zero_stability(zero_rec)  # decay below 1e-6 of initial

    amps = np.array([0.0, 0.01, 0.02, 0.04])
    dist_ults, eta_ults = [], []
    for amp in amps:
        rec = zero_rec if amp == 0.0 else run(amp)
        half = (len(rec) - 1) // 2
        dist_ults.append(float(np.max(rec.dist[half:])))
        eta_ults.append(oc.ultimate_bound(rec))
    gain, intercept, ag_ok = oc.check_asymptotic_gain(amps, np.array(dist_ults))
    eta_gain, _, _ = oc.check_asymptotic_gain(amps, np.array(eta_ults))
    coeff = 4.0 * cert.c2 / (cert.gamma * cert.c1 * cert.eps)
    ok = bool(zs_ok and ag_ok and abs(intercept) <= 1e-4
              and 0.0 < gain < np.inf and eta_gain <= coeff)
    assert _report(7, "ZS decay, AG regression (intercept <= 1e-4), eta gain in bound", ok)


def test_criterion_8_time_vs_state_and_phase_disturbance():
    plant = oc.MechPlant(alpha=np.array([0.0, 0.1, 0.3, 0.3, 0.1, 0.0]))
    cert = oc.certificate(oc.build_fg(plant.dims), np.eye(3), 0.2)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        x = np.array([rng.uniform(0.05, 0.95), rng.normal(0.0, 0.4),
                      rng.uniform(0.3, 1.8), rng.normal(0.0, 0.4)])
        mu = rng.normal(size=2)
        u_state = oc.mech_feedback_linearize(plant, x, mu)
        u_time = oc.mech_feedback_linearize(plant, x, mu, tau=plant.tau(x[0]))
        worst = max(worst, float(np.max(np.abs(u_state - u_time))))
    equiv_ok = worst <= 1e-12

    sups = []
    x0 = np.array([0.05, plant.y2d(0.05) + 0.02, 1.0, 0.0])
    for e_amp in (0.01, 0.02, 0.04):
        sig = oc.DisturbanceSignal(kind="phase_error_driven", dim=2, amplitude=e_amp,
                                   frequency=1.0)
        loop = oc.MechClosedLoop(plant=plant, cert=cert, signal=sig)
        rec = oc.integrate(loop, x0, T=0.8, dt=1e-3)
        sups.append(float(np.max(np.linalg.norm(rec.d, axis=1))))
    gains = np.array(sups) / np.array([0.01, 0.02, 0.04])
    linear_ok = bool(np.all(np.abs(gains / np.mean(gains) - 1.0) <= 0.25))
    ok = bool(equiv_ok and linear_ok)
    assert _report(8, f"time/state controllers equal to 1e-12 (worst {worst:.2e}), "
                      f"|d|inf linear in e", ok)


def test_criterion_9_integrator_order():
    dims = oc.OutputDims(0, 1)
    dyn = oc.build_fg(dims)
    plant = oc.HopfPlant(dims=dims)
    cert = oc.certificate(dyn, np.eye(2), 0.5)
    loop = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller="min_norm", sigma=1.0)
    z0 = np.array([1.6, 0.0])
    errs = []
    for dt in (0.02, 0.01, 0.005):
        rec = oc.integrate(loop, np.concatenate([np.zeros(2), z0]), T=2.0, dt=dt)
        exact = np.array([exact_zero_solution(plant, z0, t) for t in rec.t])
        errs.append(float(np.max(np.linalg.norm(rec.z - exact, axis=1))))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = all(12.0 <= r <= 20.0 for r in ratios)
    assert _report(9, f"Richardson ratios {ratios[0]:.1f}, {ratios[1]:.1f} in [12, 20]", ok)


def test_criterion_10_certify_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli.main(["certify", "--out", str(out_a)])
    code_b = cli.main(["certify", "--out", str(out_b)])
    files = sorted(p.name for p in out_a.iterdir())
    identical = files == sorted(p.name for p in out_b.iterdir()) and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in files)
    ok = bool(code_a == 0 and code_b == 0 and identical and len(files) == 3)
    assert _report(10, "default certify passes twice with byte-identical outputs", ok)
