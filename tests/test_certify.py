import dataclasses

import numpy as np
import pytest

import orbitclf as oc
from orbitclf import certify
from orbitclf.certify import rejection_threshold
from orbitclf.plants import pzd_distance

from oracles import zero_field


@pytest.fixture(scope="module")
def composite_setup(dims01, dyn01, hopf01):
    """Damped closed loop with a small sinusoid, exercising the region checks."""
    cert = oc.certificate(dyn01, np.eye(2), 0.1)
    consts = oc.converse_constants(hopf01)
    sigma = oc.choose_sigma(cert, consts, hopf01.lipschitz_q)
    amp = 0.002
    sig = oc.DisturbanceSignal(kind="sinusoid", dim=1, amplitude=amp, frequency=0.5)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm_plus_us",
                                  signal=sig, eps_bar=0.1, sigma=sigma)
    rec = oc.integrate(loop, np.array([0.45, 0.2, 1.2, 0.0]), T=20.0, dt=1e-3)
    return cert, consts, sigma, amp, rec, loop


def test_choose_sigma_uncoupled(cert01_e01, hopf01):
    consts = oc.converse_constants(hopf01)
    assert oc.choose_sigma(cert01_e01, consts, 0.0) == 1.0


def test_choose_sigma_quarter_under_double_lq(cert01_e01, hopf01):
    consts = oc.converse_constants(hopf01)
    s1 = oc.choose_sigma(cert01_e01, consts, 0.4)
    s2 = oc.choose_sigma(cert01_e01, consts, 0.8)
    assert np.isclose(s1, 4.0 * s2, rtol=1e-12)


def test_sigma_margin_is_half(cert01_e01, hopf01):
    consts = oc.converse_constants(hopf01)
    lq = hopf01.lipschitz_q
    sigma = oc.choose_sigma(cert01_e01, consts, lq)
    ok, margin = oc.sigma_condition(cert01_e01, consts, lq, sigma)
    assert ok
    assert np.isclose(margin, 0.5, atol=1e-12)


def test_sigma_condition_rejects_oversized(cert01_e01, hopf01):
    consts = oc.converse_constants(hopf01)
    lq = hopf01.lipschitz_q
    sup = 4.0 * consts.c6 * cert01_e01.c1 * cert01_e01.gamma / (
        cert01_e01.eps * consts.c7**2 * lq**2)
    ok, margin = oc.sigma_condition(cert01_e01, consts, lq, 1.5 * sup)
    assert not ok and margin < 0.0


# --- zero stability ------------------------------------------------------------

def test_zs_trivial_on_orbit(hopf01, dyn01):
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm", sigma=1.0)
    rec = oc.integrate(loop, np.array([0.0, 0.0, 1.0, 0.0]), T=5.0, dt=1e-3)
    zs_ok, rate = oc.check_zero_stability(rec)
    assert zs_ok and rate == np.inf


def test_zs_decay_and_rate(zero_record_eps05):
    # the fitted rate must meet the guaranteed floor min(gamma/(2 eps), zero-
    # dynamics rate) and agree within 10% with an independent tail fit on a
    # finer-step reference run (the min-norm loop decays faster than the floor)
    cert, loop, rec = zero_record_eps05
    zs_ok, rate = oc.check_zero_stability(rec)
    assert zs_ok
    plant = loop.plant
    floor = min(cert.rate / 2.0, 2.0 * plant.lambda_h * plant.r0**2)
    assert rate >= 0.9 * floor
    ref = oc.integrate(loop, np.array([0.5, 0.0, 1.0, 0.0]), T=45.0, dt=5e-4)
    en = ref.eta_norm
    mask = (en > 1e-7 * en[0]) & (en < 1e-3 * en[0])
    ref_rate = -np.polyfit(ref.t[mask], np.log(en[mask]), 1)[0]
    assert abs(rate - ref_rate) <= 0.1 * ref_rate


def test_zs_fails_for_unstable_plant(dims01, dyn01):
    # inject lambda_h < 0 past the constructor guard: the orbit repels and the
    # verdict must flip (the horizon stops short of the finite-time blow-up)
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    plant = oc.HopfPlant(dims=dims01)
    object.__setattr__(plant, "lambda_h", -0.3)
    loop = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller="min_norm", sigma=1.0)
    rec = oc.integrate(loop, np.array([0.0, 0.0, 1.1, 0.0]), T=2.0, dt=1e-3)
    zs_ok, _ = oc.check_zero_stability(rec)
    assert not zs_ok


def test_zs_requires_zero_disturbance(composite_setup):
    *_, rec, _ = composite_setup
    with pytest.raises(ValueError):
        oc.check_zero_stability(rec)


def test_eiss_envelope(zero_record_eps05):
    _, _, rec = zero_record_eps05
    delta1, delta2 = oc.fit_eiss_envelope(rec)
    assert delta2 > 0.0 and np.isfinite(delta1)
    # the envelope covers every sample above the numerical noise floor
    mask = rec.dist > 1e-8 * rec.dist[0]
    covered = rec.dist[mask] <= (delta1 * np.exp(-delta2 * rec.t[mask])
                                 * rec.dist[0] * (1.0 + 1e-9))
    assert np.all(covered)


# --- asymptotic gain -----------------------------------------------------------

def test_ag_all_zero():
    gain, intercept, ok = oc.check_asymptotic_gain(np.zeros(3), np.zeros(3))
    assert gain == 0.0 and intercept == 0.0 and ok


def test_ag_validation():
    with pytest.raises(ValueError):
        oc.check_asymptotic_gain(np.array([0.0, 0.1]), np.zeros(2))
    with pytest.raises(ValueError):
        oc.check_asymptotic_gain(np.array([0.1, 0.2, 0.3]), np.zeros(3))


def test_ag_linear_data():
    amps = np.array([0.0, 0.01, 0.02, 0.04])
    gain, intercept, ok = oc.check_asymptotic_gain(amps, 3.7 * amps)
    assert ok and np.isclose(gain, 3.7) and abs(intercept) <= 1e-12


def test_ag_rejects_nonlinear_data():
    amps = np.array([0.0, 0.01, 0.02, 0.04])
    ults = np.array([0.0, 0.01, 0.05, 0.30])  # superlinear
    _, _, ok = oc.check_asymptotic_gain(amps, ults)
    assert not ok


def _ag_grid(first_residual):
    """Amplitudes 0..4 whose least-squares line is y = a exactly, with the first positive
    amplitude's ultimate at (1 + first_residual) times the line.

    The residuals e = (0, r, -1.5 r, 0, r/2) at a = (0, 1, 2, 3, 4) meet both normal
    equations (sum e = sum a e = 0), so gain 1 and intercept 0 leave the other ratios
    1 - 0.75 r, 1 and 1 + r/8 well inside AG_ENVELOPE_TOL (0.25) for |r| near it.
    """
    amps = np.arange(5.0)
    r = first_residual
    return amps, amps + np.array([0.0, r, -1.5 * r, 0.0, 0.5 * r])


@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("step, ok", [(-1e-9, True), (1e-9, False)])
def test_ag_envelope_bound_at_the_first_positive_amplitude(side, step, ok):
    # the envelope row looks at every positive amplitude, the first one included:
    # its ratio just inside 1 +- 0.25 passes and just outside fails
    amps, ults = _ag_grid(side * (0.25 + step))
    gain, intercept, got = oc.check_asymptotic_gain(amps, ults)
    assert gain == pytest.approx(1.0, rel=1e-14) and abs(intercept) <= 1e-14
    assert got is ok


@pytest.mark.parametrize("step, ok", [(-1e-6, True), (1e-6, False)])
def test_ag_intercept_bound(step, ok):
    # ultimates on the line a + c: |c| just inside 1e-4 passes, just outside fails
    amps = np.array([0.0, 1.0, 2.0, 4.0])
    c = 1e-4 * (1.0 + step)
    gain, intercept, got = oc.check_asymptotic_gain(amps, amps + c)
    assert gain == pytest.approx(1.0, rel=1e-14) and intercept == pytest.approx(c, rel=1e-10)
    assert got is ok


def _dist_record(dist):
    """A d = 0 record at unit steps whose orbit distance is the given figures."""
    S = len(dist)
    zeros = np.zeros(S)
    return oc.TrajectoryRecord(t=np.arange(float(S)), eta=np.zeros((S, 2)), z=np.zeros((S, 2)),
                               d=np.zeros((S, 1)), v_eps=zeros, v_z=zeros, v_c=zeros,
                               dist=np.asarray(dist, dtype=float), mu=np.zeros((S, 1)),
                               u_s=np.zeros((S, 1)))


@pytest.mark.parametrize("step, ok", [(-1e-9, True), (1e-9, False)])
def test_zs_verdict_bound(step, ok):
    # the envelope's last value just below 1e-6 of its first passes, just above fails
    d0 = 0.5
    dist = d0 * np.array([1.0, 0.3, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 3e-6, 2e-6, 1e-6 * (1.0 + step)])
    zs_ok, _ = oc.check_zero_stability(_dist_record(dist))
    assert zs_ok is ok


def test_zs_rate_fit_floor():
    # the rate is the least-squares slope of log(dist) over the samples above
    # 1e-6 d0: samples 0..8 on one line, sample 9 just above that floor and off
    # the line (so it moves the slope), and sample 10 just below it
    d0 = 2.0
    dist = d0 * np.concatenate([10.0 ** (-0.5 * np.arange(9.0)),
                                [1e-6 * (1.0 + 1e-9), 1e-6 * (1.0 - 1e-9), 1e-7, 1e-8]])
    zs_ok, rate = oc.check_zero_stability(_dist_record(dist))
    t = np.arange(float(len(dist)))
    fitted = -np.polyfit(t[:10], np.log(dist[:10]), 1)[0]
    assert zs_ok and rate == pytest.approx(fitted, rel=1e-12)
    # each neighbour of the floor moves the fit: without sample 9, or with sample 10
    for k in (9, 11):
        assert rate != pytest.approx(-np.polyfit(t[:k], np.log(dist[:k]), 1)[0], rel=1e-6)


# --- composite checks ----------------------------------------------------------

def test_vc_decrease_in_region(composite_setup):
    *_, amp, rec, loop = composite_setup
    vc_ok, eiss_ok, details = oc.check_iss_lyapunov(rec, loop, amp)
    assert vc_ok and eiss_ok
    assert details["region_samples"] > 100  # non-vacuous
    assert details["worst_vdot_c"] < 0.0


@pytest.mark.parametrize("scale", [0.0, 0.1])
def test_eiss_fails_when_d_inf_understates_the_disturbance(composite_setup, scale):
    # the record's d reaches amp; a smaller |d|inf leaves the gain term too
    # small for the exact rate, beyond rounding
    *_, amp, rec, loop = composite_setup
    _, eiss_ok, details = oc.check_iss_lyapunov(rec, loop, scale * amp)
    assert not eiss_ok
    assert details["eiss_margin"] < -1e-7


@pytest.mark.parametrize("step, ok", [(1e-6, True), (-1e-6, False)])
def test_eiss_form_d_gain_bound(cert01_e01, hopf01, step, ok):
    # dV_eps/dt <= -(gamma/eps) V_eps + 2 ||eta|| ||P_eps G|| |d|inf at every sample:
    # at constructed samples under the min-norm law and a d along psi1, a
    # |d|inf just above the least that meets the inequality passes, just below fails
    cert, plant = cert01_e01, hopf01
    loop = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller="min_norm")
    F, G, P = plant.dyn.F, plant.dyn.G, cert.P_eps
    rng = np.random.default_rng(11)
    S = 16
    eta = rng.normal(size=(S, 2))
    z = np.column_stack([rng.uniform(0.8, 1.2, S), rng.normal(0.0, 0.1, S)])
    M = F.T @ P + P @ F + cert.rate * P
    psi0 = np.einsum("si,ij,sj->s", eta, M, eta)
    psi1 = 2.0 * eta @ P @ G
    mu = -(np.maximum(psi0, 0.0) / np.sum(psi1 * psi1, axis=1))[:, None] * psi1
    d = 0.1 * np.sign(psi1)
    v_eps = np.einsum("si,ij,sj->s", eta, P, eta)
    vdot = 2.0 * np.sum((eta @ P) * (eta @ F.T + (mu + d) @ G.T), axis=1)
    least = np.max((cert.rate * v_eps + vdot)
                   / (2.0 * np.linalg.norm(eta, axis=1) * np.linalg.norm(P @ G, 2)))
    assert least > 0.0
    zeros = np.zeros(S)
    rec = oc.TrajectoryRecord(t=np.arange(S) * 1e-3, eta=eta, z=z, d=d, v_eps=v_eps, v_z=zeros,
                              v_c=v_eps, dist=zeros, mu=mu, u_s=np.zeros((S, 1)))
    _, eiss_ok, details = oc.check_iss_lyapunov(rec, loop, least * (1.0 + step))
    assert eiss_ok is ok
    assert (details["eiss_margin"] > 0.0) is ok  # the tightest sample decides


def test_vc_zero_disturbance_everywhere(zero_record_eps05):
    cert, loop, rec = zero_record_eps05
    vc_ok, eiss_ok, details = oc.check_iss_lyapunov(rec, loop, 0.0)
    assert vc_ok and eiss_ok
    assert details["threshold"] == 0.0  # region is everywhere
    assert details["region_samples"] == len(rec)  # both endpoints included


def test_vc_adversarial_sigma_fails(dims01, dyn01, hopf01):
    # sigma far above the rule's supremum overweights the zero-dynamics term;
    # starting on the orbit, the eta coupling pushes z outward and the
    # overweighted sigma * dV_Z/dt turns the composite derivative positive
    cert = oc.certificate(dyn01, np.eye(2), 0.1)
    sig = oc.DisturbanceSignal(kind="sinusoid", dim=1, amplitude=0.002, frequency=0.5)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm_plus_us",
                                  signal=sig, eps_bar=0.1, sigma=5000.0)
    rec = oc.integrate(loop, np.array([0.45, 0.2, 1.0, 0.0]), T=20.0, dt=1e-3)
    vc_ok, _, _ = oc.check_iss_lyapunov(rec, loop, 0.002)
    assert not vc_ok


def test_iss_lyapunov_rejects_a_mech_loop(mech_plant, mech_cert):
    loop = oc.MechClosedLoop(plant=mech_plant, cert=mech_cert)
    with pytest.raises(ValueError, match="needs a Hopf closed loop, got MechClosedLoop"):
        oc.check_iss_lyapunov(None, loop, 0.0)


@pytest.mark.parametrize("k1", [0, 1])
@pytest.mark.parametrize("controller", ["min_norm", "min_norm_plus_us"])
def test_lyapunov_rates_match_the_written_out_field(k1, controller):
    # dV_eps/dt = 2 eta'P_eps (F eta + G(mu + u_s + d)) and
    # dV_Z/dt = 4 s z.(Psi0(z) + C eta) + 2 y1.dy1/dt, from the record's
    # mu, u_s and d and the plant's pieces, not from the loop's operator
    dims = oc.OutputDims(k1=k1, k2=1)
    plant = oc.HopfPlant(dims=dims)
    cert = oc.certificate(plant.dyn, np.eye(dims.n_eta), 0.2)
    F, G, P, C = plant.dyn.F, plant.dyn.G, cert.P_eps, plant.coupling
    sig = oc.DisturbanceSignal(kind="sinusoid", dim=dims.n_mu, amplitude=0.05, frequency=0.5)
    loop = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller=controller,
                                  signal=sig, eps_bar=0.5, sigma=0.3)
    x0 = np.concatenate([np.linspace(0.4, -0.3, dims.n_eta), [1.2, 0.1]])
    rec = oc.integrate(loop, x0, T=3.0, dt=1e-3)
    assert np.any(rec.u_s != 0.0) == loop.damped
    vdot_eps, vdot_z = certify._lyapunov_rates(rec, loop)

    eta, z, y1 = rec.eta, rec.z, rec.eta[:, :k1]
    deta = eta @ F.T + (rec.mu + rec.u_s + rec.d) @ G.T
    dz = zero_field(plant, z) + eta @ C.T
    r2 = np.sum(z * z, axis=1)
    s = r2 - plant.r0 ** 2
    want_eps = np.sum(2.0 * (eta @ P) * deta, axis=1)
    want_z = np.sum(4.0 * s[:, None] * z * dz, axis=1) + np.sum(2.0 * y1 * deta[:, :k1], axis=1)

    # rtol 1e-13 of the forward-error scale: the same sums over absolute
    # values, since the rotation terms of z.Psi0(z) cancel exactly, and
    # s, P eta and C eta may cancel too
    a_eta, a_z = np.abs(eta), np.abs(z)
    a_deta = a_eta @ F.T + (np.abs(rec.mu) + np.abs(rec.u_s) + np.abs(rec.d)) @ G.T
    a_dz = (plant.omega * a_z[:, ::-1] + plant.lambda_h * np.abs(s)[:, None] * a_z
            + a_eta @ np.abs(C).T)
    size_eps = np.sum(2.0 * (a_eta @ np.abs(P)) * a_deta, axis=1)
    size_z = (np.sum(4.0 * (r2 + plant.r0 ** 2)[:, None] * a_z * a_dz, axis=1)
              + np.sum(2.0 * a_eta[:, :k1] * a_deta[:, :k1], axis=1))
    for got, want, size in ((vdot_eps, want_eps, size_eps), (vdot_z, want_z, size_z)):
        assert np.all(np.abs(got - want) <= 1e-13 * size)


def test_ultimate_bound_formulas(composite_setup):
    cert, _, _, amp, rec, _ = composite_setup
    ult = oc.ultimate_bound(rec)
    assert ult <= oc.damped_ultimate_bound(cert, 0.1, amp)
    assert ult <= oc.min_norm_ultimate_bound(cert, amp)
    assert oc.min_norm_ultimate_bound(cert, amp) == 4.0 * cert.c2 / (cert.gamma * cert.c1 * cert.eps) * amp
    assert oc.damped_ultimate_bound(cert, 0.1, amp) == 2.0 * 0.1 * cert.c2 / (cert.c1**2 * cert.eps**2) * amp
    assert rejection_threshold(cert, 0.1, amp) == oc.damped_ultimate_bound(cert, 0.1, amp)


def test_composite_bounds_values(cert01_e01, hopf01):
    consts = oc.converse_constants(hopf01)
    sigma_tie = cert01_e01.c1 / consts.c4  # makes sigma*c4 == c1
    lower, upper = oc.composite_bounds(cert01_e01, sigma_tie, consts)
    assert np.isclose(lower, cert01_e01.c1)
    assert upper == max(sigma_tie * consts.c5, cert01_e01.c2 / cert01_e01.eps**2)


def test_composite_upper_grows_as_eps_shrinks(dyn01, hopf01):
    consts = oc.converse_constants(hopf01)
    uppers = []
    for eps in (0.5, 0.2, 0.1):
        cert = oc.certificate(dyn01, np.eye(2), eps)
        uppers.append(oc.composite_bounds(cert, 0.1, consts)[1])
    assert uppers[0] < uppers[1] < uppers[2]


def test_sandwich_on_trajectory(composite_setup, hopf01):
    cert, consts, sigma, _, rec, _ = composite_setup
    assert len(rec) >= 10_000
    assert oc.check_composite_sandwich(rec, cert, sigma, consts, hopf01)


def test_monotone_ultimate_bound_in_eps(dims01, dyn01, hopf01):
    # fixed sinusoid, eps sweep: smaller eps gives a strictly smaller bound
    sig = oc.DisturbanceSignal(kind="sinusoid", dim=1, amplitude=0.05, frequency=0.5)
    ults = []
    for eps in (0.5, 0.2, 0.1, 0.05):
        cert = oc.certificate(dyn01, np.eye(2), eps)
        loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm",
                                      signal=sig, sigma=1.0)
        rec = oc.integrate(loop, np.array([0.0, 0.0, 1.0, 0.0]), T=12.0, dt=1e-3)
        ults.append(oc.ultimate_bound(rec))
    assert all(a > b for a, b in zip(ults, ults[1:]))


def _sandwich_reference(record, cert, sigma, consts, plant, rel_tol=1e-9):
    # the per-sample loop, kept as the reference for the vectorized check
    lower, upper = oc.composite_bounds(cert, sigma, consts)
    k1 = plant.dims.k1
    for i in range(len(record)):
        z = record.z[i]
        nz = float(np.linalg.norm(z))
        if not (plant.r0 - consts.r <= nz <= plant.r0 + consts.r):
            continue
        dpz = pzd_distance(record.eta[i, :k1], z, plant)
        s = dpz * dpz + float(record.eta[i] @ record.eta[i])
        vc = record.v_c[i]
        slack = rel_tol * max(1.0, abs(vc))
        if not (lower * s - slack <= vc <= upper * s + slack):
            return False
    return True


def test_sandwich_matches_loop_reference(composite_setup, hopf01):
    cert, consts, sigma, _, rec, _ = composite_setup
    variants = [
        rec,
        dataclasses.replace(rec, v_c=rec.v_c * 1e3),      # above the upper bound
        dataclasses.replace(rec, v_c=rec.v_c * 1e-3),     # below the lower bound
        dataclasses.replace(rec, z=rec.z * 1.6, v_c=rec.v_c * 1e3),  # out of the annulus
        dataclasses.replace(rec, z=rec.z * 1.3),          # partly out of the annulus
    ]
    verdicts = []
    for r in variants:
        for s in (sigma, 1e-3 * sigma, 1e3 * sigma):
            want = _sandwich_reference(r, cert, s, consts, hopf01)
            assert oc.check_composite_sandwich(r, cert, s, consts, hopf01) is want
            verdicts.append(want)
    assert True in verdicts and False in verdicts
