import math
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitclf as oc
from orbitclf import clf, plants
from orbitclf.plants import check_phases, mech_feedforward, pzd_distance

from conftest import rk4_written_out
from oracles import (eta_at, eta_of, exact_zero_solution, outputs, vz_converse_lyapunov, x_of,
                     zero_field)


# --- Hopf plant ---------------------------------------------------------------

def _hopf_rhs(plant, eta, z):
    """(d eta/dt, dz/dt) of the min-norm closed loop with d = 0; mu = 0 at eta = 0."""
    cert = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.5)
    loop = oc.DisturbedClosedLoop(plant=plant, cert=cert)
    rhs = np.array(loop.field(0.0, [*eta.tolist(), *z.tolist()], [0.0] * plant.dims.n_mu))
    return rhs[:plant.dims.n_eta], rhs[plant.dims.n_eta:]


def test_hopf_field_on_orbit_tangent(hopf01):
    eta_dot, z_dot = _hopf_rhs(hopf01, np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(z_dot, [0.0, 1.0])  # pure rotation at radius r0, omega = 1
    assert np.allclose(eta_dot, 0.0)


def test_hopf_field_radial_contraction(hopf01):
    _, z_dot = _hopf_rhs(hopf01, np.zeros(2), np.array([2.0, 0.0]))
    radial = z_dot @ np.array([1.0, 0.0])
    assert radial < 0.0  # outside the circle the radial component points inward


def test_hopf_field_decoupled_without_coupling(dims01):
    plant = oc.HopfPlant(dims=dims01, coupling=np.zeros((2, 2)))
    z = np.array([0.7, -0.4])
    _, zd_a = _hopf_rhs(plant, np.zeros(2), z)
    _, zd_b = _hopf_rhs(plant, np.array([5.0, -3.0]), z)
    assert np.array_equal(zd_a, zd_b)


def test_hopf_radial_identity_along_trajectory(hopf01, dims01, dyn01):
    # d/dt ||z||^2 = 2 lambda ||z||^2 (r0^2 - ||z||^2) with eta = 0; the fine
    # step keeps the central-difference truncation below the 1e-6 tolerance
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm", sigma=1.0)
    rec = oc.integrate(loop, np.array([0.0, 0.0, 1.4, 0.0]), T=2.0, dt=1e-4)
    r2 = np.sum(rec.z ** 2, axis=1)
    num = (r2[2:] - r2[:-2]) / (2.0 * rec.dt)
    pred = 2.0 * hopf01.lambda_h * r2[1:-1] * (hopf01.r0 ** 2 - r2[1:-1])
    assert np.max(np.abs(num - pred)) <= 1e-6 * max(1.0, np.max(np.abs(pred)))


def test_hopf_orbit_decay_rate(hopf01, dims01, dyn01):
    # small radial offsets contract at 2 lambda r0^2 within 10%
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm", sigma=1.0)
    rec = oc.integrate(loop, np.array([0.0, 0.0, 1.05, 0.0]), T=4.0, dt=1e-3)
    mask = rec.dist > 1e-8
    slope = np.polyfit(rec.t[mask], np.log(rec.dist[mask]), 1)[0]
    kappa = 2.0 * hopf01.lambda_h * hopf01.r0 ** 2
    assert abs(-slope - kappa) <= 0.1 * kappa


def test_hopf_validation(dims01):
    with pytest.raises(ValueError):
        oc.HopfPlant(dims=dims01, lambda_h=0.0)
    with pytest.raises(ValueError):
        oc.HopfPlant(dims=dims01, r0=-1.0)
    with pytest.raises(ValueError):
        oc.HopfPlant(dims=dims01, coupling=np.zeros((3, 2)))


def test_exact_zero_solution_matches_field(hopf01):
    # independent check of the logistic closed form by fine RK4 on Psi0 alone
    z0 = np.array([1.6, 0.2])
    dt, T = 1e-4, 1.5
    z = z0.copy()
    for i in range(int(T / dt)):
        z = rk4_written_out(lambda t, y: zero_field(hopf01, y), i * dt, z, dt)
    assert np.allclose(z, exact_zero_solution(hopf01, z0, T), atol=1e-9)


# --- orbit distance -----------------------------------------------------------

def test_orbit_distance_zero_on_orbit(hopf01):
    assert oc.orbit_distance(np.zeros(2), np.array([0.0, 1.0]), hopf01) == 0.0


def test_orbit_distance_radial(hopf01):
    assert np.isclose(oc.orbit_distance(np.zeros(2), np.array([2.0, 0.0]), hopf01), 1.0)


def test_orbit_distance_block_composition(hopf01):
    # eta2 = (0.3, 0.4) contributes |y2| + |dy2| = 0.7 on the orbit
    d = oc.orbit_distance(np.array([0.3, 0.4]), np.array([1.0, 0.0]), hopf01)
    assert np.isclose(d, 0.7)


def test_orbit_distance_with_y1():
    dims = oc.OutputDims(1, 1)
    plant = oc.HopfPlant(dims=dims)
    d = oc.orbit_distance(np.array([0.2, 0.0, 0.0]), np.array([1.5, 0.0]), plant)
    assert np.isclose(d, 0.7)  # |1.5 - 1| + 0.2
    assert np.isclose(pzd_distance(np.array([0.2]), np.array([1.5, 0.0]), plant), 0.7)


# --- converse Lyapunov ---------------------------------------------------------

def test_vz_zero_on_orbit(hopf01):
    v, grad, _ = vz_converse_lyapunov(hopf01, np.zeros(0), np.array([1.0, 0.0]))
    assert v == 0.0
    assert np.allclose(grad, 0.0)


def test_vz_hand_value(hopf01):
    v, _, _ = vz_converse_lyapunov(hopf01, np.zeros(0), np.array([1.2, 0.0]))
    assert np.isclose(v, 0.1936, atol=1e-12)


def test_vz_outside_annulus_rejected(hopf01):
    with pytest.raises(ValueError):
        vz_converse_lyapunov(hopf01, np.zeros(0), np.array([1.7, 0.0]))


def test_vz_grid_inequalities_k1_0(hopf01):
    # the three converse-Lyapunov inequalities on a 10^4 annulus grid
    consts = oc.converse_constants(hopf01)
    rng = np.random.default_rng(17)
    radii = rng.uniform(hopf01.r0 - consts.r, hopf01.r0 + consts.r, 10_000)
    angles = rng.uniform(0.0, 2.0 * np.pi, 10_000)
    for rr, th in zip(radii, angles):
        z = rr * np.array([np.cos(th), np.sin(th)])
        v, grad, _ = vz_converse_lyapunov(hopf01, np.zeros(0), z)
        dist = pzd_distance(np.zeros(0), z, hopf01)
        assert consts.c4 * dist**2 <= v + 1e-12
        assert v <= consts.c5 * dist**2 + 1e-12
        vdot = grad @ zero_field(hopf01, z)
        assert vdot <= -consts.c6 * dist**2 + 1e-12
        assert np.linalg.norm(grad) <= consts.c7 * dist + 1e-12


def test_vz_grid_inequalities_k1_1():
    # k1 > 0 branch: halved c4 keeps the blockwise-distance bound provable;
    # the decrease inequality uses the configured y1 contraction and no coupling
    dims = oc.OutputDims(1, 1)
    plant = oc.HopfPlant(dims=dims, coupling=np.zeros((2, 3)), y1_rate=1.0)
    consts = oc.converse_constants(plant)
    rng = np.random.default_rng(29)
    for _ in range(5000):
        rr = rng.uniform(plant.r0 - consts.r, plant.r0 + consts.r)
        th = rng.uniform(0.0, 2.0 * np.pi)
        z = rr * np.array([np.cos(th), np.sin(th)])
        y1 = rng.normal(size=1)
        v, grad, _ = vz_converse_lyapunov(plant, y1, z)
        dist = pzd_distance(y1, z, plant)
        assert consts.c4 * dist**2 <= v + 1e-12
        assert v <= consts.c5 * dist**2 + 1e-12
        # partial zero dynamics: dz/dt = Psi0 (no coupling), dy1/dt = -y1_rate y1
        vdot = grad[1:] @ zero_field(plant, z) + grad[:1] @ (-plant.y1_rate * y1)
        assert vdot <= -consts.c6 * dist**2 + 1e-10
        assert np.linalg.norm(grad) <= consts.c7 * dist + 1e-12


# --- mech plant -----------------------------------------------------------------

def mech_eta_rate(plant, x, u):
    """d eta/dt of the true outputs of one state x under input u, by the chain rule."""
    q1, _, dq1, dq2 = x
    tau = plant.tau(q1)
    tau_rate = dq1 / plant.delta
    _, dy2d, d2y2d = plant.jet(tau)
    dy2_rate = u[1] - d2y2d * tau_rate ** 2 - dy2d * u[0] / plant.delta
    dy2 = dq2 - dy2d * dq1 / plant.delta
    if plant.v_d is None:
        return np.array([dy2, dy2_rate])
    return np.array([u[0], dy2, dy2_rate])


def _bezier(alpha, tau):
    """De Casteljau on the coefficients alpha: the oracle of the jet's components."""
    b = list(alpha)
    while len(b) > 1:
        b = [b0 + tau * (b1 - b0) for b0, b1 in pairwise(b)]
    return b[0]


def _bezier_d(alpha):
    """The coefficients of a Bezier's derivative."""
    return (len(alpha) - 1) * (alpha[1:] - alpha[:-1])


@pytest.mark.parametrize("alpha", [[0.0, 0.1, 0.3, 0.3, 0.1, 0.0],
                                   [0.2, -1.3, 0.7, 2.1, -0.4, 0.9]])
def test_mech_jet_matches_derivative_beziers(alpha):
    # the jet's one de Casteljau pass against separate passes on the
    # coefficients of y2d, y2d' and y2d'': y2d is the same arithmetic, and
    # the derivatives agree to rounding on the scale of each component
    plant = oc.MechPlant(alpha=np.array(alpha))
    a = np.array(alpha)
    coefs = (a, _bezier_d(a), _bezier_d(_bezier_d(a)))
    taus = np.linspace(0.0, 1.0, 1001)
    jet = plant.jet(taus)
    for k, c in enumerate(coefs):
        want = np.array([_bezier(c.tolist(), float(t)) for t in taus])
        if k == 0:
            assert np.array_equal(jet[0], want)
        assert np.max(np.abs(jet[k] - want)) <= 1e-13 * np.max(np.abs(want))


def test_mech_jet_derivatives_by_finite_differences(mech_plant):
    # central differences carry an h^2 truncation error and an eps/h rounding error
    h = 1e-4
    taus = np.linspace(h, 1.0 - h, 257)
    fd = (mech_plant.jet(taus + h)[1] - mech_plant.jet(taus - h)[1]) / (2.0 * h)
    assert np.max(np.abs(fd - mech_plant.jet(taus)[2])) <= 1e-6
    fd = (mech_plant.y2d(taus + h) - mech_plant.y2d(taus - h)) / (2.0 * h)
    assert np.max(np.abs(fd - mech_plant.jet(taus)[1])) <= 1e-7


def _bernstein_jet(alpha, tau):
    """(y, y', y'') of the degree-n Bezier alpha in the Bernstein basis: an independent oracle."""
    n = len(alpha) - 1
    diffs = [list(alpha)]
    for _ in range(2):
        diffs.append([b1 - b0 for b0, b1 in pairwise(diffs[-1])])
    return tuple(math.perm(n, k) * sum(math.comb(n - k, i) * tau ** i * (1.0 - tau) ** (n - k - i)
                                       * c for i, c in enumerate(diffs[k]))
                 for k in range(3))


JET_ALPHAS = [[0.0, 0.1, 0.3, 0.3, 0.1, 0.0], [0.2, -1.3, 0.7, 2.1, -0.4, 0.9]]
JET_TAUS = [0.0, 1.0, 0.5, 1e-9, 1.0 - 1e-9, 0.123456789, 0.75, -0.25, 1.25]


@pytest.mark.parametrize("alpha", JET_ALPHAS)
def test_mech_jet_matches_the_bernstein_form(alpha):
    # the written-out de Casteljau pass against the Bernstein sum, at lone
    # floats, np.float64 and an array, the ends of [0, 1] included
    plant = oc.MechPlant(alpha=np.array(alpha))
    wants = [_bernstein_jet(alpha, tau) for tau in JET_TAUS]
    scale = np.max(np.abs(wants), axis=0)  # each component's size over the phases
    stacked = plant.jet(np.array(JET_TAUS))
    for i, (tau, want) in enumerate(zip(JET_TAUS, wants)):
        lone, scalar = plant.jet(tau), plant.jet(np.float64(tau))
        assert all(type(c) is float for c in lone + scalar)
        for got in (lone, scalar, [c[i] for c in stacked]):
            assert np.all(np.abs(np.subtract(got, want)) <= 1e-14 * scale), tau
    assert plant.jet(0.0)[0] == alpha[0]


@pytest.mark.parametrize("alpha", JET_ALPHAS)
def test_mech_jet_lone_and_array_calls_are_bitwise_equal(alpha):
    plant = oc.MechPlant(alpha=np.array(alpha))
    taus = np.concatenate([JET_TAUS, np.random.default_rng(5).uniform(0.0, 1.0, 200)])
    stacked = plant.jet(taus)
    for i, tau in enumerate(taus.tolist()):
        for lone in (plant.jet(tau), plant.jet(taus[i])):
            assert [c[i] for c in stacked] == list(lone), tau


@pytest.mark.parametrize("taus", [(-0.01, 0.5), (1.01, 0.5), (0.0, -1e-10), (1.0, 1.0 + 1e-10),
                                  (float("nan"), 0.5), (0.5, float("nan")), (2.0, -1.0)],
                         ids=["low estimate", "high estimate", "low true phase",
                              "high true phase", "nan estimate", "nan true phase", "both"])
def test_check_phases_on_floats_raises_the_array_message(taus):
    # the lone-float path decides by comparisons and then builds the array
    # path's exact message, naming the estimate first
    with pytest.raises(ValueError) as stack:
        check_phases(*(np.array([0.5, tau, 0.5]) for tau in taus))
    with pytest.raises(ValueError) as lone:
        check_phases(*taus)
    assert str(lone.value) == str(stack.value)
    with pytest.raises(ValueError) as lone:
        check_phases(*(np.float64(tau) for tau in taus))
    assert str(lone.value) == str(stack.value)
    if not 0.0 <= taus[0] <= 1.0:  # an estimate alone
        with pytest.raises(ValueError) as stack:
            check_phases(np.array([0.5, taus[0]]))
        with pytest.raises(ValueError) as lone:
            check_phases(taus[0])
        assert str(lone.value) == str(stack.value)


def test_check_phases_accepts_the_domain_edges():
    for taus in ((-1e-9, 0.0), (1.0 + 1e-9, 1.0), (0.0, 0.0), (1.0, 1.0), (0.5,), (-1e-9,)):
        check_phases(*taus)
        check_phases(*(np.array([tau]) for tau in taus))
    with pytest.raises(ValueError, match=r"^phase -2e-09 outside \[0, 1\]$"):
        check_phases(-2e-9, 0.0)


def test_mech_dims(mech_plant):
    assert mech_plant.dims == oc.OutputDims(1, 1)
    assert oc.MechPlant(alpha=np.zeros(6), v_d=None).dims == oc.OutputDims(0, 1)


def test_mech_zero_dynamics_invariance(mech_plant, mech_cert):
    # eta(0) = 0 with mu = 0 keeps the outputs identically zero
    tau0 = 0.1
    x = np.array([tau0, mech_plant.y2d(tau0),
                  mech_plant.v_d, mech_plant.jet(tau0)[1] * mech_plant.v_d / mech_plant.delta])
    assert np.allclose(eta_of(mech_plant, x), 0.0, atol=1e-14)

    def field(t, y):
        u = oc.mech_feedback_linearize(mech_plant, y, np.zeros(2))
        return np.array([y[2], y[3], u[0], u[1]])

    dt = 1e-3
    for i in range(600):
        x = rk4_written_out(field, i * dt, x, dt)
    assert np.max(np.abs(eta_of(mech_plant, x))) <= 1e-9


def test_mech_fd_oracle_state_mode(mech_plant):
    # finite differences of eta along the plant flow match F eta + G mu
    dyn = oc.build_fg(mech_plant.dims)
    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(20):
        x = np.array([rng.uniform(0.1, 0.9), rng.normal(0, 0.3),
                      rng.uniform(0.5, 1.5), rng.normal(0, 0.3)])
        mu = rng.normal(size=2)
        u = oc.mech_feedback_linearize(mech_plant, x, mu)
        field = lambda t, y: np.array([y[2], y[3], u[0], u[1]])
        xp = rk4_written_out(field, 0.0, x, h)
        xm = rk4_written_out(field, 0.0, x, -h)
        fd = (eta_of(mech_plant, xp) - eta_of(mech_plant, xm)) / (2.0 * h)
        pred = dyn.F @ eta_of(mech_plant, x) + dyn.G @ mu
        assert np.max(np.abs(fd - pred)) <= 1e-8 * max(1.0, np.max(np.abs(pred)))


def test_mech_time_mode_matches_state_mode(mech_plant):
    rng = np.random.default_rng(37)
    for _ in range(100):
        x = np.array([rng.uniform(0.05, 0.95), rng.normal(0, 0.4),
                      rng.uniform(0.3, 1.8), rng.normal(0, 0.4)])
        mu = rng.normal(size=2)
        u_state = oc.mech_feedback_linearize(mech_plant, x, mu)
        u_time = oc.mech_feedback_linearize(mech_plant, x, mu, tau=mech_plant.tau(x[0]))
        assert np.max(np.abs(u_state - u_time)) <= 1e-12


def test_mech_time_mode_requires_tau(mech_plant):
    # a phase estimate outside [0, 1] is rejected
    with pytest.raises(ValueError):
        oc.mech_feedback_linearize(mech_plant, np.array([0.2, 0.0, 1.0, 0.0]),
                                   np.zeros(2), tau=1.4)


def test_mech_k1_0_variant():
    plant = oc.MechPlant(alpha=np.array([0.0, 0.1, 0.3, 0.3, 0.1, 0.0]), v_d=None)
    x = np.array([0.3, 0.2, 1.0, 0.1])
    u = oc.mech_feedback_linearize(plant, x, np.array([0.5]))
    assert u[0] == 0.0  # unactuated phase joint
    # the y2 channel still linearizes exactly
    dyn = oc.build_fg(plant.dims)
    rate = mech_eta_rate(plant, x, u)
    pred = dyn.F @ eta_of(plant, x) + dyn.G @ np.array([0.5])
    assert np.allclose(rate, pred, atol=1e-12)


def test_mech_phi_roundtrip(mech_plant):
    rng = np.random.default_rng(41)
    for _ in range(100):
        x = np.array([rng.uniform(0.05, 0.95), rng.normal(0, 0.5),
                      rng.uniform(0.2, 2.0), rng.normal(0, 0.5)])
        x2 = x_of(mech_plant, eta_of(mech_plant, x), mech_plant.z_of(x))
        assert np.max(np.abs(x - x2)) <= 1e-10


def test_mech_pzd_invariance(mech_plant, mech_cert):
    # on y2 = dy2 = 0 with y1 relaxed, the min-norm controller keeps eta2 zero
    dyn = oc.build_fg(mech_plant.dims)
    tau0 = 0.2
    x = np.array([tau0 * mech_plant.delta + mech_plant.q1_minus, mech_plant.y2d(tau0),
                  1.3, mech_plant.jet(tau0)[1] * 1.3 / mech_plant.delta])
    eta = eta_of(mech_plant, x)
    assert abs(eta[0]) > 0.1  # y1 nonzero: genuinely partial
    assert np.allclose(eta[1:], 0.0, atol=1e-14)

    W, n = oc.clf_operator(mech_cert, dyn), mech_plant.dims.n_eta

    def field(t, y):
        eta_y = eta_of(mech_plant, y)
        rows = oc.matvec(W, eta_y)
        psi1 = rows[2 * n:-n]
        mu = oc.min_norm_mu(np.vecdot(eta_y, rows[-n:]), np.vecdot(psi1, psi1)) * psi1
        u = oc.mech_feedback_linearize(mech_plant, y, mu)
        return np.array([y[2], y[3], u[0], u[1]])

    dt = 1e-3
    for i in range(400):
        x = rk4_written_out(field, i * dt, x, dt)
    eta_end = eta_of(mech_plant, x)
    assert np.max(np.abs(eta_end[1:])) <= 1e-8
    # on the surface the min-norm input reduces to mu1 = -(gamma/(2 eps)) y1
    y1_pred = eta[0] * np.exp(-mech_cert.rate / 2.0 * 0.4)
    assert np.isclose(eta_end[0], y1_pred, rtol=1e-2)


# --- phase disturbance ----------------------------------------------------------

def test_phase_disturbance_zero_error(mech_plant):
    x = np.array([0.3, 0.25, 1.1, 0.05])
    assert np.array_equal(oc.derive_phase_disturbance(mech_plant, x, 0.0), np.zeros(2))


def test_phase_disturbance_lipschitz_in_e(mech_plant):
    # ||d|| <= L_ff |e| with L_ff the sampled Lipschitz constant of the
    # feedforward in tau over the analysis domain
    rng = np.random.default_rng(43)
    xs = [np.array([rng.uniform(0.1, 0.8), rng.normal(0, 0.3),
                    rng.uniform(0.5, 1.5), rng.normal(0, 0.3)]) for _ in range(20)]
    taus = np.linspace(0.0, 1.0, 2001)
    for x in xs:
        tr = x[2] / mech_plant.delta
        ff = np.array([mech_plant.jet(t)[2] * tr**2 for t in taus])
        l_ff = np.max(np.abs(np.diff(ff))) / (taus[1] - taus[0])
        for e in (0.01, -0.02, 0.05):
            if not (0.0 <= mech_plant.tau(x[0]) + e <= 1.0):
                continue
            d = oc.derive_phase_disturbance(mech_plant, x, e)
            assert np.linalg.norm(d) <= 1.05 * l_ff * abs(e) + 1e-12


def test_phase_disturbance_sign_flip(mech_plant):
    # d(-e) = -d(e) + O(e^2): the residual is ff''(tau) e^2 + O(e^4) for the
    # feedforward ff(tau) = y2d''(tau) tau_rate^2, estimated here by finite
    # differences as the Taylor oracle
    x = np.array([0.3, 0.25, 1.1, 0.05])
    tau, tr = mech_plant.tau(x[0]), x[2] / mech_plant.delta
    h = 1e-4
    ff = lambda t: mech_plant.jet(t)[2] * tr**2
    curv = abs(ff(tau + h) + ff(tau - h) - 2.0 * ff(tau)) / h**2
    for e in (0.01, 0.02):
        d_plus = oc.derive_phase_disturbance(mech_plant, x, e)
        d_minus = oc.derive_phase_disturbance(mech_plant, x, -e)
        assert np.linalg.norm(d_plus + d_minus) <= 1.2 * curv * e**2


def test_phase_disturbance_out_of_range(mech_plant):
    with pytest.raises(ValueError):
        oc.derive_phase_disturbance(mech_plant, np.array([0.95, 0.0, 1.0, 0.0]), 0.2)


# --- mech kernels on a stack of states -----------------------------------------

MECH_ALPHA = np.array([0.0, 0.1, 0.3, 0.3, 0.1, 0.0])


def _stack(seed, rows=64):
    """In-domain mech states (tau in [0.1, 0.9]), phase errors and mu rows."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.uniform(0.1, 0.9, rows), rng.normal(0, 0.4, rows),
                         rng.uniform(0.3, 1.8, rows), rng.normal(0, 0.4, rows)])
    return X, rng.uniform(-0.05, 0.05, rows), rng.normal(size=(rows, 2))


def _lone_rows(fn, *stacks):
    return np.array([fn(*row) for row in zip(*stacks)])


@pytest.mark.parametrize("v_d", [1.0, None])
def test_mech_kernels_on_a_stack_equal_lone_calls(v_d):
    plant = oc.MechPlant(alpha=MECH_ALPHA, v_d=v_d)
    X, e, mu = _stack(53)
    mu = mu[:, :plant.dims.n_mu]
    tau = plant.tau(X[:, 0])
    tau_hat = tau + e
    assert np.array_equal(plant.y2d(tau_hat), _lone_rows(plant.y2d, tau_hat))
    assert np.array_equal(plant.jet(tau_hat), _lone_rows(plant.jet, tau_hat).T)
    assert np.array_equal(eta_at(plant, X, tau_hat),
                          _lone_rows(lambda x, th: eta_at(plant, x, th), X, tau_hat))
    assert np.array_equal(eta_of(plant, X), _lone_rows(lambda x: eta_of(plant, x), X))
    assert np.array_equal(plant.z_of(X), _lone_rows(plant.z_of, X))
    lin = oc.mech_feedback_linearize
    assert np.array_equal(lin(plant, X, mu), _lone_rows(lambda x, m: lin(plant, x, m), X, mu))
    assert np.array_equal(
        lin(plant, X, mu, tau=tau_hat),
        _lone_rows(lambda x, m, th: lin(plant, x, m, tau=th), X, mu, tau_hat))
    dpd = oc.derive_phase_disturbance
    assert np.array_equal(dpd(plant, X, e), _lone_rows(lambda x, ei: dpd(plant, x, ei), X, e))


def _law_loop(v_d, q1_plus=1.0):
    plant = oc.MechPlant(alpha=MECH_ALPHA, q1_plus=q1_plus, v_d=v_d)
    cert = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.1)
    return oc.MechClosedLoop(plant=plant, cert=cert)


def _recording(law, calls):
    """The law, keeping each call's (psi0, ||psi1||^2) in calls."""
    def recording(psi0, denom):
        calls.append((psi0, denom))
        return law(psi0, denom)

    return recording


def _unit_law(psi0, denom):
    """A law whose gain is 1, so that mu = psi1."""
    return np.ones(np.shape(psi0))


def _rows(columns):
    """A body's list of columns, a float among them (u1 = 0.0 at k1 = 0), as rows."""
    return np.array(np.broadcast_arrays(*columns)).T


@pytest.mark.parametrize("v_d", [1.0, None])
def test_mech_law_forms_on_columns_equal_lone_floats(v_d):
    # the written-out forms make the same IEEE operations on a stack's columns
    # as on a lone state's Python floats: each row's psi0 and ||psi1||^2, as
    # the law gets them, and under a unit gain (mu = psi1) its dx, are bit for
    # bit the float body's, zeros, overflow and signed zeros included
    loop = _law_loop(v_d)
    X, e, _ = _stack(61)
    X[:4, 1:] = np.array([0.0, -0.0, 1e160, -3e155])[:, None]  # whole rows of (q2, dq1, dq2)
    X[4, 1], X[5, 3] = -0.0, 1e200
    columns, floats = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # Python floats overflow silently
        dx, eta, _, _ = loop.columns(X.T, e, _recording(_unit_law, columns))
    lone = [loop.floats(x, ei, _recording(_unit_law, floats))
            for x, ei in zip(X.tolist(), e.tolist())]
    assert all(type(v) is float for row in lone + floats for v in row)
    ((psi0, denom),) = columns
    assert np.array(floats).tobytes() == np.array([psi0, denom]).T.tobytes()
    assert np.array(lone).tobytes() == _rows(dx).tobytes()
    assert np.isinf(psi0[2:4]).all() and np.isinf(denom[2:4]).all()
    assert np.array(eta).T.tobytes() == eta_at(loop.plant, X, loop.plant.tau(X[:, 0]) + e).tobytes()


@pytest.mark.parametrize("v_d", [1.0, None])
def test_mech_law_forms_agree_with_the_operator_rows(v_d):
    # BLAS may fuse a product into its sum, so the matvec/vecdot oracle agrees
    # to a few ulps of each form's scale (the same sums over absolute values),
    # and so does mu = k psi1; the forms are read from the columns body, as
    # its law gets psi0 and ||psi1||^2 and, under a unit gain, gives psi1
    loop = _law_loop(v_d)
    X, e, _ = _stack(67, rows=400)
    calls = []
    _, eta, psi1, _ = loop.columns(X.T, e, _recording(_unit_law, calls))
    eta = np.array(eta).T
    n = eta.shape[1]
    W = oc.clf_operator(loop.cert, loop.plant.dyn)
    rows, abs_rows = oc.matvec(W, eta), oc.matvec(np.abs(W), np.abs(eta))
    want_psi1, want_m = rows[:, 2 * n:-n], rows[:, -n:]
    want = (np.vecdot(eta, want_m), np.vecdot(want_psi1, want_psi1), want_psi1)
    scale = (np.vecdot(np.abs(eta), abs_rows[:, -n:]), want[1], abs_rows[:, 2 * n:-n])
    got = (*calls[0], np.array(psi1).T)
    for g, w, s in zip(got, want, scale):
        assert np.all(np.abs(g - w) <= 1e-14 * s)
    gains, want_gains = oc.min_norm_mu(got[0], got[1]), oc.min_norm_mu(want[0], want[1])
    mu, want_mu = gains[:, None] * got[2], want_gains[:, None] * want_psi1
    # |dk| <= |d psi0| / ||psi1||^2 + |k| |d ||psi1||^2| / ||psi1||^2
    dk = 1e-14 * (scale[0] + np.abs(want[0])) / want[1]
    assert np.all(np.abs(mu - want_mu) <= (dk + 1e-14 * np.abs(want_gains))[:, None] * scale[2]
                  + 1e-14 * np.abs(want_mu))
    assert mu.any() and not mu.all()  # both branches of the law
    # the body's own mu under the law is that gain times psi1
    assert np.array(loop.columns(X.T, e, oc.min_norm_mu)[2]).T.tobytes() == mu.tobytes()


def _column_field(loop, X, e, law):
    """The mech RHS of each row of a stack X (S, 4) by the public column kernels.

    ``check_phases``, ``MechPlant.jet`` and the oracle ``outputs``, the
    loop's forms and law (its ``columns`` body's mu, with the given law) and
    ``mech_feedforward`` on X's columns: the reference of the loop's float
    body.  The columns body's outputs are the oracle's bits.  Also returns
    the eta_hat columns and the mu columns, k psi1.
    """
    plant, xs = loop.plant, X.T
    tau = plant.tau(xs[0])
    tau_hat = tau + e
    check_phases(tau_hat, tau)
    jet = plant.jet(tau_hat)
    eta_hat = outputs(plant, xs, jet)
    _, eta, mu, _ = loop.columns(xs, e, law)
    assert np.array(eta).tobytes() == np.array(eta_hat).tobytes()
    u1, u2 = mech_feedforward(plant, xs, mu, jet)
    return np.array([xs[2], xs[3], u1, u2]).T, eta_hat, mu


#: entries that the drawn states mix in: signed zeros, subnormals, and
#: magnitudes whose squares or products overflow
_ODD = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e155, -1e160, 1e200, 1e300, -1e308]
#: q1 = 3 tau here (q1_minus = 0, delta = 3, whose quotients round): both
#: domain edges, near and past them, and phases that are not finite, as an
#: overflow within a step makes them
_Q1 = [0.0, -0.0, 3.0, 3e-9, -3e-9, 3.0 + 3e-9, -6e-9, 3.0 + 6e-9, 5e-324, 3.0 - 2.0 ** -51,
       1e308, math.nan, math.inf, -math.inf]
#: phase errors that put tau_hat on its edges, past them, or leave it as it is
_E = [0.0, -0.0, 1e-9, -1e-9, 2e-9, -2e-9, 5e-324]


def _entry(odd, lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from(odd))


@pytest.mark.parametrize("v_d", [1.0, None])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_entry(_Q1, -0.15, 3.15), _entry(_ODD, -3.0, 3.0), _entry(_ODD, -2.0, 2.0),
       _entry(_ODD, -3.0, 3.0), _entry(_E, -0.02, 0.02))
def test_mech_stage_equals_the_column_kernels(v_d, q1, q2, dq1, dq2, e):
    # the loop's float body on a lone state's Python floats is bit for bit
    # the public column kernels on a stack of one row, and raises what they
    # raise: check_phases' text for a finite phase out of the domain, the
    # law's text (with no row index) for an overflowed state, and an
    # overflow for a phase that is not finite
    loop = _law_loop(v_d, q1_plus=3.0)
    x = [q1, q2, dq1, dq2]
    lone, stacked = [], []  # the law's (psi0, ||psi1||^2) on each call
    try:
        got = loop.floats(x, e, _recording(oc.min_norm_mu, lone))
    except (ValueError, oc.ClfConsistencyError) as exc:
        got = (type(exc), str(exc))
    with np.errstate(all="ignore"):
        try:
            want, eta_hat, mu = _column_field(loop, np.array([x]), np.array([e]),
                                              _recording(oc.min_norm_mu, stacked))
        except ValueError as exc:  # a phase out of the domain
            tau_hat = q1 / 3.0 + e
            want = ((ValueError, str(exc)) if math.isfinite(tau_hat) else
                    (oc.ClfConsistencyError, f"the state overflowed: phase {tau_hat:g}"))
        except oc.ClfConsistencyError as exc:
            want = (oc.ClfConsistencyError, str(exc).removeprefix("row 0: "))
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is list and all(type(v) is float for v in got)
    assert np.array(got).tobytes() == want[0].tobytes()
    # one law call per body call, on the forms' bits of the one-row columns
    (forms,), (columns,) = lone, stacked
    assert all(type(v) is float for v in forms)
    assert np.array(forms).tobytes() == np.concatenate(columns).tobytes()


@pytest.mark.parametrize("v_d", [1.0, None])
def test_mech_stage_bodies_name_no_callable_but_the_law(v_d):
    # floats and columns share bits by construction: the generated bodies
    # reach no function but the law (an argument), float and the phase
    # check, and hold no constant but floats, so only + - * / and
    # comparisons touch the state; the jet's body reaches nothing
    loop = _law_loop(v_d)
    assert set(loop.floats.__code__.co_names) == {"float", "_phase_exit"}
    assert set(loop.columns.__code__.co_names) == {"check_phases"}
    assert loop.plant._jet.__code__.co_names == ()
    for body in (loop.floats, loop.columns, loop.plant._jet):
        assert all(type(c) is float for c in body.__code__.co_consts if c is not None)


#: Bezier coefficients with signed zeros, subnormals and magnitudes up to the config's 1e300
_ALPHA_ODD = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e155, -1e200, 1e300, -1e300]
#: phases at and near the ends of [0, 1]
_TAU = [0.0, -0.0, 1.0, 5e-324, 1e-9, 1.0 - 2.0 ** -53, 0.5]
_JET_CERTS = {}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([1.0, None]), st.lists(_entry(_ALPHA_ODD, -2.0, 2.0), min_size=6,
                                              max_size=6),
       _entry(_TAU, 0.0, 1.0), _entry(_E[:4] + [5e-324], -1e-9, 1e-9))
def test_mech_stage_jet_is_the_plant_jet(v_d, alpha, tau, e):
    # the jet written into the stage is MechPlant.jet bit for bit: at q1 = tau
    # (delta = 1), q2 = dq2 = -0.0 and dq1 = 1, the outputs are y2 = -y2d and
    # dy2 = -y2d' exactly and ff is y2d'' (1 * 1) + y2d' * 0.0 + 0.0; the
    # float body's dx is the columns body's on the same floats
    plant = oc.MechPlant(alpha=np.array(alpha), v_d=v_d)
    if v_d not in _JET_CERTS:
        _JET_CERTS[v_d] = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.1)
    loop = oc.MechClosedLoop(plant=plant, cert=_JET_CERTS[v_d])
    x = [tau, -0.0, 1.0, -0.0]
    y2d, dy2d, d2y2d = plant.jet(tau + e)
    zero = lambda psi0, denom: np.zeros(np.shape(psi0))  # the forms may overflow here
    dx, eta, _, ff = loop.columns(x, e, zero)
    assert np.array(eta[-2:]).tobytes() == np.array([-y2d, -dy2d]).tobytes()
    assert np.array(ff).tobytes() == np.array(d2y2d * (1.0 * 1.0) + dy2d * 0.0 + 0.0).tobytes()
    assert np.array(loop.floats(x, e, zero)).tobytes() == np.array(dx).tobytes()


def test_mech_constants_that_are_not_finite_are_refused():
    # the stage writes its constants in as reprs: alpha's differences and the
    # phase interval's length must be finite
    with pytest.raises(ValueError, match="^non-finite constant -inf in a closed loop's field$"):
        oc.MechPlant(alpha=np.array([1.7e308, -1.7e308, 0.0, 0.0, 0.0, 0.0]))
    plant = oc.MechPlant(alpha=MECH_ALPHA, q1_minus=-1e308, q1_plus=1e308)
    cert = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.1)
    with pytest.raises(ValueError, match="^non-finite constant inf in a closed loop's field$"):
        oc.MechClosedLoop(plant=plant, cert=cert)


def test_mech_phase_error_on_an_array_of_times(mech_plant, mech_cert):
    # the mech loop's input tabled on an array of times, as integrate tables
    # it, is its signal sampled one time at a time, e in entry 0; under the
    # zero kind or no signal it is +0.0.  Any other kind is refused
    ts = np.arange(200) * 1e-3
    sig = oc.DisturbanceSignal(kind="phase_error_driven", dim=2, amplitude=0.02, frequency=1.0)
    zero = oc.DisturbanceSignal(kind="zero", dim=2)
    for signal in (sig, zero, None):
        loop = oc.MechClosedLoop(plant=mech_plant, cert=mech_cert, signal=signal)
        tabled = oc.DisturbanceTable([loop.signal], 2, 0.2)(ts)[:, 0]
        lone = np.array([np.zeros(2) if signal is None else oc.sample(signal, float(t))
                         for t in ts])
        assert tabled.tobytes() == lone.tobytes()
        assert tabled[:, 0].any() == (signal is sig)
        assert signal is sig or tabled.tobytes() == np.zeros((200, 2)).tobytes()
    with pytest.raises(ValueError, match="takes a zero or phase_error_driven signal"):
        oc.MechClosedLoop(plant=mech_plant, cert=mech_cert,
                          signal=oc.DisturbanceSignal(kind="sinusoid", dim=2, amplitude=0.1))


def test_mech_stack_names_its_first_out_of_domain_phase(mech_plant):
    X, e, mu = _stack(59, rows=8)
    tau = mech_plant.tau(X[:, 0])
    tau_hat = tau.copy()
    tau_hat[[3, 6]] = [1.25, -0.5]
    with pytest.raises(ValueError, match=r"^phase 1\.25 outside \[0, 1\]$"):
        oc.mech_feedback_linearize(mech_plant, X, mu, tau=tau_hat)
    e[5] = 1.0 - tau[5] + 0.125  # rows 0-4 stay in [0, 1]; rows 5 and 7 leave it
    e[7] = -1.0
    with pytest.raises(ValueError) as lone:
        oc.derive_phase_disturbance(mech_plant, X[5], e[5])
    assert str(lone.value).startswith("phase ")
    with pytest.raises(ValueError) as stack:
        oc.derive_phase_disturbance(mech_plant, X, e)
    assert str(stack.value) == str(lone.value)
    # a row whose true phase alone is out comes first and is named as such
    X[2, 0] = 1.5 * mech_plant.delta + mech_plant.q1_minus
    e[2] = -0.75
    with pytest.raises(ValueError, match=r"^true phase 1\.5 outside \[0, 1\]$"):
        oc.derive_phase_disturbance(mech_plant, X, e)


# --- closed-loop wrappers -------------------------------------------------------

def test_closed_loop_validation(hopf01, dims01, dyn01, mech_plant, mech_cert):
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    with pytest.raises(ValueError):
        oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="bogus")
    with pytest.raises(ValueError):
        oc.DisturbedClosedLoop(plant=hopf01, cert=mech_cert)
    sig = oc.DisturbanceSignal(kind="sinusoid", dim=2, amplitude=0.1)
    with pytest.raises(ValueError):
        oc.MechClosedLoop(plant=mech_plant, cert=mech_cert, signal=sig)


def test_closed_loop_periodicity(hopf01, dims01, dyn01):
    # with d = 0 and (eta, z) on the orbit the flow is 2 pi / omega periodic
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm", sigma=1.0)
    T = hopf01.period
    rec = oc.integrate(loop, np.array([0.0, 0.0, 1.0, 0.0]), T=T, dt=T / 4096)
    assert np.max(np.abs(rec.z[-1] - rec.z[0])) <= 1e-8
    assert np.max(rec.dist) <= 1e-9


HOPF_DIMS = [(0, 1), (0, 3), (1, 0), (2, 0), (1, 2), (2, 3)]


def _hopf_loop_and_inputs(k1, k2, controller):
    """A Hopf loop with a random batch of 32 states and mu-channel disturbances."""
    dims = oc.OutputDims(k1, k2)
    plant = oc.HopfPlant(dims=dims)
    cert = oc.certificate(plant.dyn, np.eye(dims.n_eta), 0.2)
    loop = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller=controller, eps_bar=0.3)
    rng = np.random.default_rng(7 + 10 * k1 + k2)
    return loop, rng.normal(size=(32, dims.n_eta + 2)), 0.1 * rng.normal(size=(32, dims.n_mu))


#: batch sizes from a lone row to all 32 drawn rows
BATCH_SIZES = (1, 2, 5, 8, 16, 17, 32)


def _columns(loop, X, D):
    """The Hopf RHS of a batch X (B, w) under its D (B, m) by the loop's column body, (B, w)."""
    return np.array(loop.columns(np.ascontiguousarray(X.T), np.ascontiguousarray(D.T),
                                 oc.min_norm_mu)[0]).T


def _lone_fields(loop, X, D):
    """The field on each row of X and its d alone, given as lists, each RHS as an array."""
    return [np.array(loop.field(0.0, x.tolist(), d.tolist())) for x, d in zip(X, D)]


def _batches_and_lone_states(loop, X, D):
    """The RHS on the first B rows for every B in BATCH_SIZES, and on each row alone.

    Each batch runs on columns (``columns``, as records and checks run it)
    and as the flat lists of Python floats that integrate steps, which must
    give the columns' bytes as a list.
    """
    batches = [_columns(loop, X[:B], D[:B]) for B in BATCH_SIZES]
    for B, out in zip(BATCH_SIZES, batches):
        flat = loop.field(0.0, X[:B].ravel().tolist(), D[:B].ravel().tolist())
        assert type(flat) is list and np.array(flat).tobytes() == out.tobytes(), B
    return batches, _lone_fields(loop, X, D)


@pytest.mark.parametrize("k1, k2", HOPF_DIMS)
@pytest.mark.parametrize("controller", ["min_norm", "min_norm_plus_us"])
def test_hopf_field_places_f_eta_plus_g_v(k1, k2, controller):
    # the field is F eta + G(u_s + k psi1 + d) on eta and C eta + (-w z2, w z1)
    # + lh (r0^2 - |z|^2) z on z, bitwise as these numpy sums make it: psi1
    # and M eta from the laws' operator rows by matvec, psi0 = eta . M eta and
    # ||psi1||^2 by vecdot, one law call, u_s = damping_gain psi1, every sum
    # left to right as the generated stage sums (the zero coefficients that
    # it skips add only exact zeros on data without zeros).  G places v on
    # its rows only, and F is zero there.  Every batch size, the flat lists
    # and a lone state give the same bytes
    loop, X, D = _hopf_loop_and_inputs(k1, k2, controller)
    plant, cert = loop.plant, loop.cert
    n, m, G, F, C = plant.dims.n_eta, plant.dims.n_mu, plant.dyn.G, plant.dyn.F, plant.coupling
    g = G.argmax(axis=0)
    assert np.array_equal(G[g, np.arange(m)], np.ones(m)) and np.count_nonzero(G) == m
    assert not F[g].any()
    W = oc.clf_operator(cert, plant.dyn)
    eta, z = X[:, :n], X[:, n:]
    psi1 = oc.matvec(W[2 * n:2 * n + m], eta)
    gains = oc.min_norm_mu(clf.vecdot(eta, oc.matvec(W[2 * n + m:], eta)), clf.vecdot(psi1, psi1))
    # both branches (k2 = 0: psi0 > 0 off the origin)
    assert gains.shape == (32,) and gains.any() and (not gains.all() or k2 == 0)
    v = gains[:, None] * psi1
    if loop.damped:
        v = clf.damping_gain(loop.eps_bar) * psi1 + v
    want = np.empty_like(X)
    want[:, :n] = oc.matvec(F, eta)
    want[:, g] = v + D
    radial = plant.lambda_h * (plant.r0 ** 2 - (z[:, 0] * z[:, 0] + z[:, 1] * z[:, 1]))
    want[:, n] = oc.matvec(C[:1], eta)[:, 0] + -plant.omega * z[:, 1] + radial * z[:, 0]
    want[:, n + 1] = oc.matvec(C[1:], eta)[:, 0] + plant.omega * z[:, 0] + radial * z[:, 1]
    batches, lone = _batches_and_lone_states(loop, X, D)
    for B, out in zip(BATCH_SIZES, batches):
        assert out.shape == (B, n + 2) and out.tobytes() == want[:B].tobytes(), B
    assert all(x.shape == (n + 2,) and x.tobytes() == y.tobytes() for x, y in zip(lone, want))


def test_hopf_stage_takes_one_loop_per_row():
    # the generator writes each row from its own loop, so rows under other
    # certificates, controllers, damping and dims share one stage and one
    # law call, and each row is bitwise its own loop's field
    rng = np.random.default_rng(12)
    loops, X, D = [], [], []
    for k1, k2, eps, controller in [(1, 2, 0.1, "min_norm_plus_us"), (1, 2, 0.3, "min_norm"),
                                    (0, 1, 0.2, "min_norm_plus_us")]:
        dims = oc.OutputDims(k1, k2)
        plant = oc.HopfPlant(dims=dims)
        cert = oc.certificate(plant.dyn, _spd(rng, dims.n_eta), eps)
        loops.append(oc.DisturbedClosedLoop(plant=plant, cert=cert, controller=controller))
        X.append(rng.normal(size=dims.n_eta + 2))
        D.append(0.1 * rng.normal(size=dims.n_mu))
    calls = []
    law = lambda psi0, denom: calls.append(psi0) or oc.min_norm_mu(psi0, denom)
    got = plants._hopf_stage(loops, False)(np.concatenate(X).tolist(), np.concatenate(D).tolist(),
                                           law)
    assert len(calls) == 1 and len(calls[0]) == 3
    want = np.concatenate([_lone_fields(loop, [x], [d])[0] for loop, x, d in zip(loops, X, D)])
    assert np.array(got).tobytes() == want.tobytes()


def test_hopf_field_rejects_a_flat_state_of_partial_rows():
    # a flat list is whole rows of state_dim floats; anything else is named
    loop, X, D = _hopf_loop_and_inputs(1, 2, "min_norm")
    for size in (0, 6, 8):
        with pytest.raises(ValueError, match=f"{size} floats are not whole rows of 7"):
            loop.field(0.0, [0.1] * size, D[:1].ravel().tolist())
    assert len(loop.field(0.0, X[:2].ravel().tolist(), D[:2].ravel().tolist())) == 14


def _six_block_field(loop, X, D):
    """The Hopf field by one BLAS matvec of a six-block state operator: the stage's oracle.

    This is the formulation that the generated stage replaced.  W_x = [L;
    Psi; M; Q; I; Z] on the state x, with L the linear field (F, the damping
    K on G's rows, C and the rotation), Psi = G 2 G'P_eps and M the law's
    blocks, Z selecting z and Q = Psi + Z; two stacked views of its rows meet
    in one vecdot: Psi x . Q x = ||psi1||^2, M x . x = psi0, Q x . Z x = |z|^2;
    then dx = L x + c Q x + G d with c = k on eta and lh (r0^2 - |z|^2) on z.
    Returns dx and the same sums over absolute values, the scale of the
    rounding: L x's, psi1's, psi0's and |z|^2's terms.
    """
    plant, cert = loop.plant, loop.cert
    n, m = plant.dims.n_eta, plant.dims.n_mu
    w = n + 2
    W = oc.clf_operator(cert, plant.dyn)
    g = plant.dyn.G.argmax(axis=0)
    L, Psi, M, Z = np.zeros((4, w, w))
    L[:n, :n] = plant.dyn.F
    if loop.damped:
        L[g, :n] = oc.u_s_damping(cert, W.T, loop.eps_bar).T
    L[n:, :n] = plant.coupling
    L[n:, n:] = [[0.0, -plant.omega], [plant.omega, 0.0]]
    Psi[g, :n] = W[2 * n:2 * n + m]
    M[:n, :n] = W[2 * n + m:]
    Z[n:, n:] = np.eye(2)
    op = np.vstack([L, Psi, M, Psi + Z, np.eye(w), Z])
    rows, abs_rows = ((A @ x[..., None])[..., 0].reshape(-1, 6, w)
                      for A, x in ((op, X), (np.abs(op), np.abs(X))))
    forms = np.vecdot(rows[:, 1:4], rows[:, 3:])
    gains = oc.min_norm_mu(forms[:, 1], forms[:, 0])
    lh, r0_sq = plant.lambda_h, plant.r0 ** 2
    coef = np.where(np.arange(w) < n, gains[:, None], lh * (r0_sq - forms[:, 2])[:, None])
    Gd = np.zeros_like(X)
    Gd[:, g] = D
    return rows[:, 0] + coef * rows[:, 3] + Gd, forms, abs_rows, np.vecdot(abs_rows[:, 1:4],
                                                                            abs_rows[:, 3:])


def _spd(rng, n):
    """A dense SPD Q with eigenvalues in [0.5, 2] and a random eigenbasis."""
    R, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Q = (R * rng.uniform(0.5, 2.0, n)) @ R.T
    return 0.5 * (Q + Q.T)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from([0, 1, 2]), st.sampled_from([1, 2, 3]),
       st.sampled_from(["min_norm", "min_norm_plus_us"]), st.sampled_from([1, 2, 5, 16, 17]),
       st.sampled_from([0.1, 0.3, 1.0]), st.integers(0, 2**32 - 1), st.integers(-3, 3))
def test_hopf_stage_matches_the_six_block_reference(k1, k2, controller, B, eps, seed, scale):
    # the generated stage against the six-block numpy formulation: each entry
    # within 1e-14 of the rounding scale (the terms' absolute sums, as the
    # mech law_forms oracle bounds them; k = -psi0/||psi1||^2 moves by at
    # most (|d psi0| + |k| |d ||psi1||^2|) / ||psi1||^2).  The batch on
    # columns, the rows as one flat list of Python floats and each row
    # alone are the same bytes
    rng = np.random.default_rng(seed)
    dims = oc.OutputDims(k1, k2)
    plant = oc.HopfPlant(dims=dims, omega=rng.uniform(0.5, 2.0), lambda_h=rng.uniform(0.5, 2.0),
                         r0=rng.uniform(0.5, 2.0), coupling=rng.normal(size=(2, dims.n_eta)))
    cert = oc.certificate(plant.dyn, _spd(rng, dims.n_eta), eps)
    loop = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller=controller,
                                  eps_bar=rng.uniform(0.05, 1.0))
    n, w = dims.n_eta, dims.n_eta + 2
    X = rng.normal(size=(B, w)) * 10.0 ** rng.uniform(scale - 1, scale + 1, size=(B, 1))
    D = 0.1 * rng.normal(size=(B, dims.n_mu))
    got = _columns(loop, X, D)
    want, forms, abs_rows, abs_forms = _six_block_field(loop, X, D)
    gains = oc.min_norm_mu(forms[:, 1], forms[:, 0])
    dk = 1e-14 * (abs_forms[:, 1] + np.abs(forms[:, 1]) + np.abs(gains) * forms[:, 0]) / forms[:, 0]
    dr = 1e-14 * plant.lambda_h * (plant.r0 ** 2 + abs_forms[:, 2])
    dcoef = np.where(np.arange(w) < n, (dk + 1e-14 * np.abs(gains))[:, None], dr[:, None])
    tol = 1e-14 * (abs_rows[:, 0] + np.abs(want)) + dcoef * abs_rows[:, 3]
    assert np.all(np.abs(got - want) <= tol), (got - want, tol)
    flat = loop.field(0.0, X.ravel().tolist(), D.ravel().tolist())
    assert np.array(flat).tobytes() == got.tobytes()
    assert np.array(_lone_fields(loop, X, D)).tobytes() == got.tobytes()


@pytest.mark.parametrize("k1, k2", HOPF_DIMS)
@pytest.mark.parametrize("controller", ["min_norm", "min_norm_plus_us"])
def test_hopf_field_matches_written_out_dynamics(k1, k2, controller):
    # the oracle: d eta/dt = F eta + G(mu + u_s + d) and dz/dt = Psi0(z) + C eta
    # with mu, u_s and Psi0 written out from their formulas, to rtol 1e-13 and
    # an atol of 1e-13 times the size of the terms that are summed; every
    # batch size and a lone state give the 32-row batch's bytes
    loop, X, D = _hopf_loop_and_inputs(k1, k2, controller)
    plant, cert = loop.plant, loop.cert
    F, G, C, P = plant.dyn.F, plant.dyn.G, plant.coupling, cert.P_eps
    n, w, lh, r0 = plant.dims.n_eta, plant.omega, plant.lambda_h, plant.r0
    batches, lone = _batches_and_lone_states(loop, X, D)
    out = batches[-1]
    for B, got in zip(BATCH_SIZES, batches):
        assert got.tobytes() == out[:B].tobytes(), B
    assert all(x.tobytes() == y.tobytes() for x, y in zip(lone, out))
    for x, d, got in zip(X, D, out):
        eta, (z1, z2) = x[:n], x[n:]
        LF_V, V = eta @ (F.T @ P + P @ F) @ eta, eta @ P @ eta
        psi0, psi1 = LF_V + cert.rate * V, 2.0 * G.T @ P @ eta
        mu = -(psi0 / (psi1 @ psi1)) * psi1 if psi0 > 0.0 else np.zeros_like(psi1)
        us = -(1.0 / (2.0 * loop.eps_bar)) * G.T @ P @ eta if loop.damped else 0.0 * mu
        radial = lh * (r0 ** 2 - z1 * z1 - z2 * z2)
        psi_0 = np.array([-w * z2 + radial * z1, w * z1 + radial * z2])
        want = np.concatenate([F @ eta + G @ (mu + us + d), psi_0 + C @ eta])
        # mu's terms are of size (|LF_V| + rate V) / ||psi1||, as in the law's oracle
        mu_scale = (abs(LF_V) + cert.rate * V) / np.linalg.norm(psi1)
        scale = np.concatenate([
            np.abs(F) @ np.abs(eta) + np.abs(G) @ (mu_scale + np.abs(us) + np.abs(d)),
            np.abs(w * x[n:]) + np.abs(radial * x[n:]) + np.abs(C) @ np.abs(eta)])
        assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(want) + scale)), (got, want)


@pytest.mark.parametrize("eps_bar", [0.0, 1.5, float("nan")])
@pytest.mark.parametrize("controller", ["min_norm", "min_norm_plus_us"])
def test_closed_loop_rejects_eps_bar_at_construction(hopf01, dyn01, eps_bar, controller):
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    with pytest.raises(ValueError, match=r"eps_bar must lie in \(0, 1\]"):
        oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller=controller, eps_bar=eps_bar)
