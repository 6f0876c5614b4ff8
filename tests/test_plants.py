import math
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitclf as oc
from orbitclf import plants
from orbitclf.clf import SCALAR_ROWS
from orbitclf.plants import check_phases, mech_feedforward, pzd_distance


# --- Hopf plant ---------------------------------------------------------------

def _hopf_rhs(plant, eta, z):
    """(d eta/dt, dz/dt) of the min-norm closed loop with d = 0; mu = 0 at eta = 0."""
    cert = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.5)
    loop = oc.DisturbedClosedLoop(plant=plant, cert=cert)
    rhs = loop.field(0.0, np.concatenate([eta, z]), np.zeros(plant.dims.n_mu))
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
        z = oc.rk4_step(lambda t, y: hopf01.zero_field(y), i * dt, z, dt)
    assert np.allclose(z, hopf01.exact_zero_solution(z0, T), atol=1e-9)


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
    v, grad, _ = oc.vz_converse_lyapunov(np.zeros(0), np.array([1.0, 0.0]), hopf01)
    assert v == 0.0
    assert np.allclose(grad, 0.0)


def test_vz_hand_value(hopf01):
    v, _, _ = oc.vz_converse_lyapunov(np.zeros(0), np.array([1.2, 0.0]), hopf01)
    assert np.isclose(v, 0.1936, atol=1e-12)


def test_vz_outside_annulus_rejected(hopf01):
    with pytest.raises(ValueError):
        oc.vz_converse_lyapunov(np.zeros(0), np.array([1.7, 0.0]), hopf01)


def test_vz_grid_inequalities_k1_0(hopf01):
    # the three converse-Lyapunov inequalities on a 10^4 annulus grid
    consts = oc.converse_constants(hopf01)
    rng = np.random.default_rng(17)
    radii = rng.uniform(hopf01.r0 - consts.r, hopf01.r0 + consts.r, 10_000)
    angles = rng.uniform(0.0, 2.0 * np.pi, 10_000)
    for rr, th in zip(radii, angles):
        z = rr * np.array([np.cos(th), np.sin(th)])
        v, grad, _ = oc.vz_converse_lyapunov(np.zeros(0), z, hopf01)
        dist = pzd_distance(np.zeros(0), z, hopf01)
        assert consts.c4 * dist**2 <= v + 1e-12
        assert v <= consts.c5 * dist**2 + 1e-12
        vdot = grad @ hopf01.zero_field(z)
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
        v, grad, _ = oc.vz_converse_lyapunov(y1, z, plant)
        dist = pzd_distance(y1, z, plant)
        assert consts.c4 * dist**2 <= v + 1e-12
        assert v <= consts.c5 * dist**2 + 1e-12
        # partial zero dynamics: dz/dt = Psi0 (no coupling), dy1/dt = -y1_rate y1
        vdot = grad[1:] @ plant.zero_field(z) + grad[:1] @ (-plant.y1_rate * y1)
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
    assert np.allclose(mech_plant.eta_of(x), 0.0, atol=1e-14)

    def field(t, y):
        u = oc.mech_feedback_linearize(mech_plant, y, np.zeros(2))
        return np.array([y[2], y[3], u[0], u[1]])

    dt = 1e-3
    for i in range(600):
        x = oc.rk4_step(field, i * dt, x, dt)
    assert np.max(np.abs(mech_plant.eta_of(x))) <= 1e-9


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
        xp = oc.rk4_step(field, 0.0, x, h)
        xm = oc.rk4_step(field, 0.0, x, -h)
        fd = (mech_plant.eta_of(xp) - mech_plant.eta_of(xm)) / (2.0 * h)
        pred = dyn.F @ mech_plant.eta_of(x) + dyn.G @ mu
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
    pred = dyn.F @ plant.eta_of(x) + dyn.G @ np.array([0.5])
    assert np.allclose(rate, pred, atol=1e-12)


def test_mech_phi_roundtrip(mech_plant):
    rng = np.random.default_rng(41)
    for _ in range(100):
        x = np.array([rng.uniform(0.05, 0.95), rng.normal(0, 0.5),
                      rng.uniform(0.2, 2.0), rng.normal(0, 0.5)])
        x2 = mech_plant.x_of(mech_plant.eta_of(x), mech_plant.z_of(x))
        assert np.max(np.abs(x - x2)) <= 1e-10


def test_mech_pzd_invariance(mech_plant, mech_cert):
    # on y2 = dy2 = 0 with y1 relaxed, the min-norm controller keeps eta2 zero
    dyn = oc.build_fg(mech_plant.dims)
    tau0 = 0.2
    x = np.array([tau0 * mech_plant.delta + mech_plant.q1_minus, mech_plant.y2d(tau0),
                  1.3, mech_plant.jet(tau0)[1] * 1.3 / mech_plant.delta])
    eta = mech_plant.eta_of(x)
    assert abs(eta[0]) > 0.1  # y1 nonzero: genuinely partial
    assert np.allclose(eta[1:], 0.0, atol=1e-14)

    W, n = oc.clf_operator(mech_cert, dyn), mech_plant.dims.n_eta

    def field(t, y):
        eta_y = mech_plant.eta_of(y)
        rows = oc.matvec(W, eta_y)
        psi1 = rows[2 * n:-n]
        mu = oc.min_norm_mu(np.vecdot(eta_y, rows[-n:]), np.vecdot(psi1, psi1)) * psi1
        u = oc.mech_feedback_linearize(mech_plant, y, mu)
        return np.array([y[2], y[3], u[0], u[1]])

    dt = 1e-3
    for i in range(400):
        x = oc.rk4_step(field, i * dt, x, dt)
    eta_end = mech_plant.eta_of(x)
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
    assert np.array_equal(plant.eta_at(X, tau_hat), _lone_rows(plant.eta_at, X, tau_hat))
    assert np.array_equal(plant.eta_of(X), _lone_rows(plant.eta_of, X))
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


@pytest.mark.parametrize("v_d", [1.0, None])
def test_mech_law_forms_on_columns_equal_lone_floats(v_d):
    # the written-out sums make the same IEEE operations on a stack's columns
    # as on a lone state's Python floats: each row's psi0, ||psi1||^2 and
    # psi1 are bit for bit the lone result, zeros, overflow and signed zeros
    # included
    loop = _law_loop(v_d)
    X, e, _ = _stack(61)
    eta = loop.plant.eta_at(X, loop.plant.tau(X[:, 0]) + e)
    eta[:4] = np.array([0.0, -0.0, 1e160, -3e155])[:, None]  # whole rows
    eta[4, 0], eta[5, -1] = -0.0, 1e200
    with np.errstate(over="ignore", invalid="ignore"):  # Python floats overflow silently
        psi0, denom, psi1 = loop.law_forms(tuple(eta.T))
    lone = [loop.law_forms(row.tolist()) for row in eta]
    assert all(type(v) is float for p0, dn, p1 in lone for v in (p0, dn, *p1))
    assert np.array([p0 for p0, _, _ in lone]).tobytes() == psi0.tobytes()
    assert np.array([dn for _, dn, _ in lone]).tobytes() == denom.tobytes()
    assert np.array([p1 for _, _, p1 in lone]).tobytes() == np.array(psi1).T.tobytes()
    assert np.isinf(psi0[2:4]).all() and np.isinf(denom[2:4]).all()


@pytest.mark.parametrize("v_d", [1.0, None])
def test_mech_law_forms_agree_with_the_operator_rows(v_d):
    # BLAS may fuse a product into its sum, so the matvec/vecdot oracle agrees
    # to a few ulps of each form's scale (the same sums over absolute values),
    # and so does mu = k psi1
    loop = _law_loop(v_d)
    X, e, _ = _stack(67, rows=400)
    eta = loop.plant.eta_at(X, loop.plant.tau(X[:, 0]) + e)
    n = eta.shape[1]
    rows = oc.matvec(loop.operator, eta)
    abs_rows = oc.matvec(np.abs(loop.operator), np.abs(eta))
    want_psi1, want_m = rows[:, 2 * n:-n], rows[:, -n:]
    want = (np.vecdot(eta, want_m), np.vecdot(want_psi1, want_psi1), want_psi1)
    scale = (np.vecdot(np.abs(eta), abs_rows[:, -n:]), want[1], abs_rows[:, 2 * n:-n])
    got = loop.law_forms(tuple(eta.T))
    got = (got[0], got[1], np.array(got[2]).T)
    for g, w, s in zip(got, want, scale):
        assert np.all(np.abs(g - w) <= 1e-14 * s)
    gains, want_gains = oc.min_norm_mu(got[0], got[1]), oc.min_norm_mu(want[0], want[1])
    mu, want_mu = gains[:, None] * got[2], want_gains[:, None] * want_psi1
    # |dk| <= |d psi0| / ||psi1||^2 + |k| |d ||psi1||^2| / ||psi1||^2
    dk = 1e-14 * (scale[0] + np.abs(want[0])) / want[1]
    assert np.all(np.abs(mu - want_mu) <= (dk + 1e-14 * np.abs(want_gains))[:, None] * scale[2]
                  + 1e-14 * np.abs(want_mu))
    assert mu.any() and not mu.all()  # both branches of the law


def _column_field(loop, X, e):
    """The mech RHS of each row of a stack X (S, 4) by the public column kernels.

    ``MechPlant.outputs``, ``law_forms``, the batch law and ``mech_feedforward``
    on X's columns: the reference of the loop's stage.  Also returns the
    eta_hat columns that reached ``law_forms`` and the mu columns, k psi1.
    """
    plant, xs = loop.plant, X.T
    tau = plant.tau(xs[0])
    tau_hat = tau + e
    check_phases(tau_hat, tau)
    jet = plant.jet(tau_hat)
    eta_hat = plant.outputs(xs, jet)
    psi0, denom, psi1 = loop.law_forms(eta_hat)
    gains = oc.min_norm_mu(psi0, denom)
    mu = [gains * p for p in psi1]
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
    # the loop's one stage on a lone state's Python floats is bit for bit the
    # public column kernels on a stack of one row, and raises what they
    # raise: check_phases' text for a finite phase out of the domain, the
    # law's text (with no row index) for an overflowed state, and an
    # overflow for a phase that is not finite
    loop = _law_loop(v_d, q1_plus=3.0)
    x = [q1, q2, dq1, dq2]
    # the stage binds its forms function when it is built: spy on a stage
    # built on a recording one
    seen, law_forms, stage = [], loop.law_forms, loop.stage

    def recording(eta):
        seen.append(eta)
        return law_forms(eta)

    object.__setattr__(loop, "stage", plants._mech_stage(loop.plant, recording))
    try:
        got = loop.field(0.0, x, e)
        _, lone_eta, lone_mu, _ = stage(*x, e, oc.min_norm_mu)
    except (ValueError, oc.ClfConsistencyError) as exc:
        got = (type(exc), str(exc))
    object.__setattr__(loop, "stage", stage)
    with np.errstate(all="ignore"):
        try:
            want, eta_hat, mu = _column_field(loop, np.array([x]), np.array([e]))
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
    # one forms call per field call; the outputs that reached it are
    # MechPlant.outputs' bits, and mu is the column law's gain times psi1
    (field_eta,) = seen
    assert np.array(field_eta).tobytes() == np.array(lone_eta).tobytes()
    for lone, columns in ((lone_eta, eta_hat), (lone_mu, mu)):
        assert all(type(v) is float for v in lone)
        assert np.array(lone).tobytes() == np.concatenate(columns).tobytes()


def test_mech_phase_error_on_an_array_of_times(mech_plant, mech_cert):
    ts = np.arange(200) * 1e-3
    sig = oc.DisturbanceSignal(kind="phase_error_driven", dim=2, amplitude=0.02, frequency=1.0)
    for signal in (sig, None):
        loop = oc.MechClosedLoop(plant=mech_plant, cert=mech_cert, signal=signal)
        lone = np.array([loop.phase_error(float(t)) for t in ts])
        assert np.array_equal(loop.phase_error(ts), lone)
    assert np.all(loop.phase_error(ts) == 0.0) and loop.phase_error(0.5) == 0.0


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


#: batch sizes on both sides of the law's switch from Python floats to whole arrays
BATCH_SIZES = (1, 2, 5, 8, SCALAR_ROWS, SCALAR_ROWS + 1, 32)


def _batches_and_lone_states(loop, X, D):
    """The field on the first B rows for every B in BATCH_SIZES, and on each row alone."""
    Gd = loop.place(D)
    batches = [loop.field(0.0, X[:B], Gd[:B]) for B in BATCH_SIZES]
    return batches, [loop.field(0.0, x, d) for x, d in zip(X, Gd)]


@pytest.mark.parametrize("k1, k2", HOPF_DIMS)
@pytest.mark.parametrize("controller", ["min_norm", "min_norm_plus_us"])
def test_hopf_field_places_f_eta_plus_g_v(k1, k2, controller):
    # the field is L x + G mu + G d, plus lh (r0^2 - |z|^2) z on the z rows,
    # bitwise: one matvec of the state operator [L; Psi; M; Q; I; Z] gives L x
    # and the law's rows, one vecdot gives ||psi1||^2, psi0 and |z|^2 as the
    # plain dot products, the law gives each row's gain k with G mu = k Psi x,
    # and d comes placed; G mu, G d and the damping sit on G's rows only, and
    # F is zero there.  Every batch size and a lone state give the same bytes
    loop, X, D = _hopf_loop_and_inputs(k1, k2, controller)
    plant, cert = loop.plant, loop.cert
    n, m, g = plant.dims.n_eta, plant.dims.n_mu, loop.g_rows
    w = n + 2
    off = np.setdiff1d(np.arange(w), g)
    Gd = loop.place(D)
    assert np.array_equal(Gd[:, g], D) and not Gd[:, off].any()
    assert np.array_equal(Gd[:, :n], oc.matvec(plant.dyn.G, D))
    L, Psi, M, Q, I, Z = loop.operator.reshape(6, w, w)
    W = oc.clf_operator(cert, plant.dyn)
    assert np.array_equal(Psi[g, :n], W[2 * n:2 * n + m]) and not Psi[off].any()
    assert not Psi[:, n:].any()
    assert np.array_equal(M[:n, :n], W[2 * n + m:]) and not M[n:].any() and not M[:, n:].any()
    assert np.array_equal(Z, np.diag([0.0] * n + [1.0, 1.0]))
    assert np.array_equal(Q, Psi + Z) and np.array_equal(I, np.eye(w))
    F_rows = np.setdiff1d(np.arange(n), g)
    assert not plant.dyn.F[g].any()
    assert np.array_equal(L[F_rows, :n], plant.dyn.F[F_rows]) and not L[F_rows, n:].any()
    assert np.array_equal(L[n:], np.hstack([plant.coupling, [[0.0, -plant.omega],
                                                             [plant.omega, 0.0]]]))
    K = oc.u_s_damping(cert, W.T, loop.eps_bar).T if loop.damped else 0.0
    assert np.array_equal(L[g, :n], np.zeros((len(g), n)) + K) and not L[g, n:].any()
    rows = oc.matvec(loop.operator, X)
    blocks = rows.reshape(-1, 6, w)
    psi1, Mx, z = blocks[:, 1], blocks[:, 2], X[:, n:]
    forms = oc.state_forms(blocks)
    assert forms.tobytes() == np.stack([np.vecdot(psi1, psi1), np.vecdot(X, Mx),
                                        np.vecdot(z, z)], axis=-1).tobytes()
    gains = oc.min_norm_mu(np.vecdot(X, Mx), np.vecdot(psi1, psi1))
    # both branches (k2 = 0: psi0 > 0 off the origin)
    assert gains.shape == (32,) and gains.any() and (not gains.all() or k2 == 0)
    Gmu = gains[:, None] * psi1
    assert not Gmu[:, off].any() and Gmu[:, g].any()
    want = blocks[:, 0] + Gmu + Gd
    want[:, n:] += (plant.lambda_h * (plant.r0 ** 2 - np.vecdot(z, z)))[:, None] * z
    batches, lone = _batches_and_lone_states(loop, X, D)
    for B, out in zip(BATCH_SIZES, batches):
        assert out.shape == (B, w) and out.tobytes() == want[:B].tobytes(), B
    assert all(x.shape == (w,) and x.tobytes() == y.tobytes() for x, y in zip(lone, want))


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
