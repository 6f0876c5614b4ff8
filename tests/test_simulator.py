import dataclasses

import numpy as np
import pytest

import orbitclf as oc
from orbitclf import cli, plants, simulator


def test_rk4_single_step_linear_decay():
    # hand-computed classical RK4 step for dz/dt = -z, z0 = 1, dt = 0.1:
    # k = (-1, -0.95, -0.9525, -0.90475) -> z1 = 1 - 0.0951625 exactly
    z1 = oc.rk4_step(lambda t, y: -y, 0.0, np.array([1.0]), 0.1)[0]
    assert z1 == 0.90483750
    # and the O(dt^5) local-error contract against the closed form e^{-0.1}
    assert abs(z1 - np.exp(-0.1)) <= 1e-5
    assert abs(z1 - np.exp(-0.1)) <= 1e-7  # actual truncation is ~8.2e-8


def _rk4_written_out(f, t, y, dt, inputs=None):
    """Classical RK4 with Python-float stage multipliers: the oracle."""
    u0, uh, u1 = ((),) * 3 if inputs is None else [(u,) for u in inputs]
    k1 = f(t, y, *u0)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1, *uh)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2, *uh)
    k4 = f(t + dt, y + dt * k3, *u1)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_rk4_step_equals_the_written_out_formula(mech_plant, mech_cert):
    # rk4_step's 0-d multipliers make the same IEEE products as Python
    # floats: byte for byte on a Hopf batch of five (with a stage input) and
    # on a lone mech state, at a dt that is not a power of two
    dt = 1.3e-3
    loops, x0 = _batch_of_five()
    rng = np.random.default_rng(4)
    inputs = tuple(loops[0].place(0.05 * rng.normal(size=(5, 3))) for _ in range(3))
    mech = oc.MechClosedLoop(plant=mech_plant, cert=mech_cert, signal=None)
    mech_x = np.array([0.05, mech_plant.y2d(0.05) + 0.04, 1.0, -0.05])
    for f, y, u in ((loops[0].field, x0, inputs), (mech.field, mech_x, None)):
        for i in range(3):
            got = oc.rk4_step(f, 0.7 + i * dt, y, dt, u)
            want = _rk4_written_out(f, 0.7 + i * dt, y, dt, u)
            assert got.shape == y.shape and got.tobytes() == want.tobytes()
            y = got


def test_orbit_invariance(hopf01, dyn01):
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm", sigma=1.0)
    rec = oc.integrate(loop, np.array([0.0, 0.0, 1.0, 0.0]), T=20.0, dt=1e-3)
    assert np.max(rec.dist) <= 1e-6


def test_rk4_order_by_richardson(hopf01, dyn01):
    # smooth Hopf flow vs the logistic closed form; halving dt cuts the
    # max error by ~16x
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm", sigma=1.0)
    z0 = np.array([1.6, 0.0])
    errs = []
    for dt in (0.02, 0.01, 0.005):
        rec = oc.integrate(loop, np.concatenate([np.zeros(2), z0]), T=2.0, dt=dt)
        exact = np.array([hopf01.exact_zero_solution(z0, t) for t in rec.t])
        errs.append(np.max(np.linalg.norm(rec.z - exact, axis=1)))
    for a, b in zip(errs, errs[1:]):
        assert 12.0 <= a / b <= 20.0


def test_determinism(hopf01, dyn01):
    cert = oc.certificate(dyn01, np.eye(2), 0.1)
    sig = oc.DisturbanceSignal(kind="piecewise_constant_random", dim=1, amplitude=0.05,
                               dwell=0.3, seed=42)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm_plus_us",
                                  signal=sig, eps_bar=0.1, sigma=0.2)
    x0 = np.array([0.4, 0.1, 1.1, 0.0])
    a = oc.integrate(loop, x0, T=2.0, dt=1e-3)
    b = oc.integrate(loop, x0, T=2.0, dt=1e-3)
    for field in ("t", "eta", "z", "d", "v_eps", "v_z", "v_c", "dist", "mu", "u_s"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_v_eps_nonincreasing_without_disturbance(zero_record_eps05):
    cert, _, rec = zero_record_eps05
    steps = np.diff(rec.v_eps)
    assert np.all(steps <= 1e-8 * rec.v_eps[0])


def test_ultimate_bound_decays_with_horizon(hopf01, dyn01):
    cert = oc.certificate(dyn01, np.eye(2), 0.1)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm", sigma=1.0)
    x0 = np.array([0.5, 0.0, 1.0, 0.0])
    u_short = oc.ultimate_bound(oc.integrate(loop, x0, T=4.0, dt=1e-3))
    u_long = oc.ultimate_bound(oc.integrate(loop, x0, T=12.0, dt=1e-3))
    assert u_long < 1e-3 * u_short


def test_ultimate_bound_under_constant_disturbance(hopf01, dyn01):
    cert = oc.certificate(dyn01, np.eye(2), 0.1)
    horizon = 10.0 * cert.eps / cert.gamma  # ten closed-loop time constants
    sig = oc.DisturbanceSignal(kind="constant", dim=1, amplitude=0.05)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm",
                                  signal=sig, sigma=1.0)
    rec = oc.integrate(loop, np.array([0.0, 0.0, 1.0, 0.0]), T=horizon, dt=1e-3)
    ub = oc.ultimate_bound(rec)
    assert 0.0 < ub <= oc.min_norm_ultimate_bound(cert, 0.05)
    # doubling |d|inf at most ~doubles the measured bound
    sig2 = oc.DisturbanceSignal(kind="constant", dim=1, amplitude=0.10)
    loop2 = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm",
                                   signal=sig2, sigma=1.0)
    ub2 = oc.ultimate_bound(oc.integrate(loop2, np.array([0.0, 0.0, 1.0, 0.0]),
                                         T=horizon, dt=1e-3))
    assert ub2 <= 2.05 * ub


def test_integrate_validation(hopf01, dyn01):
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm", sigma=1.0)
    with pytest.raises(ValueError):
        oc.integrate(loop, np.zeros(4), T=1.0, dt=0.0)
    with pytest.raises(ValueError):
        oc.integrate(loop, np.zeros(4), T=0.5, dt=1.0)
    with pytest.raises(ValueError):
        oc.integrate(loop, np.zeros(3), T=1.0, dt=0.1)
    with pytest.raises(ValueError):
        oc.integrate(loop, np.zeros(4), T=1e6, dt=1e-2)  # step ceiling


def test_integrate_aborts_on_nonfinite(hopf01, dyn01):
    cert = oc.certificate(dyn01, np.eye(2), 0.5)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm", sigma=1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(oc.SimulationError) as err:
        oc.integrate(loop, np.array([0.0, 0.0, 1e200, 0.0]), T=1.0, dt=0.1)
    assert "t = " in str(err.value)


def test_ultimate_bound_validation(zero_record_eps05):
    _, _, rec = zero_record_eps05
    with pytest.raises(ValueError):
        oc.ultimate_bound(rec, settle_fraction=0.0)
    with pytest.raises(ValueError):
        oc.ultimate_bound(rec, settle_fraction=1.0)


def test_csv_layout(zero_record_eps05, tmp_path):
    _, _, rec = zero_record_eps05
    path = tmp_path / "rec.csv"
    cli._write_record_csv(path, cli.DEFAULT_CONFIG, rec)
    lines = path.read_text().splitlines()
    assert [line.partition("=")[0] for line in lines[:3]] == [
        "# config", "# config_hash", "# content_hash"]
    headers = ["t", "eta_0", "eta_1", "z_0", "z_1", "d_0", "V_eps", "V_Z", "V_c", "dist"]
    assert lines[3] == ",".join(headers)
    assert len(lines) == 4 + len(rec)
    assert [float(v) for v in lines[-1].split(",")] == [
        rec.t[-1], *rec.eta[-1], *rec.z[-1], *rec.d[-1],
        rec.v_eps[-1], rec.v_z[-1], rec.v_c[-1], rec.dist[-1]]


def test_record_v_eps_cross_check(hopf01, dyn01):
    # the stored V_eps trace equals evaluate_clf at each sample
    cert = oc.certificate(dyn01, np.eye(2), 0.1)
    loop = oc.DisturbedClosedLoop(plant=hopf01, cert=cert, controller="min_norm", sigma=1.0)
    rec = oc.integrate(loop, np.array([0.4, -0.2, 1.1, 0.0]), T=1.0, dt=1e-3)
    for i in range(0, len(rec), 97):
        assert rec.v_eps[i] == oc.evaluate_clf(cert, dyn01, rec.eta[i]).V


FIELDS = ("t", "eta", "z", "d", "v_eps", "v_z", "v_c", "dist", "mu", "u_s")


def _batch_of_five(controller="min_norm_plus_us"):
    dims = oc.OutputDims(k1=1, k2=2)
    cert = oc.certificate(oc.build_fg(dims), np.eye(dims.n_eta), 0.1)
    plant = oc.HopfPlant(dims=dims)
    signals = [None,
               oc.DisturbanceSignal(kind="piecewise_constant_random", dim=3, amplitude=0.02,
                                    dwell=0.3, seed=5),
               oc.DisturbanceSignal(kind="piecewise_constant_random", dim=3, amplitude=0.04,
                                    dwell=0.25, seed=-2),
               oc.DisturbanceSignal(kind="sinusoid", dim=3, amplitude=0.03, frequency=0.7),
               oc.DisturbanceSignal(kind="constant", dim=3, amplitude=-0.01)]
    loops = [oc.DisturbedClosedLoop(plant=plant, cert=cert, controller=controller,
                                    signal=sig, eps_bar=0.1, sigma=0.1 * (i + 1))
             for i, sig in enumerate(signals)]
    x0 = np.array([[0.3 * i - 0.5, 0.2, -0.1 * i, 0.05, 0.1, 1.2 - 0.1 * i, 0.1 * i]
                   for i in range(5)])
    return loops, x0


@pytest.mark.parametrize("controller", ["min_norm", "min_norm_plus_us"])
def test_run_alone_equals_run_in_batch(controller):
    # a run's record must not depend on the batch it sits in: bitwise equal
    loops, x0 = _batch_of_five(controller)
    batch = oc.integrate(loops, x0, T=1.2, dt=1e-3)
    assert len(batch) == 5
    for loop, x, rec in zip(loops, x0, batch):
        alone = oc.integrate(loop, x, T=1.2, dt=1e-3)
        assert isinstance(alone, oc.TrajectoryRecord)
        for name in FIELDS:
            assert np.array_equal(getattr(alone, name), getattr(rec, name)), name
        assert alone.meta == rec.meta
    assert not batch[0].d.any()  # the run without a signal reads zero
    assert all(rec.d.any() for rec in batch[1:])


@pytest.mark.parametrize("controller", ["min_norm", "min_norm_plus_us"])
def test_chunks_change_no_bit(monkeypatch, controller):
    # 100 steps in one chunk and in chunks of 7, the last one partial: the
    # records are bitwise the same, and each run alone equals its batch row
    loops, x0 = _batch_of_five(controller)
    whole = oc.integrate(loops, x0, T=0.1, dt=1e-3)
    monkeypatch.setattr(simulator, "CHUNK", 7)
    chunked = oc.integrate(loops, x0, T=0.1, dt=1e-3)
    for loop, x, a, b in zip(loops, x0, whole, chunked):
        alone = oc.integrate(loop, x, T=0.1, dt=1e-3)
        for name in FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert np.array_equal(getattr(alone, name), getattr(b, name)), name


def _every_signal_kind(controller="min_norm"):
    loops, x0 = _batch_of_five(controller)
    signals = [None] + [oc.DisturbanceSignal(kind=kind, dim=3, amplitude=0.03, frequency=0.7,
                                             dwell=0.5, seed=11)
                        for kind in ("zero", "constant", "sinusoid", "piecewise_constant_random")]
    return [dataclasses.replace(loops[0], signal=sig) for sig in signals], x0


def _recording_calls(monkeypatch, holder, name):
    """Wrap holder.name so that each call's arguments and result are kept, in order."""
    calls, original = [], getattr(holder, name)

    def recording(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(holder, name, recording)
    return calls


@pytest.mark.parametrize("chunk", [7, 500])
def test_stage_inputs_equal_per_call_table(monkeypatch, chunk):
    # each field call gets d at its own stage time t, t + dt/2 or t + dt, bit
    # for bit the table's value there placed through G, for every signal kind
    # over 20 s
    loops, x0 = _every_signal_kind()
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    calls = _recording_calls(monkeypatch, oc.DisturbedClosedLoop, "field")
    oc.integrate(loops, x0, T=20.0, dt=1e-2)
    table = oc.DisturbanceTable([lp.signal for lp in loops], 3, 20.0)
    assert len(calls) == 4 * 2000
    for (loop, t, _, d), _ in calls:
        assert np.array_equal(d, loop.place(table(t))), t


@pytest.mark.parametrize("controller", ["min_norm", "min_norm_plus_us"])
def test_record_shows_what_stepping_applied(monkeypatch, controller):
    # record.d, record.mu and record.u_s at sample i are bitwise the d, mu and
    # u_s of step i's first stage (the last sample: the last step's last
    # stage): d and mu read back from the placed stage input and the law's
    # placed output, u_s from the operator's rows on G
    loop = dataclasses.replace(_every_signal_kind(controller)[0][-1], eps_bar=0.5)
    x0 = _batch_of_five()[1][1]
    fields = _recording_calls(monkeypatch, oc.DisturbedClosedLoop, "field")
    mus = _recording_calls(monkeypatch, plants, "min_norm_mu")
    rows = _recording_calls(monkeypatch, plants, "matvec")
    rec = oc.integrate(loop, x0, T=8.0, dt=1e-3)  # the benchmark's certify horizon
    n, g = len(rec) - 1, loop.g_rows
    assert len(fields) == len(mus) == len(rows) == 4 * n
    first = slice(0, None, 4)
    assert np.array_equal(rec.d, [args[3][0][g] for args, _ in fields[first] + fields[-1:]])
    assert np.array_equal(rec.mu[:n], [mu[0][g] for _, mu in mus[first]])
    if loop.damped:
        assert np.array_equal(rec.u_s[:n], [r[0][g] for _, r in rows[first]])
        assert rec.u_s.any()
    else:
        assert not rec.u_s.any()
    # the accumulated t leaves the grid i*dt in another dwell block at 7 samples
    table = oc.DisturbanceTable([loop.signal], 3, 8.0)
    moved = np.flatnonzero(np.any(table(rec.t)[:, 0] != rec.d, axis=1))
    assert list(rec.t[moved]) == [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]


def test_broken_certificate_names_the_row_through_field():
    # an inflated rate breaks gamma P_eps <= Q_eps: psi0 > 0 on ker(G'P_eps)
    loops, x0 = _batch_of_five("min_norm")
    cert = loops[0].cert
    broken = dataclasses.replace(loops[0], cert=dataclasses.replace(cert, gamma=100.0 * cert.gamma))
    n = cert.dims.n_eta
    kernel = np.linalg.svd(cert.P_eps @ broken.plant.dyn.G)[0][:, -1]  # G'P_eps k = 0
    X = x0[:3].copy()
    X[1, :n] = kernel
    with pytest.raises(oc.ClfConsistencyError, match="row 1"):
        broken.field(0.0, X, np.zeros((3, cert.dims.n_mu)))


def test_batch_validation():
    loops, x0 = _batch_of_five()
    other = oc.certificate(oc.build_fg(loops[0].plant.dims), 2.0 * np.eye(5), 0.1)
    mismatched = [
        loops[:1] + [dataclasses.replace(loops[1], cert=other)],
        loops[:1] + [dataclasses.replace(loops[1], controller="min_norm")],
        loops[:1] + [dataclasses.replace(loops[1], eps_bar=0.2)],
        loops[:1] + [dataclasses.replace(loops[1], plant=oc.HopfPlant(dims=loops[0].plant.dims))],
    ]
    for pair in mismatched:
        with pytest.raises(ValueError, match="share"):
            oc.integrate(pair, x0[:2], T=0.1, dt=1e-2)
    with pytest.raises(ValueError):
        oc.integrate(loops, x0[0], T=0.1, dt=1e-2)  # a batch needs (B, state_dim)
    with pytest.raises(ValueError):
        oc.integrate([], np.zeros((0, 7)), T=0.1, dt=1e-2)


def test_batch_nonfinite_names_the_run():
    loops, x0 = _batch_of_five("min_norm")
    x0[3, 5] = 1e200
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(oc.SimulationError, match="run 3 at t = "):
        oc.integrate(loops, x0, T=1.0, dt=0.1)


def _record_mech_per_sample(loop, ts, states):
    """The mech traces one sample at a time from the lone-state kernels: the reference."""
    plant, cert = loop.plant, loop.cert
    eta, d, mu, v_eps = [], [], [], []
    for t, x in zip(ts, states):
        e = loop.phase_error(float(t))
        eta.append(plant.eta_of(x))
        d.append(oc.derive_phase_disturbance(plant, x, e))
        eta_hat = plant.eta_at(x, plant.tau(x[0]) + e)
        mu.append(oc.min_norm_mu(cert, eta_hat, oc.matvec(loop.operator, eta_hat)))
        v_eps.append(oc.evaluate_clf(cert, plant.dyn, eta[-1]).V)
    return {"eta": np.array(eta), "z": np.array([plant.z_of(x) for x in states]),
            "d": np.array(d), "mu": np.array(mu), "v_eps": np.array(v_eps)}


@pytest.mark.parametrize("v_d, driven", [(1.0, True), (None, True), (1.0, False)],
                         ids=["v_d=1", "v_d=None", "no signal"])
def test_mech_record_equals_per_sample_loop(v_d, driven):
    plant = oc.MechPlant(alpha=np.array([0.0, 0.1, 0.3, 0.3, 0.1, 0.0]), q1_plus=4.0, v_d=v_d)
    cert = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.1)
    signal = oc.DisturbanceSignal(kind="phase_error_driven", dim=plant.dims.n_mu,
                                  amplitude=0.01, frequency=2.0) if driven else None
    loop = oc.MechClosedLoop(plant=plant, cert=cert, signal=signal)
    x0 = np.array([0.4, plant.y2d(0.1) + 0.05, 1.0, 0.0])
    rec = oc.integrate(loop, x0, T=0.5, dt=1e-3)
    # the states that integrate recorded, stepped again as it steps them, and
    # the accumulated node times at which stepping evaluated the phase error
    states, times = [x0], [0.0]
    for _ in range(len(rec) - 1):
        states.append(oc.rk4_step(loop.field, times[-1], states[-1], 1e-3))
        times.append(times[-1] + 1e-3)
    ref = _record_mech_per_sample(loop, times, np.array(states))
    for name, want in ref.items():
        assert np.array_equal(getattr(rec, name), want), name
    assert rec.d.any() == driven
    assert not rec.u_s.any() and np.isnan(rec.dist).all()


def test_mech_record_shows_what_stepping_applied(monkeypatch):
    # record.d and record.mu at sample i are bitwise the phase disturbance and
    # mu of step i's first stage: the record's phase error is taken at the
    # accumulated node times that stepping used, not at the printed grid i*dt
    plant = oc.MechPlant(alpha=np.array([0.0, 0.1, 0.3, 0.3, 0.1, 0.0]), q1_plus=4.0)
    cert = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.1)
    signal = oc.DisturbanceSignal(kind="phase_error_driven", dim=plant.dims.n_mu,
                                  amplitude=0.01, frequency=2.0)
    loop = oc.MechClosedLoop(plant=plant, cert=cert, signal=signal)
    fields = _recording_calls(monkeypatch, oc.MechClosedLoop, "field")
    mus = _recording_calls(monkeypatch, plants, "min_norm_mu")
    rec = oc.integrate(loop, np.array([0.4, plant.y2d(0.1) + 0.05, 1.0, 0.0]), T=0.5, dt=1e-3)
    n = len(rec) - 1
    assert len(fields) == len(mus) == 4 * n
    first = [args[1:] for args, _ in fields[::4]]  # (t, x) of each step's first stage
    assert np.array_equal(rec.mu[:n], [mu for _, mu in mus[::4]])
    assert np.array_equal(rec.d[:n], [oc.derive_phase_disturbance(plant, x, loop.phase_error(t))
                                      for t, x in first])
    # the grid i*dt and the node times give another phase error at most samples
    nodes = np.array([t for t, _ in first])
    assert np.count_nonzero(loop.phase_error(rec.t[:n]) != loop.phase_error(nodes)) > n // 2


def test_mech_jet_passes_per_step_and_per_record(monkeypatch):
    # one Bezier jet per RHS, so four per RK4 step, and two array jets (at
    # tau and at tau + e) per recording: a duplicate evaluation shows as a count
    plant = oc.MechPlant(alpha=np.array([0.0, 0.1, 0.3, 0.3, 0.1, 0.0]), q1_plus=4.0)
    cert = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.1)
    signal = oc.DisturbanceSignal(kind="phase_error_driven", dim=plant.dims.n_mu,
                                  amplitude=0.01, frequency=2.0)
    loop = oc.MechClosedLoop(plant=plant, cert=cert, signal=signal)
    x0 = np.array([0.4, plant.y2d(0.1) + 0.05, 1.0, 0.0])
    jets = _recording_calls(monkeypatch, oc.MechPlant, "jet")
    rec = oc.integrate(loop, x0, T=0.02, dt=1e-3)
    taus = [args[1] for args, _ in jets]
    stacked = [tau for tau in taus if isinstance(tau, np.ndarray)]
    assert len(taus) - len(stacked) == 4 * (len(rec) - 1)
    assert [tau.shape for tau in stacked] == [(len(rec),)] * 2
