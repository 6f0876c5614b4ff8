import dataclasses
import math
import os

import numpy as np
import pytest

import orbitclf as oc
from orbitclf import cli, clf, plants, simulator

from conftest import rk4_written_out


def test_rk4_single_step_linear_decay():
    # hand-computed classical RK4 step for dz/dt = -z, z0 = 1, dt = 0.1:
    # k = (-1, -0.95, -0.9525, -0.90475) -> z1 = 1 - 0.0951625 exactly
    (z1,) = oc.rk4_step(lambda t, y, u: [-y[0]], 0.0, [1.0], 0.1, (None,) * 3)
    assert z1 == 0.90483750
    # and the O(dt^5) local-error contract against the closed form e^{-0.1}
    assert abs(z1 - np.exp(-0.1)) <= 1e-5
    assert abs(z1 - np.exp(-0.1)) <= 1e-7  # actual truncation is ~8.2e-8


def _on_arrays(field):
    """A list field as an array field: the state and a list-valued input go in as flat lists."""
    def f(t, y, u):
        u = u if isinstance(u, float) else u.ravel().tolist()
        return np.array(field(t, y.ravel().tolist(), u)).reshape(y.shape)

    return f


def test_rk4_step_equals_the_written_out_formula(mech_plant, mech_cert):
    # rk4_step on the flat lists of Python floats that integrate steps makes
    # the written-out array formula's IEEE operations, byte for byte, on a
    # Hopf batch of five (with its d) and on a lone mech state (with a phase
    # error e as floats), at a dt that is not a power of two
    dt = 1.3e-3
    loops, x0 = _batch_of_five()
    rng = np.random.default_rng(4)
    inputs = tuple(0.05 * rng.normal(size=(5, 3)) for _ in range(3))
    mech = oc.MechClosedLoop(plant=mech_plant, cert=mech_cert, signal=None)
    mech_x = np.array([0.05, mech_plant.y2d(0.05) + 0.04, 1.0, -0.05])
    mech_e = tuple(rng.uniform(-0.02, 0.02, 3).tolist())  # e(t), e(t + dt/2), e(t + dt)
    for field, y, u in ((loops[0].field, x0, inputs), (mech.field, mech_x, mech_e)):
        flat = y.ravel().tolist()
        u_flat = tuple(v if isinstance(v, float) else v.ravel().tolist() for v in u)
        for i in range(3):
            want = rk4_written_out(_on_arrays(field), 0.7 + i * dt, y, dt, u)
            flat = oc.rk4_step(field, 0.7 + i * dt, flat, dt, u_flat)
            assert type(flat) is list and {type(v) for v in flat} == {float}
            assert np.array(flat).tobytes() == want.ravel().tobytes()
            y = want


def _four_float_step(f, t, y, dt, inputs):
    """rk4_step's list path as it was written out for four floats: the generated step's oracle."""
    u0, uh, u1 = inputs
    t_half = t + 0.5 * dt
    half, sixth = 0.5 * dt, dt / 6.0
    y0, y1, y2, y3 = y
    a0, a1, a2, a3 = f(t, y, u0)
    b0, b1, b2, b3 = f(t_half, [y0 + half * a0, y1 + half * a1, y2 + half * a2,
                                y3 + half * a3], uh)
    c0, c1, c2, c3 = f(t_half, [y0 + half * b0, y1 + half * b1, y2 + half * b2,
                                y3 + half * b3], uh)
    d0, d1, d2, d3 = f(t + dt, [y0 + dt * c0, y1 + dt * c1, y2 + dt * c2, y3 + dt * c3], u1)
    return [y0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
            y1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            y2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            y3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)]


def test_generated_four_float_step_equals_the_written_out_step(mech_plant, mech_cert):
    # the list step generated for four floats is the written-out step, bit
    # for bit, with the field seeing the same stage states and inputs: on the
    # lone mech field over a driven run's states, and on a nonlinear field
    # at odd times, steps and inputs
    signal = oc.DisturbanceSignal(kind="phase_error_driven", dim=2, amplitude=0.01, frequency=2.0)
    mech = oc.MechClosedLoop(plant=mech_plant, cert=mech_cert, signal=signal)
    rec_x = oc.integrate(mech, np.array([0.05, mech_plant.y2d(0.05) + 0.04, 1.0, -0.05]),
                         T=0.2, dt=1e-3)
    rng = np.random.default_rng(8)

    def nonlinear(t, x, u):
        return [math.sin(x[1]) * u - t, x[0] * x[3], -x[2] / (1.0 + x[0] * x[0]), x[1] + u * t]

    states = np.column_stack([rec_x.z[:, 0], rec_x.eta[:, -2] + mech_plant.y2d(0.1),
                              rec_x.z[:, 1], rec_x.eta[:, -1]])
    cases = [(mech.field, x.tolist(), 1e-3, tuple(rng.uniform(-0.01, 0.01, 3).tolist()))
             for x in states[::20]]
    cases += [(nonlinear, rng.normal(size=4).tolist(), float(dt),
               tuple(rng.normal(size=3).tolist())) for dt in rng.uniform(1e-4, 0.1, 12)]
    for f, y, dt, u in cases:
        seen, want_seen = [], []

        def spy(log):
            return lambda t, x, e: log.append((t, list(x), e)) or f(t, x, e)

        t = float(rng.uniform(0.0, 3.0))
        got = oc.rk4_step(spy(seen), t, y, dt, u)
        want = _four_float_step(spy(want_seen), t, y, dt, u)
        assert type(got) is list and np.array(got).tobytes() == np.array(want).tobytes()
        assert repr(seen) == repr(want_seen)


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
    with pytest.raises(ValueError, match="step ceiling"):
        oc.integrate(loop, np.zeros(4), T=1e6, dt=1e-2)
    with pytest.raises(ValueError, match="T/dt = inf exceeds"):
        oc.integrate(loop, np.zeros(4), T=1.0, dt=1e-310)  # not an OverflowError


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


def test_trace_layout(zero_record_eps05, tmp_path):
    # a .npy table of the record's columns in the fixed order, listed by name and shape
    _, _, rec = zero_record_eps05
    path = tmp_path / "rec.npy"
    name, entry = cli._write_record_csv(path, cli.DEFAULT_CONFIG, rec)
    headers = ["t", "eta_0", "eta_1", "z_0", "z_1", "d_0", "V_eps", "V_Z", "V_c", "dist"]
    assert name == "rec.npy"
    assert entry["columns"] == headers and entry["shape"] == [len(rec), len(headers)]
    table = np.load(path)
    assert table.shape == (len(rec), len(headers))
    assert table[-1].tolist() == [
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
def test_large_batch_equals_lone_runs(controller):
    # 17 runs step as one flat list (the law gets tuples) and are recorded
    # on columns (the law gets arrays); each run is bitwise its lone run
    loops, x0 = _batch_of_five(controller)
    B = 17
    loops = [dataclasses.replace(loops[i % 5], sigma=0.1 + 0.01 * i) for i in range(B)]
    X0 = x0[np.arange(B) % 5] * (1.0 + 0.05 * np.arange(B))[:, None]
    batch = oc.integrate(loops, X0, T=0.3, dt=1e-3)
    for loop, x, rec in zip(loops, X0, batch):
        alone = oc.integrate(loop, x, T=0.3, dt=1e-3)
        for name in FIELDS:
            assert np.array_equal(getattr(alone, name), getattr(rec, name)), name


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


def _recording_rhs(monkeypatch):
    """Keep each call's (t, state, d) and result of the RHS that integrate hands rk4_step."""
    calls, step = [], simulator.rk4_step

    def stepping(f, t, y, dt, inputs):
        def recording(*args):
            result = f(*args)
            calls.append((args, result))
            return result

        return step(recording, t, y, dt, inputs)

    monkeypatch.setattr(simulator, "rk4_step", stepping)
    return calls


@pytest.mark.parametrize("chunk", [7, 500])
def test_stage_inputs_equal_per_call_table(monkeypatch, chunk):
    # each RHS call gets d at its own stage time t, t + dt/2 or t + dt, bit
    # for bit the table's value there placed through G, for every signal kind
    # over 20 s
    loops, x0 = _every_signal_kind()
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    monkeypatch.setattr(simulator, "usable_cpus", lambda: 1)  # every call in this process
    calls = _recording_rhs(monkeypatch)
    oc.integrate(loops, x0, T=20.0, dt=1e-2)
    table = oc.DisturbanceTable([lp.signal for lp in loops], 3, 20.0)
    assert len(calls) == 4 * 2000
    for (t, _, d), _ in calls:
        assert type(d) is list and np.array(d).tobytes() == table(t).tobytes(), t


@pytest.mark.parametrize("controller", ["min_norm", "min_norm_plus_us"])
def test_record_shows_what_stepping_applied(monkeypatch, controller):
    # record.d, record.mu and record.u_s at sample i are bitwise the d, mu and
    # u_s of step i's first stage (the last sample: the last step's last
    # stage): d read back from the stage input, mu as that stage's law gain
    # times psi1 of its state from the laws' operator rows, u_s as the
    # damping gain times that psi1
    loop = dataclasses.replace(_every_signal_kind(controller)[0][-1], eps_bar=0.5)
    x0 = _batch_of_five()[1][1]
    fields = _recording_rhs(monkeypatch)
    mus = _recording_calls(monkeypatch, plants, "min_norm_mu")
    rec = oc.integrate(loop, x0, T=8.0, dt=1e-3)  # the benchmark's certify horizon
    n, dims = len(rec) - 1, loop.plant.dims
    assert len(fields) == len(mus) == 4 * n
    first = slice(0, None, 4)
    assert np.array_equal(rec.d, [args[2] for args, _ in fields[first] + fields[-1:]])
    W = oc.clf_operator(loop.cert, loop.plant.dyn)
    eta = np.array([args[1] for args, _ in fields[first]])[:, :dims.n_eta]
    psi1 = oc.matvec(W[2 * dims.n_eta:2 * dims.n_eta + dims.n_mu], eta)
    gains = np.array([k for _, (k,) in mus[first]])
    assert np.array_equal(rec.mu[:n], gains[:, None] * psi1)
    if loop.damped:
        assert np.array_equal(rec.u_s[:n], clf.damping_gain(loop.eps_bar) * psi1)
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
        broken.field(0.0, X.ravel().tolist(), [0.0] * 3 * cert.dims.n_mu)


def test_batch_validation(mech_plant, mech_cert):
    # rows under another certificate, controller, eps_bar or plant integrate
    # as one batch, each row bitwise its lone run, meta included; a row of
    # other dims, or a mech row, is refused with its run named
    loops, x0 = _batch_of_five()
    dims = loops[0].plant.dims
    mixed = [loops[0],
             dataclasses.replace(loops[1], cert=oc.certificate(oc.build_fg(dims),
                                                               2.0 * np.eye(5), 0.2)),
             dataclasses.replace(loops[2], controller="min_norm"),
             dataclasses.replace(loops[3], eps_bar=0.2),
             dataclasses.replace(loops[4], plant=oc.HopfPlant(
                 dims=dims, omega=1.3, lambda_h=0.7, r0=1.1, coupling=np.full((2, 5), -0.1)))]
    batch = oc.integrate(mixed, x0, T=0.3, dt=1e-3)
    for loop, x, rec in zip(mixed, x0, batch):
        alone = oc.integrate(loop, x, T=0.3, dt=1e-3)
        for name in FIELDS:
            assert np.array_equal(getattr(alone, name), getattr(rec, name)), name
        assert alone.meta == rec.meta
    assert len({(r.meta["eps"], r.meta["controller"], r.meta["eps_bar"]) for r in batch}) == 4
    small = oc.HopfPlant(dims=oc.OutputDims(k1=1, k2=1))
    other_dims = oc.DisturbedClosedLoop(plant=small, cert=oc.certificate(small.dyn, np.eye(3), 0.1))
    mech = oc.MechClosedLoop(plant=mech_plant, cert=mech_cert)
    for row in (other_dims, mech):
        with pytest.raises(ValueError, match="run 1: only Hopf loops with run 0's dims"):
            oc.integrate([loops[0], row], x0[:2], T=0.1, dt=1e-2)
    with pytest.raises(ValueError, match="run 0: only Hopf loops"):
        oc.integrate([mech], np.zeros((1, 4)), T=0.1, dt=1e-2)
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


def _overflowing_batch():
    """A batch of five whose run 3 leaves the finite range at the fourth step of dt = 0.01.

    z = (15.5, 0.3) is just outside RK4's stability region for the radial
    term: |z| grows for three steps, and the fourth state has finite and
    infinite entries.
    """
    loops, x0 = _batch_of_five("min_norm")
    x0[3, 5] = 15.5
    return loops, x0


def _abort(loops, x0):
    with pytest.raises(oc.SimulationError) as err:
        oc.integrate(loops, x0, T=3.0, dt=0.01)
    return str(err.value)


@pytest.mark.parametrize("chunk", [3, 7, 500])
def test_batch_overflow_mid_chunk_names_the_first_nonfinite_state(monkeypatch, chunk):
    # the finiteness check once per chunk names the run, time and state that
    # a check after every step (chunk = 1) names, although the steps after
    # it ran on within the chunk
    loops, x0 = _overflowing_batch()
    monkeypatch.setattr(simulator, "CHUNK", 1)
    each_step = _abort(loops, x0)
    assert each_step.startswith("non-finite state in run 3 at t = 0.04: [")
    assert "inf" in each_step and "nan" not in each_step  # the state itself, not a successor
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    assert _abort(loops, x0) == each_step


def test_field_error_after_overflow_names_the_nonfinite_state(monkeypatch):
    # an RHS that raises on a non-finite state, as a law may, does not hide
    # the state that left the finite range; an error on finite states passes
    # (the RHS is the batch's stage, which integrate builds by plants._hopf_stage)
    loops, x0 = _overflowing_batch()
    want = _abort(loops, x0)
    build = plants._hopf_stage

    def strict_stage(loops, columns):
        stage = build(loops, columns)

        def strict(state, d, law):
            if not np.isfinite(state).all():
                raise oc.ClfConsistencyError("row 3: the state overflowed")
            return stage(state, d, law)

        return strict

    monkeypatch.setattr(plants, "_hopf_stage", strict_stage)
    assert _abort(loops, x0) == want
    monkeypatch.setattr(plants, "_hopf_stage", lambda loops, columns: lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        oc.integrate(loops, _batch_of_five()[1], T=3.0, dt=0.01)


def _certify_sized_batch():
    """Five rows of certify's dims (k1 = 1, k2 = 2), each under a certificate of its own."""
    loops, x0 = _batch_of_five()
    certs = [oc.certificate(loops[0].plant.dyn, q * np.eye(5), eps)
             for q, eps in ((1.0, 0.1), (2.0, 0.1), (1.0, 0.3), (0.5, 0.05), (3.0, 0.2))]
    return [dataclasses.replace(lp, cert=c) for lp, c in zip(loops, certs)], x0


def _usable_cpus(monkeypatch, cpus):
    """Report `cpus` usable CPUs to integrate; keep what each two-process attempt returned."""
    monkeypatch.setattr(simulator, "usable_cpus", lambda: cpus)
    return _recording_calls(monkeypatch, simulator, "_step_in_two")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_batch_equals_one_process_and_lone_runs(monkeypatch):
    # 5 rows x 4000 steps reach SPLIT_ROW_STEPS: the rows that a forked child stepped and
    # those stepped here equal, bit for bit, the batch in one process and each row alone
    loops, x0 = _certify_sized_batch()
    assert 5 * 4000 == simulator.SPLIT_ROW_STEPS
    attempts = _usable_cpus(monkeypatch, 2)
    split = oc.integrate(loops, x0, T=4.0, dt=1e-3)
    assert [done for _, done in attempts] == [True]
    _no_child_left()
    monkeypatch.setattr(simulator, "usable_cpus", lambda: 1)
    whole = oc.integrate(loops, x0, T=4.0, dt=1e-3)
    assert len(attempts) == 1  # one CPU: one process
    for loop, x, a, b in zip(loops, x0, split, whole):
        alone = oc.integrate(loop, x, T=4.0, dt=1e-3)
        for name in FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert np.array_equal(getattr(alone, name), getattr(a, name)), name


@pytest.mark.parametrize("row", [3, 1], ids=["in the child", "here"])
def test_split_batch_overflow_raises_the_one_process_error(monkeypatch, row):
    # a row that leaves the finite range mid-chunk on either side of the split: the batch
    # is stepped again in one process, whose error names the first non-finite state
    loops, x0 = _batch_of_five("min_norm")
    x0[row, 5] = 15.5  # as _overflowing_batch
    monkeypatch.setattr(simulator, "SPLIT_ROW_STEPS", 0)
    attempts = _usable_cpus(monkeypatch, 1)
    want = _abort(loops, x0)
    assert want.startswith(f"non-finite state in run {row} at t = ") and not attempts
    monkeypatch.setattr(simulator, "usable_cpus", lambda: 2)
    assert _abort(loops, x0) == want
    assert [done for _, done in attempts] == [False]
    _no_child_left()


def test_split_batch_interrupted_here_leaves_no_child(monkeypatch):
    # Ctrl-C while this process steps its rows: the child is stopped and reaped, and the
    # interrupt goes on
    loops, x0 = _batch_of_five("min_norm")
    monkeypatch.setattr(simulator, "SPLIT_ROW_STEPS", 0)
    _usable_cpus(monkeypatch, 2)
    parent, step = os.getpid(), simulator._step

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return step(*args)

    monkeypatch.setattr(simulator, "_step", interrupted)
    with pytest.raises(KeyboardInterrupt):
        oc.integrate(loops, x0, T=3.0, dt=0.01)
    _no_child_left()


def _record_mech_per_sample(loop, ts, states):
    """The mech traces one sample at a time from the lone-state kernels: the reference."""
    plant, cert = loop.plant, loop.cert
    eta, d, mu, v_eps = [], [], [], []
    for t, x in zip(ts, states):
        e = loop.phase_error(float(t))
        eta.append(plant.eta_of(x))
        d.append(oc.derive_phase_disturbance(plant, x, e))
        eta_hat = plant.eta_at(x, plant.tau(x[0]) + e)
        psi0, denom, psi1 = loop.law_forms(eta_hat.tolist())  # the field's written-out sums
        mu.append(oc.min_norm_mu(np.array(psi0), np.array(denom)) * np.array(psi1))
        v_eps.append(oc.evaluate_clf(cert, plant.dyn, eta[-1]).V)
    return {"eta": np.array(eta), "z": np.array([plant.z_of(x) for x in states]),
            "d": np.array(d), "mu": np.array(mu), "v_eps": np.array(v_eps)}


def _mech_loop(v_d=1.0, driven=True):
    plant = oc.MechPlant(alpha=np.array([0.0, 0.1, 0.3, 0.3, 0.1, 0.0]), q1_plus=4.0, v_d=v_d)
    cert = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.1)
    signal = oc.DisturbanceSignal(kind="phase_error_driven", dim=plant.dims.n_mu,
                                  amplitude=0.01, frequency=2.0) if driven else None
    return (oc.MechClosedLoop(plant=plant, cert=cert, signal=signal),
            np.array([0.4, plant.y2d(0.1) + 0.05, 1.0, 0.0]))


@pytest.mark.parametrize("v_d, driven", [(1.0, True), (None, True), (1.0, False)],
                         ids=["v_d=1", "v_d=None", "no signal"])
def test_mech_record_equals_per_sample_loop(v_d, driven):
    loop, x0 = _mech_loop(v_d, driven)
    rec = oc.integrate(loop, x0, T=0.5, dt=1e-3)
    # the states that integrate recorded, stepped again by the written-out
    # array formula (integrate steps a list of floats), with the phase error
    # evaluated one stage time at a time, and the accumulated node times at
    # which stepping evaluated it
    dt, states, times = 1e-3, [x0], [0.0]
    for _ in range(len(rec) - 1):
        t = times[-1]
        e = tuple(float(loop.phase_error(s)) for s in (t, t + 0.5 * dt, t + dt))
        states.append(rk4_written_out(_on_arrays(loop.field), t, states[-1], dt, e))
        times.append(t + dt)
    ref = _record_mech_per_sample(loop, times, np.array(states))
    for name, want in ref.items():
        assert np.array_equal(getattr(rec, name), want), name
    assert rec.d.any() == driven
    assert not rec.u_s.any() and np.isnan(rec.dist).all()


def test_mech_record_shows_what_stepping_applied(monkeypatch):
    # record.d and record.mu at sample i are bitwise the phase disturbance and
    # mu of step i's first stage, mu as the law's gain times psi1: the record
    # reads the phase error that stepping was given at the accumulated node
    # times, not the printed grid i*dt
    # law_forms is the loop's own forms function, which its stage binds when
    # the loop is built and runs for stepping and for the record: spy on the
    # one that this loop is built with
    forms, build_forms = [], plants._law_forms

    def recording_forms(W, n):
        law_forms = build_forms(W, n)

        def recording(eta):
            forms.append(((eta,), law_forms(eta)))
            return forms[-1][1]

        return recording

    monkeypatch.setattr(plants, "_law_forms", recording_forms)
    loop, x0 = _mech_loop()
    fields = _recording_calls(monkeypatch, oc.MechClosedLoop, "field")
    mus = _recording_calls(monkeypatch, plants, "min_norm_mu")
    rec = oc.integrate(loop, x0, T=0.5, dt=1e-3)
    n = len(rec) - 1
    # one law and one set of forms per stage; the last two forms are the
    # record's columns, at tau + e and at the true phase
    assert len(fields) == len(mus) == len(forms) - 2 == 4 * n
    assert np.array_equal(np.array(forms[-1][0][0]).T, rec.eta)
    first = [args[1:] for args, _ in fields[::4]]  # (t, x, e) of each step's first stage
    assert np.array_equal(rec.mu[:n], [g * np.array(f[2])  # the gain times psi1
                                       for (_, g), (_, f) in zip(mus[::4], forms[:-2:4])])
    assert np.array_equal(rec.d[:n], [oc.derive_phase_disturbance(loop.plant, x, e)
                                      for _, x, e in first])
    # the grid i*dt and the node times give another phase error at most samples
    nodes = np.array([t for t, _, _ in first])
    assert np.count_nonzero(loop.phase_error(rec.t[:n]) != loop.phase_error(nodes)) > n // 2


def _assert_rows_are_the_lone_stage(loop, e, states, rec):
    """rec's eta, d and mu rows are bit for bit the loop's stage on each state's Python floats.

    eta at e = -0.0 (the true phase), mu at e, and d the change of the
    mu = 0 feedforward ff from the one to the other.
    """
    eta, d, mu = [], [], []
    for x, ei in zip(states.tolist(), e.tolist()):
        _, _, lone_mu, ff_hat = loop.stage(*x, ei, plants.min_norm_mu)
        _, lone_eta, _, ff = loop.stage(*x, -0.0, plants.min_norm_mu)
        eta.append(lone_eta)
        mu.append(lone_mu)
        d.append([0.0, ff_hat - ff][2 - loop.plant.dims.n_mu:])  # u1 - u1 = 0 when k1 = 1
    for name, lone in (("eta", eta), ("d", d), ("mu", mu)):
        assert all(type(v) is float for row in lone for v in row), name
        assert np.array(lone).tobytes() == getattr(rec, name).tobytes(), name


@pytest.mark.parametrize("v_d", [1.0, None])
def test_mech_record_rows_equal_the_lone_stage(monkeypatch, v_d):
    # the record runs the loop's stage on the run's columns: at each recorded
    # state its eta, d and mu rows are the stage on that state's floats with
    # the phase error that stepping applied there
    recorded, record = [], simulator._record_mech

    def recording(loop, ts, e, states):
        recorded.append((e, states))
        return record(loop, ts, e, states)

    monkeypatch.setattr(simulator, "_record_mech", recording)
    loop, x0 = _mech_loop(v_d)
    rec = oc.integrate(loop, x0, T=0.5, dt=1e-3)
    ((e, states),) = recorded
    _assert_rows_are_the_lone_stage(loop, e, states, rec)
    assert rec.d.any() and rec.mu.any() and not rec.mu.all()  # both branches of the law
    # signed zeros, also against the public column kernels: tau + -0.0 keeps
    # a phase of -0.0 (alpha_0 = -0.0 and q2 = -0.0 carry its sign into y2),
    # and ff's + 0.0 turns a -0.0 into the +0.0 that mech_feedforward adds
    # as mu = 0, whatever the signs of y2d' and y2d'' (dq1 = 0)
    plant = oc.MechPlant(alpha=np.array([-0.0, 0.1, 0.3, -0.3, 0.1, 0.0]), v_d=v_d)
    cert = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.1)
    loop = oc.MechClosedLoop(plant=plant, cert=cert)
    grid = [(q1, q2, dq1, e) for q1 in (-0.0, 0.0, 0.25, 0.45, 0.7, 0.85) for q2 in (-0.0, 0.1)
            for dq1 in (-0.0, 0.0, 0.5) for e in (-0.0, 0.0, 0.1)]
    X = np.array([[q1, q2, dq1, -0.0] for q1, q2, dq1, _ in grid])
    e = np.array([e for *_, e in grid])
    rec = record(loop, np.arange(len(X)) * 1e-3, e, X)
    _assert_rows_are_the_lone_stage(loop, e, X, rec)
    assert rec.eta.tobytes() == plant.eta_of(X).tobytes()
    assert rec.d.tobytes() == oc.derive_phase_disturbance(plant, X, e).tobytes()


@pytest.mark.parametrize("chunk", [7, 500])
def test_mech_stage_inputs_equal_phase_error_at_stage_time(monkeypatch, chunk):
    # each field call gets e at its own stage time t, t + dt/2 or t + dt as a
    # Python float, bit for bit the loop's phase error evaluated there alone,
    # across chunk boundaries
    loop, x0 = _mech_loop()
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    fields = _recording_calls(monkeypatch, oc.MechClosedLoop, "field")
    oc.integrate(loop, x0, T=0.5, dt=1e-3)
    assert len(fields) == 4 * 500
    times = [t for (_, t, _, _), _ in fields]
    assert times[1] == times[2] == 0.5e-3 and times[3] == times[4] == 1e-3
    for (_, t, _, e), _ in fields:
        assert type(e) is float and e == loop.phase_error(t), t
    assert any(e != 0.0 for (_, _, _, e), _ in fields)


def test_mech_jet_passes_per_step_and_per_record(monkeypatch):
    # one Bezier jet per RHS, so four per RK4 step, and two array jets (at
    # tau and at tau + e) per recording: a duplicate evaluation shows as a
    # count.  The loop's stage binds the plant's jet when the loop is built,
    # so the spy goes in first; building x0 takes one lone jet
    jets = _recording_calls(monkeypatch, oc.MechPlant, "jet")
    loop, x0 = _mech_loop()
    jets.clear()
    rec = oc.integrate(loop, x0, T=0.02, dt=1e-3)
    taus = [args[1] for args, _ in jets]
    stacked = [tau for tau in taus if isinstance(tau, np.ndarray)]
    assert len(taus) - len(stacked) == 4 * (len(rec) - 1)
    assert [tau.shape for tau in stacked] == [(len(rec),)] * 2


@pytest.mark.parametrize("v_d, x0, error, message", [
    (1.0, [0.4, 0.0, 1.0, 1e160], oc.ClfConsistencyError,
     "the state overflowed: psi0 = inf, ||psi1||^2 = inf"),
    (None, [0.4, 1e155, 1.0, 0.0], oc.ClfConsistencyError,
     "the state overflowed: psi0 = inf, ||psi1||^2 = inf"),
    (1.0, [0.4, 0.0, 1e300, 0.0], oc.ClfConsistencyError,
     "the state overflowed: psi0 = inf, ||psi1||^2 = inf"),
    (1.0, [0.4, 0.0, 1.0, 1e308], oc.ClfConsistencyError, "the state overflowed: phase nan"),
    (None, [0.4, 0.0, 1.0, 1e308], oc.SimulationError,
     "non-finite state in run 0 at t = 0.001: [0.401   nan 1.      nan]"),
    (1.0, [3.95, 0.0, 1.0, 0.0], ValueError, "phase 1.00014 outside [0, 1]"),
    (1.0, [0.03, 0.0, -1.0, 0.0], ValueError, "true phase -3.63943e-05 outside [0, 1]"),
    (None, [0.03, 0.0, -1.0, 0.0], ValueError, "true phase -5.20417e-18 outside [0, 1]"),
], ids=["dq2 overflows", "q2 overflows k1=0", "dq1 overflows", "phase nan", "nan state k1=0",
        "estimate leaves", "true phase leaves", "true phase leaves k1=0"])
def test_mech_overflow_and_phase_domain_messages(v_d, x0, error, message):
    # a lone mech state steps on Python floats; a run that overflows or leaves
    # the phase domain still ends with the error and the exact text that the
    # array stepping gave, but for a stage phase made NaN by an overflow
    # within the step (dq2 = 1e308 makes the first stage's mu NaN), which
    # ends the run as an overflow, not as a domain exit
    loop, _ = _mech_loop(v_d)
    with pytest.raises(error) as caught:
        oc.integrate(loop, np.array(x0), T=0.5, dt=1e-3)
    assert str(caught.value) == message
