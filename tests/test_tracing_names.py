"""The benchmark's tracer and host-speed sampler find orbitclf's functions by
(module, attribute).  A refactor that renames or deletes one of them makes
``perfbench/run.py --trace 1`` crash and the sampler lose its call points,
so every name they list must still resolve, and the law they tick on and
count must still be called once per Hopf and per mech RHS."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import orbitclf as oc
from orbitclf import plants, simulator

from oracles import eta_at

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    missing = []
    for _, module, attr, _ in tracing.FUNCTIONS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    for _, module, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append(f"{module}.{cls_name}.{attr}")
    for module, attr in tracing.TICKS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    assert not missing, f"names the benchmark wraps are gone: {missing}"


def _counting_law(monkeypatch):
    """Route plants.min_norm_mu through a wrapper that keeps each call's result."""
    results, law = [], plants.min_norm_mu

    def counting(*args):
        results.append(law(*args))
        return results[-1]

    monkeypatch.setattr(plants, "min_norm_mu", counting)
    return results


def _mu(W, eta):
    """The min-norm mu at eta from the rows of W = clf_operator(...), as the mech loop forms it."""
    rows, n = oc.matvec(W, eta), eta.shape[-1]
    psi1 = rows[..., 2 * n:-n]
    return oc.min_norm_mu(np.vecdot(eta, rows[..., -n:]), np.vecdot(psi1, psi1))[..., None] * psi1


def test_hopf_field_calls_the_law_once_and_gets_an_ndarray(monkeypatch):
    # the benchmark ticks the host-speed sampler on every min_norm_mu call,
    # finds it at plants.min_norm_mu, and counts a call as active when
    # result.any(): one field call must make exactly one law call through
    # that attribute, whose ndarray is nonzero exactly where mu is
    dims = oc.OutputDims(1, 2)
    plant = oc.HopfPlant(dims=dims)
    cert = oc.certificate(plant.dyn, np.eye(dims.n_eta), 0.1)
    loop = oc.DisturbedClosedLoop(plant=plant, cert=cert)
    W = oc.clf_operator(cert, plant.dyn)
    results = _counting_law(monkeypatch)
    rng = np.random.default_rng(3)
    for X in (rng.normal(size=(5, 7)), rng.normal(size=(1, 7)), rng.normal(size=(17, 7)),
              np.zeros((2, 7))):
        results.clear()
        loop.field(0.0, X.ravel().tolist(), [0.0] * len(X) * dims.n_mu)
        (gains,) = results
        # one gain per row; a lone state is a batch of one
        assert isinstance(gains, np.ndarray) and gains.shape == (len(X),)
        assert bool(gains.any()) == bool(_mu(W, X[..., :5]).any())


def test_mech_field_calls_the_law_once_and_gets_an_ndarray(monkeypatch):
    # the same contract on the mech loop's lone state, its phase error given as
    # a one-entry list: one law call per field call, whose 0-d ndarray (a
    # Python float has no .any()) is nonzero exactly where the field's mu is
    plant = oc.MechPlant(alpha=np.array([0.0, 0.1, 0.3, 0.3, 0.1, 0.0]), q1_plus=4.0)
    cert = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.1)
    loop = oc.MechClosedLoop(plant=plant, cert=cert)
    W = oc.clf_operator(cert, plant.dyn)
    results = _counting_law(monkeypatch)
    rng = np.random.default_rng(4)
    active = []
    for _ in range(40):
        x = np.array([rng.uniform(0.5, 3.5), rng.normal(), rng.uniform(0.5, 1.5), rng.normal()])
        e = rng.uniform(-0.05, 0.05)
        results.clear()
        loop.field(0.0, x.tolist(), [e])
        (gain,) = results
        assert isinstance(gain, np.ndarray) and gain.shape == ()
        eta_hat = eta_at(plant, x, plant.tau(x[0]) + e)
        active.append(bool(_mu(W, eta_hat).any()))
        assert bool(gain.any()) == active[-1]
    assert any(active) and not all(active)  # both branches


def _three_certificates():
    """A Hopf batch of three rows under three certificates, and its x0."""
    dims = oc.OutputDims(1, 2)
    plant = oc.HopfPlant(dims=dims)
    signal = oc.DisturbanceSignal(kind="sinusoid", dim=dims.n_mu, amplitude=0.02, frequency=0.7)
    loops = [oc.DisturbedClosedLoop(plant=plant, cert=oc.certificate(plant.dyn, q * np.eye(5), eps),
                                    signal=signal)
             for q, eps in ((1.0, 0.1), (2.0, 0.1), (1.0, 0.3))]
    return loops, np.tile([0.3, -0.2, 0.1, 0.05, 0.1, 1.2, 0.0], (3, 1))


def _counting_steps(monkeypatch):
    """Route simulator.rk4_step through a wrapper that keeps each call's time."""
    steps, step = [], simulator.rk4_step

    def counting(*args):
        steps.append(args[1])
        return step(*args)

    monkeypatch.setattr(simulator, "rk4_step", counting)
    return steps


def test_hopf_run_steps_and_calls_through_the_traced_names(monkeypatch):
    # the benchmark counts simulator.rk4_step calls as RK4 steps and ticks its
    # host-speed sampler on plants.min_norm_mu: a Hopf batch of three rows
    # under three certificates, which steps one flat list of Python floats,
    # must make N steps and 4N law calls through that attribute in N steps,
    # each law call giving one gain per row
    loops, x0 = _three_certificates()
    monkeypatch.setattr(simulator, "usable_cpus", lambda: 1)  # every call in this process
    steps = _counting_steps(monkeypatch)
    results = _counting_law(monkeypatch)
    recs = oc.integrate(loops, x0, T=0.05, dt=1e-3)
    N = len(recs[0]) - 1
    assert N == 50 and len(steps) == N
    assert len(results) == 4 * N
    assert all(isinstance(gains, np.ndarray) and gains.shape == (3,) for gains in results)


def test_split_hopf_run_steps_and_calls_through_the_traced_names_here(monkeypatch):
    # with two usable CPUs, a batch at simulator.SPLIT_ROW_STEPS steps its last row in a
    # forked child, whose calls no tracer here sees: this process still makes N steps and
    # 4N law calls through the traced names in N steps, each law call giving one gain per
    # row that it steps
    loops, x0 = _three_certificates()
    monkeypatch.setattr(simulator, "usable_cpus", lambda: 2)
    monkeypatch.setattr(simulator, "SPLIT_ROW_STEPS", 3 * 50)
    steps = _counting_steps(monkeypatch)
    results = _counting_law(monkeypatch)
    recs = oc.integrate(loops, x0, T=0.05, dt=1e-3)
    N = len(recs[0]) - 1
    assert N == 50 and len(steps) == N
    assert len(results) == 4 * N
    assert all(isinstance(gains, np.ndarray) and gains.shape == (2,) for gains in results)


def test_mech_run_steps_and_calls_through_the_traced_names(monkeypatch):
    # the benchmark counts simulator.rk4_step calls as RK4 steps and
    # MechClosedLoop.field calls as RHS evaluations, and ticks its host-speed
    # sampler on plants.min_norm_mu: a lone mech run of N steps, which steps a
    # list of Python floats, must still make N, 4N and 4N such calls, each
    # law call giving a 0-d ndarray
    plant = oc.MechPlant(alpha=np.array([0.0, 0.1, 0.3, 0.3, 0.1, 0.0]), q1_plus=4.0)
    cert = oc.certificate(plant.dyn, np.eye(plant.dims.n_eta), 0.1)
    signal = oc.DisturbanceSignal(kind="phase_error_driven", dim=2, amplitude=0.01, frequency=2.0)
    loop = oc.MechClosedLoop(plant=plant, cert=cert, signal=signal)
    counts = {"rk4_step": 0, "field": 0}

    def counting(holder, name):
        original = getattr(holder, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(holder, name, wrapper)

    counting(simulator, "rk4_step")
    counting(oc.MechClosedLoop, "field")
    results = _counting_law(monkeypatch)
    rec = oc.integrate(loop, np.array([0.4, plant.y2d(0.1) + 0.05, 1.0, 0.0]), T=0.05, dt=1e-3)
    N = len(rec) - 1
    assert N == 50 and counts == {"rk4_step": N, "field": 4 * N}
    assert len(results) == 4 * N
    assert all(isinstance(gain, np.ndarray) and gain.shape == () for gain in results)
