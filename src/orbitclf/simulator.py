"""Fixed-step RK4 integration of the closed loops, with Lyapunov traces.

Classical RK4 with a uniform grid: reproducible, bit-deterministic for a
given configuration, and simple to analyze (global error O(dt^4)).  The
disturbance is exogenous and is evaluated at the RK4 stage times rather
than held over the step; the sup-norm bounds used downstream are safe
under stage sampling for every signal kind shipped here.

The stage times are the accumulated node times t_i (t_0 = 0, t_{i+1} =
t_i + dt, the same float sums RK4's last stage makes) and t_i + dt/2.  The
Hopf loops' d is tabled at both, CHUNK steps at a time, before those
steps are taken, and placed there once in state coordinates (G d, see
``DisturbedClosedLoop.place``), so a stage adds its row as it is; a
record's d column holds the node rows before placement, which are the d
that each step's first stage applied.  A mech record evaluates its phase
error at the same node times, so its d and mu are those of each step's
first stage too.  The record's t column prints the grid i*dt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .clf import clf_operator, lie_terms, matvec, min_norm_mu
from .disturbance import DisturbanceTable
from .plants import (DisturbedClosedLoop, MechClosedLoop, check_phases,
                     mech_phase_disturbance, orbit_distance, vz_value)

MAX_STEPS = 10_000_000
#: steps whose stage-time disturbance is tabled at once, and samples recorded at once
CHUNK = 500
#: RK4's stage weight 2, a 0-d array as ``rk4_step``'s other multipliers
_TWO = np.array(2.0)


class SimulationError(RuntimeError):
    """Integration aborted (non-finite state)."""


@dataclass(frozen=True)
class TrajectoryRecord:
    """Uniform-grid samples of state, inputs, and Lyapunov traces."""

    t: np.ndarray
    eta: np.ndarray
    z: np.ndarray
    d: np.ndarray
    v_eps: np.ndarray
    v_z: np.ndarray
    v_c: np.ndarray
    dist: np.ndarray
    mu: np.ndarray
    u_s: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def eta_norm(self) -> np.ndarray:
        return np.linalg.norm(self.eta, axis=1)


def rk4_step(f: Callable[..., np.ndarray], t: float, y: np.ndarray, dt: float,
             inputs: tuple | None = None) -> np.ndarray:
    """One classical Runge-Kutta 4 step of dy/dt = f(t, y).

    With inputs = (u(t), u(t + dt/2), u(t + dt)), an exogenous input tabled
    at the stage times, the field is called as f(t, y, u).  The stage
    multipliers are 0-d arrays, which numpy combines with a small array
    faster than Python floats, in the same IEEE products.
    """
    u0, uh, u1 = ((),) * 3 if inputs is None else [(u,) for u in inputs]
    half, whole, sixth = np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0)
    k1 = f(t, y, *u0)
    k2 = f(t + 0.5 * dt, y + half * k1, *uh)
    k3 = f(t + 0.5 * dt, y + half * k2, *uh)
    k4 = f(t + dt, y + whole * k3, *u1)
    return y + sixth * (k1 + _TWO * k2 + _TWO * k3 + k4)


def integrate(closed_loop, x0: np.ndarray, T: float = 50.0,
              dt: float = 1e-3) -> TrajectoryRecord | list[TrajectoryRecord]:
    """Integrate a closed loop from x0 over [0, T] and record everything.

    x0 is the flat state: (eta, z) concatenated for the Hopf loop, the
    mechanical state x for the mech loop.  A sequence of B Hopf loops that
    share plant, certificate, controller and eps_bar (their signals and
    sigmas may differ) integrates as one batch from x0 of shape
    (B, state_dim) and returns one record per loop; a single Hopf loop is
    a batch of one, and each run's record is the same bit for bit whatever
    batch it sits in.  Raises SimulationError with the run index and the
    offending time if a state leaves the finite range.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if T < dt:
        raise ValueError("T must be at least dt")
    n_steps = int(round(T / dt))
    if n_steps > MAX_STEPS:
        raise ValueError(f"T/dt = {n_steps} exceeds the {MAX_STEPS} step ceiling")

    single = isinstance(closed_loop, (DisturbedClosedLoop, MechClosedLoop))
    loops = [closed_loop] if single else list(closed_loop)
    if not loops:
        raise ValueError("no closed loops to integrate")
    x0 = np.asarray(x0, dtype=float)
    expected = (loops[0].state_dim,) if single else (len(loops), loops[0].state_dim)
    if x0.shape != expected:
        raise ValueError(f"x0 has shape {x0.shape}, expected {expected}")

    # the node times 0, dt, 2 dt, ... summed in order, as t is below: the same floats
    nodes = np.add.accumulate(np.concatenate([[0.0], np.full(n_steps, dt)]))
    table = d = place = None
    if isinstance(closed_loop, MechClosedLoop):
        f = closed_loop.field
    else:
        loop = _shared_hopf_loop(loops)
        table = DisturbanceTable([lp.signal for lp in loops], loop.plant.dims.n_mu, T)
        f, place = loop.field, loop.place
        x0 = x0.reshape(len(loops), -1)
        d = np.empty((n_steps + 1,) + table.shape)  # d at the node times, recorded

    states = np.empty((n_steps + 1,) + x0.shape)
    states[0] = x0
    t = 0.0
    inputs = None
    # a state that overflows ends the run below, with a diagnosis; numpy's
    # warnings on the way there would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            if table is not None:
                j = i % CHUNK
                if j == 0:
                    k = min(CHUNK, n_steps - i)
                    d[i:i + k + 1] = table(nodes[i:i + k + 1])
                    d_node = place(d[i:i + k + 1])
                    d_half = place(table(nodes[i:i + k] + 0.5 * dt))
                inputs = (d_node[j], d_half[j], d_node[j + 1])
            x = states[i + 1] = rk4_step(f, t, states[i], dt, inputs)
            t += dt
            if np.count_nonzero(np.isfinite(x)) < x.size:
                rows = np.atleast_2d(x)
                run = int(np.flatnonzero(~np.all(np.isfinite(rows), axis=1))[0])
                raise SimulationError(
                    f"non-finite state in run {run} at t = {t:.6g}: {rows[run]}")
    ts = np.arange(n_steps + 1) * dt

    if isinstance(closed_loop, MechClosedLoop):
        return _record_mech(closed_loop, ts, nodes, states)
    records = _record_hopf(loops, d, ts, states)
    return records[0] if single else records


def _shared_hopf_loop(loops) -> DisturbedClosedLoop:
    """The first loop, after checking that every loop has the same control law."""
    first = loops[0]
    for i, lp in enumerate(loops):
        if not isinstance(lp, DisturbedClosedLoop):
            raise ValueError(f"run {i}: only Hopf loops integrate as a batch, got {type(lp)!r}")
        if (lp.plant is not first.plant or lp.cert is not first.cert
                or lp.controller != first.controller or lp.eps_bar != first.eps_bar):
            raise ValueError(f"run {i}: a batch must share plant, certificate, controller "
                             "and eps_bar with run 0")
    return first


def _record_hopf(loops, d: np.ndarray, ts: np.ndarray,
                 states: np.ndarray) -> list[TrajectoryRecord]:
    """Traces of every run at once; states has shape (samples, B, state_dim).

    d holds the disturbance rows that stepping applied at the sample times.
    mu and u_s are read back from the operator and law calls stepping makes:
    G mu from the law, u_s from L's rows on G (F is zero there).  V_eps
    comes from ``clf_operator``'s rows on eta, as ``evaluate_clf`` gives it.
    """
    loop = loops[0]
    plant, cert, g = loop.plant, loop.cert, loop.g_rows
    S, B, w = states.shape
    n, m = plant.dims.n_eta, plant.dims.n_mu
    W = clf_operator(cert, plant.dyn)
    eta, z = states[..., :n], states[..., n:]
    mu, us, v_eps = np.empty((S, B, m)), np.zeros((S, B, m)), np.empty((S, B))
    # CHUNK samples at a time: the operator's rows of the whole trace would
    # be the largest array of a run
    for a in range(0, S, CHUNK):
        x = states[a:a + CHUNK].reshape(-1, w)  # one row per (sample, run)
        rows = matvec(loop.operator, x)
        mu[a:a + CHUNK] = min_norm_mu(cert, x, rows)[:, g].reshape(-1, B, m)
        if loop.damped:
            us[a:a + CHUNK] = rows[:, g].reshape(-1, B, m)
        e = eta[a:a + CHUNK].reshape(-1, n)
        v_eps[a:a + CHUNK] = lie_terms(cert, e, matvec(W, e))[0].reshape(-1, B)
    v_z = vz_value(eta[..., :plant.dims.k1], z, plant)
    dist = orbit_distance(eta, z, plant)
    v_c = np.array([lp.sigma for lp in loops]) * v_z + v_eps
    records = []
    for b, lp in enumerate(loops):
        meta = {
            "kind": "hopf", "k1": plant.dims.k1, "k2": plant.dims.k2,
            "eps": cert.eps, "eps_bar": lp.eps_bar, "controller": lp.controller,
            "sigma": lp.sigma, "dt": float(ts[1] - ts[0]), "horizon": float(ts[-1]),
        }
        records.append(TrajectoryRecord(
            t=ts, eta=eta[:, b], z=z[:, b], d=d[:, b], v_eps=v_eps[:, b], v_z=v_z[:, b],
            v_c=v_c[:, b], dist=dist[:, b], mu=mu[:, b], u_s=us[:, b], meta=meta))
    return records


def _record_mech(loop: MechClosedLoop, ts: np.ndarray, nodes: np.ndarray,
                 states: np.ndarray) -> TrajectoryRecord:
    """Traces of the mech run, every sample at once; states has shape (samples, 4).

    The phase error is evaluated at the node times that stepping used, so
    d and mu are those of each step's first stage; ts is the printed grid.
    """
    plant, cert = loop.plant, loop.cert
    n = len(ts)
    xs = states.T
    tau = plant.tau(xs[0])
    tau_hat = tau + loop.phase_error(nodes)
    check_phases(tau_hat, tau)
    jet, jet_hat = plant.jet(tau), plant.jet(tau_hat)
    eta = plant.outputs(xs, jet)
    d = mech_phase_disturbance(plant, xs, jet, jet_hat)
    eta_hat = plant.outputs(xs, jet_hat)
    mu = min_norm_mu(cert, eta_hat, matvec(loop.operator, eta_hat))
    v_eps = lie_terms(cert, eta, matvec(loop.operator, eta))[0]
    nan = np.full(n, np.nan)
    meta = {
        "kind": "mech", "k1": plant.dims.k1, "k2": plant.dims.k2,
        "eps": cert.eps, "dt": float(ts[1] - ts[0]), "horizon": float(ts[-1]),
    }
    return TrajectoryRecord(t=ts, eta=eta, z=plant.z_of(states), d=d, v_eps=v_eps, v_z=nan,
                            v_c=nan.copy(), dist=nan.copy(), mu=mu,
                            u_s=np.zeros((n, plant.dims.n_mu)), meta=meta)


def ultimate_bound(record: TrajectoryRecord, settle_fraction: float = 0.5) -> float:
    """Max ||eta|| over the tail of the horizon (after settle_fraction of it)."""
    if len(record) == 0:
        raise ValueError("empty record")
    if not (0.0 < settle_fraction < 1.0):
        raise ValueError("settle_fraction must lie in (0, 1)")
    start = int(np.ceil(settle_fraction * (len(record) - 1)))
    return float(np.max(record.eta_norm[start:]))
