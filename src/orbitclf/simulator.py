"""Fixed-step RK4 integration of the closed loops, with Lyapunov traces.

Classical RK4 with a uniform grid: reproducible, bit-deterministic for a
given configuration, and simple to analyze (global error O(dt^4)).  The
disturbance is exogenous and is evaluated at the RK4 stage times rather
than held over the step; the sup-norm bounds used downstream are safe
under stage sampling for every signal kind shipped here.

The stage times are the accumulated node times t_i (t_0 = 0, t_{i+1} =
t_i + dt, the same float sums RK4's last stage makes) and t_i + dt/2.  Each
loop's exogenous input is tabled at both, CHUNK steps at a time, before
those steps are taken, and one stepping loop hands it to the field as a
stage input, f(t, x, u):

* the Hopf loops' d, placed once in state coordinates (G d, see
  ``DisturbedClosedLoop.place``), so a stage adds its row as it is;
* the mech loop's phase error e, as Python floats, which the field adds
  to the phase as it is.

A lone mech state steps as a list of four Python floats, which skip
numpy's per-call cost: ``rk4_step`` makes its array formula's IEEE
operations entry by entry, the field (the loop's stage on floats) gives
a list, and the integrator writes each step's list into its state array,
where the finiteness checks and the record read it.

A record reads the node rows of that table (d before placement, or e),
which are the inputs that each step's first stage applied, so its d and
mu are those of each step's first stage; a mech record runs the loop's
one stage function, ``MechClosedLoop.stage``, on columns.  The record's
t column prints the grid i*dt.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .clf import clf_operator, lie_terms, matvec, min_norm_mu, state_forms
from .disturbance import DisturbanceTable
from .plants import DisturbedClosedLoop, MechClosedLoop, orbit_distance, vz_value

MAX_STEPS = 10_000_000
#: steps whose stage-time disturbance is tabled at once and whose states are
#: checked for finiteness at once, and samples recorded at once
CHUNK = 500
#: RK4's stage weight 2, a 0-d array as ``rk4_step``'s other multipliers
_TWO = np.array(2.0)


@functools.lru_cache(maxsize=16)
def _stage_multipliers(dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dt/2, dt and dt/6 as 0-d arrays, built once per step size."""
    return np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0)


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


def rk4_step(f: Callable[..., np.ndarray], t: float, y: np.ndarray | list, dt: float,
             inputs: tuple | None = None) -> np.ndarray | list:
    """One classical Runge-Kutta 4 step of dy/dt = f(t, y).

    With inputs = (u(t), u(t + dt/2), u(t + dt)), an exogenous input tabled
    at the stage times, the field is called as f(t, y, u); without, as
    f(t, y).  An array y steps with 0-d stage multipliers, built once per
    dt, which numpy combines with a small array faster than Python floats.
    A list y (a lone mech state, four Python floats) steps entry by entry,
    written out, and f gives a list too.  Both make the same IEEE
    operations: y + h k for each stage, and y + (dt/6) (k1 + 2 k2 + 2 k3 +
    k4), summed left to right.
    """
    if inputs is None:  # f(t, y) takes no input
        field, inputs = f, (None,) * 3
        f = lambda s, x, _: field(s, x)
    u0, uh, u1 = inputs
    t_half = t + 0.5 * dt
    if isinstance(y, list):  # a lone mech state, written out entry by entry
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
    half, whole, sixth = _stage_multipliers(dt)
    k1 = f(t, y, u0)
    k2 = f(t_half, y + half * k1, uh)
    k3 = f(t_half, y + half * k2, uh)
    k4 = f(t + dt, y + whole * k3, u1)
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
    batch it sits in.  Raises SimulationError with the run index, the
    offending time and the state if a state leaves the finite range; the
    states are checked once per CHUNK steps, and the first non-finite one
    is named even if a field call on its successors raised first.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if T < dt:
        raise ValueError("T must be at least dt")
    if not T / dt <= MAX_STEPS:  # an infinite ratio too
        raise ValueError(f"T/dt = {T / dt:g} exceeds the {MAX_STEPS} step ceiling")
    n_steps = int(round(T / dt))

    single = isinstance(closed_loop, (DisturbedClosedLoop, MechClosedLoop))
    loops = [closed_loop] if single else list(closed_loop)
    if not loops:
        raise ValueError("no closed loops to integrate")
    x0 = np.asarray(x0, dtype=float)
    expected = (loops[0].state_dim,) if single else (len(loops), loops[0].state_dim)
    if x0.shape != expected:
        raise ValueError(f"x0 has shape {x0.shape}, expected {expected}")

    # the node times 0, dt, 2 dt, ... summed in order
    nodes = np.add.accumulate(np.concatenate([[0.0], np.full(n_steps, dt)]))
    # each loop's exogenous input at an array of times, and its stage form:
    # the Hopf d placed through G, the mech phase error e as Python floats
    if isinstance(closed_loop, MechClosedLoop):
        loop = closed_loop
        sample, place = loop.phase_error, np.ndarray.tolist
        recorded = np.empty(n_steps + 1)  # e at the node times
    else:
        loop = _shared_hopf_loop(loops)
        sample = DisturbanceTable([lp.signal for lp in loops], loop.plant.dims.n_mu, T)
        place = loop.place
        x0 = x0.reshape(len(loops), -1)
        recorded = np.empty((n_steps + 1,) + sample.shape)  # d at the node times

    f = loop.field
    states = np.empty((n_steps + 1,) + x0.shape)
    states[0] = x0
    # the state that each step starts from: a lone mech state as a list of
    # Python floats (see rk4_step), a Hopf batch as its array
    y = x0.tolist() if isinstance(loop, MechClosedLoop) else x0
    # a state that overflows ends the run below, with a diagnosis; numpy's
    # warnings on the way there would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            j = i % CHUNK
            if j == 0:
                k = min(CHUNK, n_steps - i)
                clock = nodes[i:i + k].tolist()  # each step starts at its node
                recorded[i:i + k + 1] = sample(nodes[i:i + k + 1])
                u_node = place(recorded[i:i + k + 1])
                u_half = place(sample(nodes[i:i + k] + 0.5 * dt))
            inputs = (u_node[j], u_half[j], u_node[j + 1])
            try:
                y = states[i + 1] = rk4_step(f, clock[j], y, dt, inputs)
            except Exception:
                # a state of this chunk that left the finite range is the diagnosis,
                # whatever its non-finite successors then raised
                _check_finite(states, i - j + 1, i + 1, nodes)
                raise
            if j == k - 1:
                _check_finite(states, i - j + 1, i + 2, nodes)
    ts = np.arange(n_steps + 1) * dt

    if isinstance(closed_loop, MechClosedLoop):
        return _record_mech(closed_loop, ts, recorded, states)
    records = _record_hopf(loops, recorded, ts, states)
    return records[0] if single else records


def _check_finite(states: np.ndarray, start: int, stop: int, nodes: np.ndarray) -> None:
    """Raise SimulationError for the first of states[start:stop] with a non-finite entry.

    The error names the run (the row of a batch), the node time and the state.
    """
    finite = np.isfinite(states[start:stop])
    if finite.all():
        return
    i = start + int(np.flatnonzero(~finite.reshape(stop - start, -1).all(axis=1))[0])
    rows = np.atleast_2d(states[i])
    run = int(np.flatnonzero(~np.all(np.isfinite(rows), axis=1))[0])
    raise SimulationError(f"non-finite state in run {run} at t = {nodes[i]:.6g}: {rows[run]}")


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
    mu as the law's gain times the operator's psi1 rows, u_s from L's rows
    on G (F is zero there).  V_eps comes from ``clf_operator``'s rows on
    eta, as ``evaluate_clf`` gives it.
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
        forms = state_forms(rows.reshape(-1, 6, w))
        gains = min_norm_mu(forms[:, 1], forms[:, 0])
        mu[a:a + CHUNK] = (gains[:, None] * rows[:, w + g]).reshape(-1, B, m)
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


def _record_mech(loop: MechClosedLoop, ts: np.ndarray, e: np.ndarray,
                 states: np.ndarray) -> TrajectoryRecord:
    """Traces of the mech run, every sample at once; states has shape (samples, 4).

    e holds the phase error that stepping applied at the node times, so d
    and mu are those of each step's first stage; ts is the printed grid.
    The loop's stage runs on the columns twice: at e, for mu and the
    feedforward there, and at e = -0.0, the true phase, for eta and the
    feedforward that d is measured from.
    """
    plant, cert = loop.plant, loop.cert
    n = len(ts)
    xs = states.T
    _, _, mu, ff_hat = loop.stage(*xs, e, min_norm_mu)
    _, eta, _, ff = loop.stage(*xs, -0.0, min_norm_mu)
    eta, mu = np.array(eta).T, np.array(mu).T
    # (u1_hat - u1, u2_hat - u2) at mu = 0, where u1 = 0; u1 is a mu channel only when k1 = 1
    d = np.array([np.zeros(n), ff_hat - ff]).T[:, 2 - plant.dims.n_mu:]
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
