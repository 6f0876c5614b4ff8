"""Fixed-step RK4 integration of the closed loops, with Lyapunov traces.

Classical RK4 with a uniform grid: reproducible, bit-deterministic for a
given configuration, and simple to analyze (global error O(dt^4)).  The
disturbance is exogenous and is evaluated at the RK4 stage times rather
than held over the step; the sup-norm bounds used downstream are safe
under stage sampling for every signal kind shipped here.

The stage times are the accumulated node times t_i (t_0 = 0, t_{i+1} =
t_i + dt, the same float sums RK4's last stage makes) and t_i + dt/2.  Each
loop's exogenous input, the Hopf d or the mech phase error e, is tabled at
both, CHUNK steps at a time, and handed to the field as a stage input,
f(t, x, u).  A lone mech state and a batch of Hopf runs of any size step
as flat lists of Python floats, inputs included, through ``rk4_step``'s
generated list step.

A record reads the node rows of that table, the inputs that each step's
first stage applied, and runs the loop's stage on columns, so its d, mu
and u_s are those of each step's first stage.  Its t column prints the
grid i*dt.
"""

from __future__ import annotations

import functools
import mmap
import os
import signal
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import plants
from .clf import matvec, min_norm_mu, vecdot
from .disturbance import DisturbanceTable
from .plants import (DisturbedClosedLoop, MechClosedLoop, compile_function, orbit_distance,
                     vz_value)

MAX_STEPS = 10_000_000
#: steps whose stage-time disturbance is tabled at once and whose states are
#: checked for finiteness at once, and samples recorded at once
CHUNK = 500
#: rows x steps from which a Hopf batch steps in two processes: 25-75 ms saved per ~4 ms fork
SPLIT_ROW_STEPS = 20_000


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


def rk4_step(f: Callable[..., list], t: float, y: list, dt: float, inputs: tuple) -> list:
    """One classical Runge-Kutta 4 step of dy/dt = f(t, y, u) for a list y of Python floats.

    inputs = (u(t), u(t + dt/2), u(t + dt)) is an exogenous input tabled at
    the stage times, and f gives a list.  The step is written out once per
    list length (``_list_step``): y + h k per stage, y + (dt/6) (k1 + 2 k2 +
    2 k3 + k4).
    """
    u0, uh, u1 = inputs
    return _list_step(len(y))(f, t, t + 0.5 * dt, t + dt, y, dt, 0.5 * dt, dt / 6.0, u0, uh, u1)


@functools.lru_cache(maxsize=64)
def _list_step(size: int) -> Callable:
    """``rk4_step``'s straight-line step for a list of `size` Python floats, built once per size."""
    def stage(h, k):
        return "[" + ", ".join(f"y{i} + {h} * {k}{i}" for i in range(size)) + "]"

    body = [f"{', '.join(f'{s}{i}' for i in range(size))}, = {call}" for s, call in (
        ("y", "y"), ("a", "f(t, y, u0)"), ("b", f"f(t_half, {stage('half', 'a')}, uh)"),
        ("c", f"f(t_half, {stage('half', 'b')}, uh)"), ("d", f"f(t_end, {stage('dt', 'c')}, u1)"))]
    body.append("return [" + ", ".join(f"y{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})"
                                       for i in range(size)) + "]")
    signature = "step(f, t, t_half, t_end, y, dt, half, sixth, u0, uh, u1)"
    return compile_function(signature, body, f"<rk4 step, {size} floats>")


def integrate(closed_loop, x0: np.ndarray, T: float = 50.0,
              dt: float = 1e-3) -> TrajectoryRecord | list[TrajectoryRecord]:
    """Integrate a closed loop from x0 over [0, T] and record everything.

    x0 is the flat state: (eta, z) for the Hopf loop, x for the mech loop.
    B Hopf loops of one dims, each with its own plant, certificate,
    controller, eps_bar and sigma, integrate as one batch from x0 (B,
    state_dim), one record per loop, each bitwise the run alone.  A state
    that leaves the finite range raises SimulationError with the run, the
    time and the state; states are checked once per CHUNK steps, and the
    first non-finite one is named even if an RHS call on its successors
    raised first.  With two usable CPUs, a batch of SPLIT_ROW_STEPS
    row-steps steps in two processes (``_step_in_two``), to the same bits.
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
    ts = np.arange(n_steps + 1) * dt
    # each node's state, and the exogenous input (mech e, Hopf d) that stepping applies there
    states = np.empty((n_steps + 1,) + x0.shape)
    states[0] = x0
    if isinstance(closed_loop, MechClosedLoop):
        recorded = np.empty(n_steps + 1)
        _step(closed_loop.field, closed_loop.phase_error, states, recorded, nodes, dt)
        return _record_mech(closed_loop, ts, recorded, states)
    for i, lp in enumerate(loops):
        if not (isinstance(lp, DisturbedClosedLoop) and lp.plant.dims == loops[0].plant.dims):
            raise ValueError(f"run {i}: only Hopf loops with run 0's dims integrate as a batch")
    states = states.reshape(n_steps + 1, len(loops), -1)
    recorded = np.empty((n_steps + 1, len(loops), loops[0].plant.dims.n_mu))
    if not (len(loops) > 1 and len(loops) * n_steps >= SPLIT_ROW_STEPS and usable_cpus() > 1
            and _step_in_two(loops, T, states, recorded, nodes, dt)):
        _step(*_hopf_inputs(loops, T), states, recorded, nodes, dt)
    records = _record_hopf(loops, recorded, ts, states)
    return records[0] if single else records


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _hopf_inputs(loops: list, T: float) -> tuple[Callable, DisturbanceTable]:
    """A Hopf batch's field (the law as plants.min_norm_mu, where tracers wrap it) and d table."""
    stage = plants._hopf_stage(loops, columns=False)
    return (lambda t, y, d: stage(y, d, plants.min_norm_mu),
            DisturbanceTable([lp.signal for lp in loops], loops[0].plant.dims.n_mu, T))


def _step_in_two(loops: list, T: float, states: np.ndarray, recorded: np.ndarray,
                 nodes: np.ndarray, dt: float) -> bool:
    """Step a batch's first ceil(B/2) rows here and the rest in a forked child; False if
    either side failed.  The child steps from fields and tables built before the fork
    (it makes no BLAS call) into a shared map, copied into states and recorded."""
    m = (len(loops) + 1) // 2
    ours, theirs = _hopf_inputs(loops[:m], T), _hopf_inputs(loops[m:], T)
    rest = states[:, m:], recorded[:, m:]
    block = mmap.mmap(-1, 8 * (rest[0].size + rest[1].size))
    mapped = (np.ndarray(rest[0].shape, buffer=block),  # the child's states and inputs
              np.ndarray(rest[1].shape, buffer=block, offset=8 * rest[0].size))
    mapped[0][0] = states[0, m:]
    with warnings.catch_warnings():  # Python 3.12+ warns of BLAS threads, which the child
        warnings.simplefilter("ignore", DeprecationWarning)  # never calls into
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            return False
    if pid == 0:  # the child leaves through os._exit: no atexit handler, no stdio flush
        try:
            _step(*theirs, *mapped, nodes, dt)
            os._exit(0)
        finally:
            os._exit(1)
    done = False
    try:
        _step(*ours, states[:, :m], recorded[:, :m], nodes, dt)
        done = True
    except Exception:  # one process steps the batch again and raises it in full
        pass
    finally:
        if not done:
            os.kill(pid, signal.SIGKILL)
        done = os.waitpid(pid, 0)[1] == 0 and done
    if done:
        rest[0][...], rest[1][...] = mapped
    del mapped
    block.close()
    return done


def _step(f: Callable, sample: Callable, states: np.ndarray, recorded: np.ndarray,
          nodes: np.ndarray, dt: float) -> None:
    """Step from states[0] as flat float lists, filling states and recorded (inputs) in place."""
    flat = states.reshape(len(states), -1)  # a view: each node's rows are contiguous
    form = np.ndarray.tolist if recorded.ndim == 1 else lambda u: u.reshape(len(u), -1).tolist()
    y = flat[0].tolist()
    n_steps = len(nodes) - 1
    # a state that overflows ends the run below, with a diagnosis; numpy's
    # warnings on the way there would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            j = i % CHUNK
            if j == 0:
                k = min(CHUNK, n_steps - i)
                clock = nodes[i:i + k].tolist()  # each step starts at its node
                recorded[i:i + k + 1] = sample(nodes[i:i + k + 1])
                u_node = form(recorded[i:i + k + 1])
                u_half = form(sample(nodes[i:i + k] + 0.5 * dt))
            inputs = (u_node[j], u_half[j], u_node[j + 1])
            try:
                y = flat[i + 1] = rk4_step(f, clock[j], y, dt, inputs)
            except Exception:
                # a state of this chunk that left the finite range is the diagnosis,
                # whatever its non-finite successors then raised
                _check_finite(states, i - j + 1, i + 1, nodes)
                raise
            if j == k - 1:
                _check_finite(states, i - j + 1, i + 2, nodes)


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
    state = np.array2string(rows[run], max_line_width=sys.maxsize)  # one line at any size
    raise SimulationError(f"non-finite state in run {run} at t = {nodes[i]:.6g}: {state}")


def _record_hopf(loops, d: np.ndarray, ts: np.ndarray,
                 states: np.ndarray) -> list[TrajectoryRecord]:
    """Traces of every run; states has shape (samples, B, state_dim).

    d holds the disturbance rows that stepping applied at the sample times.
    Each row's traces come from its own loop, its mu and u_s bit for bit
    those that stepping applied.
    """
    S, B, _ = states.shape
    dims = loops[0].plant.dims
    eta, z = states[..., :dims.n_eta], states[..., dims.n_eta:]
    # one row's CHUNK * B samples at a time, as many entries as CHUNK samples
    # of every row: this bounds the size of the columns
    chunks = [slice(a, a + CHUNK * B) for a in range(0, S, CHUNK * B)]
    records = []
    for b, lp in enumerate(loops):
        # rows of one law (plant, certificate, controller, eps_bar) run one columns body
        law = next(o for o in loops if o.plant is lp.plant and o.cert is lp.cert
                   and (o.controller, o.eps_bar) == (lp.controller, lp.eps_bar))
        x, u = np.ascontiguousarray(states[:, b].T), np.ascontiguousarray(d[:, b].T)
        mu, us, v_eps = np.empty((S, dims.n_mu)), np.zeros((S, dims.n_mu)), np.empty(S)
        for c in chunks:
            _, mu_c, us_c = law.columns(x[:, c], u[:, c], min_norm_mu)
            mu[c] = np.array(mu_c).T
            if us_c:
                us[c] = np.array(us_c).T
            v_eps[c] = vecdot(eta[c, b], matvec(lp.cert.P_eps, eta[c, b]), np.longdouble)
        v_z = vz_value(eta[:, b, :dims.k1], z[:, b], lp.plant)
        meta = {
            "kind": "hopf", "k1": dims.k1, "k2": dims.k2,
            "eps": lp.cert.eps, "eps_bar": lp.eps_bar, "controller": lp.controller,
            "sigma": lp.sigma, "dt": float(ts[1] - ts[0]), "horizon": float(ts[-1]),
        }
        records.append(TrajectoryRecord(
            t=ts, eta=eta[:, b], z=z[:, b], d=d[:, b], v_eps=v_eps, v_z=v_z,
            v_c=lp.sigma * v_z + v_eps, dist=orbit_distance(eta[:, b], z[:, b], lp.plant),
            mu=mu, u_s=us, meta=meta))
    return records


def _record_mech(loop: MechClosedLoop, ts: np.ndarray, e: np.ndarray,
                 states: np.ndarray) -> TrajectoryRecord:
    """Traces of the mech run, every sample at once; states has shape (samples, 4).

    e holds the phase error that stepping applied at the node times.  The
    loop's stage runs on the columns at e, for mu and the feedforward there,
    and at e = -0.0, the true phase, for eta and the feedforward d is from.
    """
    plant, cert = loop.plant, loop.cert
    n = len(ts)
    xs = states.T
    _, _, mu, ff_hat = loop.stage(*xs, e, min_norm_mu)
    _, eta, _, ff = loop.stage(*xs, -0.0, min_norm_mu)
    eta, mu = np.array(eta).T, np.array(mu).T
    # (u1_hat - u1, u2_hat - u2) at mu = 0, where u1 = 0; u1 is a mu channel only when k1 = 1
    d = np.array([np.zeros(n), ff_hat - ff]).T[:, 2 - plant.dims.n_mu:]
    v_eps = vecdot(eta, matvec(cert.P_eps, eta), np.longdouble)
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
