"""Synthetic closed-loop plants with known periodic orbits.

Two testbeds:

* HopfPlant -- transverse dynamics d/dt eta = F eta + G(mu + d + u_s)
  coupled one-way into a planar Hopf normal form,

      dz/dt = Psi0(z) + C eta,
      Psi0(z) = (-w z2 + lh z1 (r0^2 - |z|^2),  w z1 + lh z2 (r0^2 - |z|^2)),

  whose circle |z| = r0 is an exponentially attracting limit cycle.  The
  orbit, the distance to it, a converse-Lyapunov function, and all of its
  constants are available in closed form, so the composite-Lyapunov
  hypotheses can be checked instead of assumed.

* MechPlant -- a unit-inertia 2-DOF arm with a Bezier virtual constraint
  y2 = q2 - y2d(tau(q)) driven through a monotone phase variable
  tau(q) = (q1 - q1m)/(q1p - q1m), plus an optional velocity output
  y1 = dq1 - v_d.  Feedback linearization is exact (unit mass matrix, no
  gravity) in both state-based and time-based form, which isolates the
  effect of a corrupted phase estimate: running the time-based controller
  at tau + e is equivalent to injecting a disturbance d in the mu channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .clf import (SCALAR_ROWS, ClfConsistencyError, clf_operator, matvec, min_norm_mu,
                  state_forms, u_s_damping, vecdot)
from .disturbance import DisturbanceSignal
from .output_dynamics import OutputDims, OutputDynamics, build_fg
from .riccati import ResClfCertificate

CONTROLLER_MODES = ("min_norm", "min_norm_plus_us")
#: the plants a config can name; only "hopf" has the closed-form orbit certify needs
PLANT_KINDS = ("hopf", "mech")


# ---------------------------------------------------------------------------
# Hopf zero-dynamics plant


@dataclass(frozen=True)
class ConverseConstants:
    """Constants c4..c7 of the converse-Lyapunov inequalities on the annulus."""

    c4: float
    c5: float
    c6: float
    c7: float
    r: float  # annulus half-width around r0


@dataclass(frozen=True)
class HopfPlant:
    """Hopf oscillator zero dynamics with linear coupling from eta."""

    dims: OutputDims
    omega: float = 1.0
    lambda_h: float = 1.0
    r0: float = 1.0
    coupling: np.ndarray | None = None  # (2, n_eta); default all entries 0.2
    y1_rate: float = 1.0  # first-order y1 contraction on the partial zero dynamics
    dyn: OutputDynamics = field(init=False, repr=False)

    def __post_init__(self):
        if self.lambda_h <= 0.0:
            raise ValueError("lambda_h must be positive")
        if self.r0 <= 0.0:
            raise ValueError("r0 must be positive")
        C = self.coupling
        if C is None:
            C = np.full((2, self.dims.n_eta), 0.2)
        C = np.asarray(C, dtype=float)
        if C.shape != (2, self.dims.n_eta):
            raise ValueError(f"coupling has shape {C.shape}, expected (2, {self.dims.n_eta})")
        object.__setattr__(self, "coupling", C)
        object.__setattr__(self, "dyn", build_fg(self.dims))

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    @property
    def lipschitz_q(self) -> float:
        """Lipschitz constant of Psi in eta: the top singular value of C."""
        return float(np.linalg.norm(self.coupling, 2))

    def zero_field(self, z: np.ndarray) -> np.ndarray:
        """Psi0(z), the uncoupled Hopf normal form; z is (2,) or a batch (..., 2)."""
        z = np.asarray(z, dtype=float)
        zz = z * z
        g = self.lambda_h * (self.r0 ** 2 - (zz[..., 0] + zz[..., 1]))
        # (-w z2 + g z1, w z1 + g z2), each sum in that order
        return z[..., ::-1] * [-self.omega, self.omega] + g[..., None] * z

    def exact_zero_solution(self, z0: np.ndarray, t: float) -> np.ndarray:
        """Closed-form flow of dz/dt = Psi0(z): logistic radius, linear angle."""
        r2_0 = float(z0 @ z0)
        if r2_0 == 0.0:
            return np.zeros(2)
        e = np.exp(2.0 * self.lambda_h * self.r0 ** 2 * t)
        r2 = self.r0 ** 2 * r2_0 * e / (self.r0 ** 2 + r2_0 * (e - 1.0))
        th = np.arctan2(z0[1], z0[0]) + self.omega * t
        r = np.sqrt(r2)
        return np.array([r * np.cos(th), r * np.sin(th)])


def _norm(x: np.ndarray) -> np.ndarray:
    # the Euclidean norm of each row, computed as np.linalg.norm computes one vector's
    return np.sqrt(vecdot(x, x))


def orbit_distance(eta: np.ndarray, z: np.ndarray, plant: HopfPlant) -> float | np.ndarray:
    """Distance to the embedded periodic orbit, composing block norms additively.

    For the circular orbit (y1* = 0) this is
    | ||z|| - r0 | + ||y1|| + ||y2|| + ||dy2||.  eta and z may carry
    leading batch axes; the result then has those axes.
    """
    eta = np.asarray(eta, dtype=float)
    z = np.asarray(z, dtype=float)
    y1, y2, dy2 = (eta[..., s] for s in plant.dims.blocks)
    return pzd_distance(y1, z, plant) + _norm(y2) + _norm(dy2)


def pzd_distance(y1: np.ndarray, z: np.ndarray, plant: HopfPlant) -> float | np.ndarray:
    """Distance of a partial-zero-dynamics point (y1, z) to its orbit; batches as above."""
    z = np.asarray(z, dtype=float)
    return np.abs(_norm(z) - plant.r0) + _norm(np.asarray(y1, dtype=float))


def converse_constants(plant: HopfPlant, annulus_fraction: float = 0.5) -> ConverseConstants:
    """Constants for V_Z = (||z||^2 - r0^2)^2 + ||y1||^2 on the annulus.

    The annulus is r0 +- r with r = annulus_fraction * r0.  For k1 = 0 the
    constants are

        c4 = min((2 r0 - r)^2, 1),   c5 = max((2 r0 + r)^2, 1),
        c6 = 4 lh (r0 - r)^2 c4,      c7 = max(4 (r0 + r)(2 r0 + r), 2).

    For k1 > 0 the blockwise distance loses a factor (a+b)^2 <= 2(a^2+b^2),
    so c4 (and c6 through it, combined with the y1 contraction rate) are
    halved to stay provable.
    """
    if not (0.0 < annulus_fraction < 1.0):
        raise ValueError("annulus_fraction must lie in (0, 1)")
    r0, lh = plant.r0, plant.lambda_h
    r = annulus_fraction * r0
    c4_z = (2.0 * r0 - r) ** 2
    c5 = max((2.0 * r0 + r) ** 2, 1.0)
    c7 = max(4.0 * (r0 + r) * (2.0 * r0 + r), 2.0)
    if plant.dims.k1 == 0:
        c4 = min(c4_z, 1.0)
        c6 = 4.0 * lh * (r0 - r) ** 2 * c4
    else:
        c4 = 0.5 * min(c4_z, 1.0)
        c6 = 0.5 * min(4.0 * lh * (r0 - r) ** 2 * c4_z, 2.0 * plant.y1_rate)
    return ConverseConstants(c4=c4, c5=c5, c6=c6, c7=c7, r=r)


def vz_converse_lyapunov(y1: np.ndarray, z: np.ndarray, plant: HopfPlant,
                         annulus_fraction: float = 0.5,
                         ) -> tuple[float, np.ndarray, ConverseConstants]:
    """Evaluate V_Z, its gradient w.r.t. (y1, z), and the constants c4..c7.

    Raises ValueError when z lies outside the analysis annulus.
    """
    y1 = np.asarray(y1, dtype=float)
    z = np.asarray(z, dtype=float)
    consts = converse_constants(plant, annulus_fraction)
    nz = float(np.linalg.norm(z))
    if not (plant.r0 - consts.r - 1e-12 <= nz <= plant.r0 + consts.r + 1e-12):
        raise ValueError(f"||z|| = {nz:g} outside the annulus "
                         f"[{plant.r0 - consts.r:g}, {plant.r0 + consts.r:g}]")
    s = nz * nz - plant.r0 ** 2
    value = s * s + float(y1 @ y1)
    grad = np.concatenate([2.0 * y1, 4.0 * s * z])
    return value, grad, consts


def vz_value(y1: np.ndarray, z: np.ndarray, plant: HopfPlant) -> float | np.ndarray:
    """V_Z without the annulus guard (used for trajectory traces); batches as above."""
    y1 = np.asarray(y1, dtype=float)
    s = vecdot(z, z) - plant.r0 ** 2
    return s * s + vecdot(y1, y1)


# ---------------------------------------------------------------------------
# 2-DOF mechanical plant with virtual constraints
#
# A closed mech loop runs one stage function, ``MechClosedLoop.stage``, on a
# lone state's Python floats (stepping) and on a run's columns (recording),
# with the same IEEE operations.  The public kernels below take one state x
# (4,) or a stack (S, 4) with one phase, phase error or mu per row, and each
# row of a stack is bit for bit the lone call's; ``MechPlant.outputs`` and
# ``mech_feedforward`` take the entries xs = x.T = (q1, q2, dq1, dq2) and a
# jet (y2d, y2d', y2d'').  They are the stage's reference in the tests.


#: a mech run's phase domain, checked in order: the estimate (1e-9 slack), the true phase
PHASE_DOMAIN = (("phase {:g} outside [0, 1]", -1e-9, 1.0 + 1e-9),
                ("true phase {:g} outside [0, 1]", 0.0, 1.0))
#: PHASE_DOMAIN's bounds, against which ``MechClosedLoop.field`` compares its phases
(_, _HAT_LO, _HAT_HI), (_, _TRUE_LO, _TRUE_HI) = PHASE_DOMAIN


def check_phases(*taus) -> None:
    """Raise ValueError for the first row of phases (tau_hat[, tau]) out of PHASE_DOMAIN."""
    if isinstance(taus[0], np.ndarray):
        ok = np.logical_and.reduce([(lo <= tau) & (tau <= hi)
                                    for (_, lo, hi), tau in zip(PHASE_DOMAIN, taus)])
        if ok.all():
            return
        taus = [tau[np.argmin(ok)] for tau in taus]  # the first row out of the domain
    for (message, lo, hi), tau in zip(PHASE_DOMAIN, taus):
        if not lo <= tau <= hi:
            raise ValueError(message.format(tau))


@dataclass(frozen=True)
class MechPlant:
    """Unit-inertia 2-DOF plant: state x = (q1, q2, dq1, dq2), inputs u = (u1, u2)."""

    alpha: np.ndarray  # Bezier coefficients of the desired pose trajectory, degree 5
    q1_minus: float = 0.0
    q1_plus: float = 1.0
    v_d: float | None = 1.0  # desired phase velocity; None drops the velocity output
    delta: float = field(init=False, repr=False, compare=False)  # q1_plus - q1_minus
    dims: OutputDims = field(init=False, repr=False, compare=False)
    dyn: OutputDynamics = field(init=False, repr=False, compare=False)
    #: alpha's first five entries and its five differences alpha_{i+1} - alpha_i, as floats
    _bezier: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.shape != (6,):
            raise ValueError(f"alpha must have 6 coefficients (degree 5), got shape {a.shape}")
        if self.q1_plus <= self.q1_minus:
            raise ValueError("q1_plus must exceed q1_minus")
        dims = OutputDims(k1=0 if self.v_d is None else 1, k2=1)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "delta", float(self.q1_plus - self.q1_minus))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dyn", build_fg(dims))
        b = a.tolist()
        object.__setattr__(self, "_bezier", tuple(b[:5] + [q - p for p, q in zip(b, b[1:])]))

    def tau(self, q1: float | np.ndarray) -> float | np.ndarray:
        return (q1 - self.q1_minus) / self.delta

    def jet(self, tau: float | np.ndarray) -> tuple:
        """(y2d, y2d', y2d'') at a lone phase or an array of phases, by one de Casteljau pass.

        The degree-5 pass is written out: each level replaces b_i by
        b_i + tau (b_{i+1} - b_i), the same IEEE operations in the same
        order for a float and for an array; the first level's differences
        are alpha's, computed once.  With b^(k) the level-k points,
        y2d' = 5 (b1^(4) - b0^(4)) and y2d'' = 20 (b2^(3) - 2 b1^(3) +
        b0^(3)) (Farin, *Curves and Surfaces for CAGD*).  A lone phase,
        np.float64 included, runs on Python floats.
        """
        if not isinstance(tau, np.ndarray):
            tau = float(tau)
        a0, a1, a2, a3, a4, d0, d1, d2, d3, d4 = self._bezier
        b0 = a0 + tau * d0
        b1 = a1 + tau * d1
        b2 = a2 + tau * d2
        b3 = a3 + tau * d3
        b4 = a4 + tau * d4
        c0 = b0 + tau * (b1 - b0)
        c1 = b1 + tau * (b2 - b1)
        c2 = b2 + tau * (b3 - b2)
        c3 = b3 + tau * (b4 - b3)
        b0 = c0 + tau * (c1 - c0)
        b1 = c1 + tau * (c2 - c1)
        b2 = c2 + tau * (c3 - c2)
        c0 = b0 + tau * (b1 - b0)
        db = b1 + tau * (b2 - b1) - c0
        return c0 + tau * db, 5.0 * db, 20.0 * (b2 - 2.0 * b1 + b0)

    def y2d(self, tau: float | np.ndarray) -> float | np.ndarray:
        return self.jet(tau)[0]

    def outputs(self, xs, jet: tuple) -> tuple:
        """The entries of the outputs (y1?, y2, dy2) of the state with entries xs against a jet."""
        _, q2, dq1, dq2 = xs
        y2 = q2 - jet[0]
        dy2 = dq2 - jet[1] * dq1 / self.delta
        return (y2, dy2) if self.v_d is None else (dq1 - self.v_d, y2, dy2)

    def eta_at(self, x: np.ndarray, tau: float | np.ndarray) -> np.ndarray:
        """Output coordinates (y1?, y2, dy2) of x measured at phase tau."""
        return np.array(self.outputs(x.T, self.jet(tau))).T

    def eta_of(self, x: np.ndarray) -> np.ndarray:
        """Output coordinates eta(x) at the true phase."""
        return self.eta_at(x, self.tau(x.T[0]))

    def z_of(self, x: np.ndarray) -> np.ndarray:
        """Zero-dynamics coordinates (q1, dq1)."""
        return x[..., [0, 2]]

    def x_of(self, eta: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Reconstruct x from (eta, z); inverse of (eta_of, z_of)."""
        q1, dq1 = z
        y2d, dy2d, _ = self.jet(self.tau(q1))
        k1 = self.dims.k1
        y2, dy2 = eta[k1], eta[k1 + 1]
        return np.array([q1, y2 + y2d, dq1, dy2 + dy2d * dq1 / self.delta])


def mech_feedforward(plant: MechPlant, xs, mu, jet: tuple) -> tuple:
    """The linearizing input's entries (u1, u2) at a state's entries xs, mu's entries and a jet."""
    dq1 = xs[2]
    tau_rate = dq1 / plant.delta
    if plant.v_d is None:
        u1 = np.zeros(np.shape(dq1))
        (mu2,) = mu
    else:
        u1, mu2 = mu  # dy1/dt = u1 and the desired velocity is constant
    # d2y2/dt2 = u2 - y2d'' tau_rate^2 - y2d' u1/delta; the square is a
    # product, as ** 2 on a numpy scalar calls pow, which can differ in the last bit
    u2 = jet[2] * (tau_rate * tau_rate) + jet[1] * (u1 / plant.delta) + mu2
    return u1, u2


def mech_feedback_linearize(plant: MechPlant, x: np.ndarray, mu: np.ndarray,
                            tau: float | np.ndarray | None = None) -> np.ndarray:
    """Feedback linearizing input u for the mech plant.

    The feedforward is evaluated at the phase tau, by default the
    state-based phase tau(q1).  The time-based controller passes its phase
    estimate instead; the phase rate and acceleration are still taken from
    the true state (only the phase value is corrupted), so tau = tau(q1)
    gives the state-based input exactly.  Returns u = (u1, u2); for the
    k1 = 0 plant the phase joint is unactuated and u1 = 0.  A stack x
    (S, 4) takes mu (S, n_mu) and a tau of shape (S,), and gives u (S, 2).
    """
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    expected = x.shape[:-1] + (plant.dims.n_mu,)
    if mu.shape != expected:
        raise ValueError(f"mu has shape {mu.shape}, expected {expected}")
    if tau is None:
        tau = plant.tau(x.T[0])
    check_phases(tau)
    return np.array(mech_feedforward(plant, x.T, mu.T, plant.jet(tau))).T


def derive_phase_disturbance(plant: MechPlant, x: np.ndarray,
                             e: float | np.ndarray) -> np.ndarray:
    """Equivalent mu-channel disturbance induced by the phase error e.

    d = G+ (f_cl(x; tau+e) - f_cl(x; tau)) restricted to the eta subsystem,
    where f_cl is the closed-loop eta rate; the auxiliary input and the
    true-phase terms cancel in the difference, so d is exactly the change of
    the actuated inputs, the feedforward mismatch.  d = 0 at e = 0.
    A stack x (S, 4) takes e of shape (S,) and gives d (S, n_mu).
    """
    xs = np.asarray(x, dtype=float).T
    tau = plant.tau(xs[0])
    tau_hat = tau + e
    check_phases(tau_hat, tau)
    mu0 = np.zeros(np.shape(xs[0]) + (plant.dims.n_mu,)).T
    u1_hat, u2_hat = mech_feedforward(plant, xs, mu0, plant.jet(tau_hat))
    u1, u2 = mech_feedforward(plant, xs, mu0, plant.jet(tau))
    du = np.array([u1_hat - u1, u2_hat - u2]).T
    return du[..., 2 - plant.dims.n_mu:]  # u1 is a mu channel only when k1 = 1


# ---------------------------------------------------------------------------
# Disturbed closed loops


@dataclass(frozen=True)
class DisturbedClosedLoop:
    """Hopf plant under the min-norm controller, disturbance, and optional damping.

    The flat simulation state is x = (eta, z).  With zero disturbance and
    eta = 0, z on the circle, the flow is periodic with period 2 pi / omega.
    eps_bar must lie in (0, 1] whether or not the damping is on.
    """

    plant: HopfPlant
    cert: ResClfCertificate
    controller: str = "min_norm"
    signal: DisturbanceSignal | None = None
    eps_bar: float = 0.1
    sigma: float = 1.0  # composite Lyapunov weight used for the V_c trace
    #: [L; Psi; M; Q; I; Z] on the state x, built once (see ``field``)
    operator: np.ndarray = field(init=False, repr=False, compare=False)
    #: the state rows that G feeds, in mu order: (G v)[g_rows[j]] = v[j]
    g_rows: np.ndarray = field(init=False, repr=False, compare=False)
    #: for B = 1..SCALAR_ROWS rows, the index that spreads (k_1..k_B, r_1..r_B) over (B, w)
    _spread: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.controller not in CONTROLLER_MODES:
            raise ValueError(f"unknown controller mode {self.controller!r}")
        if self.cert.dims != self.plant.dims:
            raise ValueError("certificate and plant dims disagree")
        plant, n, m = self.plant, self.plant.dims.n_eta, self.plant.dims.n_mu
        W = clf_operator(self.cert, plant.dyn)
        # u_s = K eta; u_s_damping reads K off W's psi1 rows, and checks eps_bar
        K = u_s_damping(self.cert, W.T, self.eps_bar).T
        g = plant.dyn.G.argmax(axis=0)
        L, psi1, M, Z = np.zeros((4, n + 2, n + 2))
        L[:n, :n] = plant.dyn.F
        if self.damped:
            L[g, :n] = K  # F is zero on G's rows
        L[n:, :n] = plant.coupling
        L[n:, n:] = [[0.0, -plant.omega], [plant.omega, 0.0]]
        psi1[g, :n] = W[2 * n:2 * n + m]
        M[:n, :n] = W[2 * n + m:]
        Z[n:, n:] = np.eye(2)
        operator = np.vstack([L, psi1, M, psi1 + Z, np.eye(n + 2), Z])
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "g_rows", g)
        spread = [None] + [np.add.outer(np.arange(B), [0] * n + [B, B])
                           for B in range(1, SCALAR_ROWS + 1)]
        object.__setattr__(self, "_spread", spread)

    @property
    def state_dim(self) -> int:
        return self.plant.dims.n_eta + 2

    @property
    def damped(self) -> bool:
        """Whether the damping feedback u_s is on."""
        return self.controller == "min_norm_plus_us"

    def place(self, v: np.ndarray) -> np.ndarray:
        """G v in state coordinates: v (..., n_mu) gives (..., state_dim), 0 off G's rows."""
        out = np.zeros(v.shape[:-1] + (self.state_dim,))
        out[..., self.g_rows] = v
        return out

    def field(self, t: float, state: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The closed-loop right-hand side at time t.

        state is one flat state x = (eta, z) of shape (state_dim,) or a batch
        (B, state_dim) of runs under this loop's plant, certificate and
        controller; d is the mu-channel disturbance at t already placed,
        ``place(d)``, one row per run.  ``operator`` is the law's state
        operator (see ``clf``) with Z selecting z: its first block holds
        every linear term,

            L x = (F eta + G u_s,  C eta + (-w z2, w z1)),   u_s = K eta or 0,

        so one row-by-row ``matvec`` gives L x, the law's rows and
        Q x = G psi1 + (0, z), and one ``vecdot`` (``state_forms``) gives
        ||psi1||^2, psi0 and |z|^2 of every row.  The law returns each row's
        gain k (G mu = k G psi1), and with c = k on eta and
        lh (r0^2 - |z|^2) on z, one coefficient row per run,

            dx/dt = L x + c Q x + G d,

        that is d eta/dt = F eta + G(mu + u_s + d), dz/dt = Psi0(z) + C eta.
        A lone state is a batch of one.  Up to ``clf.SCALAR_ROWS`` rows, the
        coefficients are built from Python floats.
        """
        x = state if state.ndim == 2 else state[None]
        rows = matvec(self.operator, x)
        blocks = rows.reshape(len(x), 6, -1)
        forms = state_forms(blocks)
        gains = min_norm_mu(forms[:, 1], forms[:, 0])
        lh, r0_sq = self.plant.lambda_h, self.plant.r0 ** 2
        if len(x) <= SCALAR_ROWS:
            # (k_1..k_B, r_1..r_B) spread to (B, w): k on eta, r on z
            coef = gains.tolist() + [lh * (r0_sq - zz) for zz in forms[:, 2].tolist()]
            coef = np.array(coef)[self._spread[len(x)]]
        else:
            n = self.plant.dims.n_eta
            coef = np.empty(x.shape)
            coef[:, :n] = gains[:, None]
            coef[:, n:] = (lh * (r0_sq - forms[:, 2]))[:, None]
        out = blocks[:, 0] + coef * blocks[:, 3]
        out += d
        return out if x is state else out[0]


def _law_forms(W: np.ndarray, n: int):
    """``MechClosedLoop.law_forms`` for the laws' operator W on an eta of n = 3 or 2 entries."""
    rows = W[2 * n:].tolist()  # psi1's rows, then M's
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows

        def law_forms(eta):
            y1, y2, dy2 = eta
            p = a0 * y1 + a1 * y2 + a2 * dy2
            q = b0 * y1 + b1 * y2 + b2 * dy2
            psi0 = (y1 * (m00 * y1 + m01 * y2 + m02 * dy2) + y2 * (m10 * y1 + m11 * y2 + m12 * dy2)
                    + dy2 * (m20 * y1 + m21 * y2 + m22 * dy2))
            return psi0, p * p + q * q, (p, q)
    else:
        (a0, a1), (m00, m01), (m10, m11) = rows

        def law_forms(eta):
            y2, dy2 = eta
            p = a0 * y2 + a1 * dy2
            return y2 * (m00 * y2 + m01 * dy2) + dy2 * (m10 * y2 + m11 * dy2), p * p, (p,)
    return law_forms


def _mech_stage(plant: MechPlant, law_forms: Callable) -> Callable:
    """``MechClosedLoop.stage`` for a plant and the loop's forms function."""
    q1_minus, delta, v_d, jet = float(plant.q1_minus), plant.delta, plant.v_d, plant.jet
    zero_rate = 0.0 / delta  # u1 / delta at u1 = 0

    def stage(q1, q2, dq1, dq2, e, law):
        tau = (q1 - q1_minus) / delta
        tau_hat = tau + e
        columns = isinstance(tau_hat, np.ndarray)
        if columns:
            check_phases(tau_hat, tau)
        elif not (_HAT_LO <= tau_hat <= _HAT_HI and _TRUE_LO <= tau <= _TRUE_HI):
            if not math.isfinite(tau_hat):  # e is finite: the state overflowed in the step
                raise ClfConsistencyError(f"the state overflowed: phase {tau_hat:g}")
            check_phases(tau_hat, tau)
        y2d, dy2d, d2y2d = jet(tau_hat)
        y2 = q2 - y2d
        dy2 = dq2 - dy2d * dq1 / delta
        eta_hat = (y2, dy2) if v_d is None else (dq1 - v_d, y2, dy2)
        psi0, denom, psi1 = law_forms(eta_hat)
        k = law(psi0, denom)
        if not columns:
            k = float(k)
        mu2 = k * psi1[-1]
        # with k1 = 0 the phase joint is unactuated; else dy1/dt = u1 = mu1
        u1 = 0.0 if v_d is None else k * psi1[0]
        tau_rate = dq1 / delta
        curvature = d2y2d * (tau_rate * tau_rate)
        u2 = curvature + dy2d * (u1 / delta) + mu2
        mu = (mu2,) if v_d is None else (u1, mu2)
        return [dq1, dq2, u1, u2], eta_hat, mu, curvature + dy2d * zero_rate + 0.0

    return stage


@dataclass(frozen=True)
class MechClosedLoop:
    """Mech plant under the time-based controller at a corrupted phase.

    The simulation state is x = (q1, q2, dq1, dq2).  The controller
    measures outputs at tau_hat = tau(q1) + e(t) and applies the time-based
    linearization with the min-norm auxiliary input; e(t) comes from a
    phase_error_driven signal (or is identically zero when signal is None).
    """

    plant: MechPlant
    cert: ResClfCertificate
    signal: DisturbanceSignal | None = None
    #: the laws' operator [F; P_eps; 2 G'P_eps; M], built once
    operator: np.ndarray = field(init=False, repr=False, compare=False)
    #: (psi0, ||psi1||^2, psi1's entries) at eta's entries, floats or columns:
    #: psi1 = 2 G'P_eps eta, M eta, eta . M eta and ||psi1||^2 written out for
    #: the plant's dims over the operator's rows, bound once as floats.  The
    #: stage calls it, so a stack's rows get the lone bits; BLAS
    #: (``matvec``) may fuse a product into its sum, a few ulps off.
    law_forms: Callable = field(init=False, repr=False, compare=False)
    #: stage(q1, q2, dq1, dq2, e, law) -> (dx, eta_hat, mu, ff), built once:
    #: the loop at one state and phase error, on Python floats or on columns.
    #: tau_hat = tau(q1) + e in the phase domain (``check_phases``; on floats
    #: a phase that is not finite is an overflow, ``ClfConsistencyError``),
    #: one ``MechPlant.jet`` at tau_hat, the outputs eta_hat = (y1?, y2, dy2)
    #: there, the forms, one call of ``law`` (``min_norm_mu`` as the caller's
    #: module finds it, so that a traced RHS law call and a record's law call
    #: stay apart), mu = k psi1, dx = [dq1, dq2, u1, u2] as a list, and ff,
    #: the input u2 at mu = 0 with ``mech_feedforward``'s operations; the
    #: phase disturbance d is the change of ff from e = -0.0 (tau + -0.0 is
    #: tau, bit for bit) to e.  Only ``+ - * /`` touch the state, so floats
    #: and columns share bits; a lone gain is a Python float.
    stage: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cert.dims != self.plant.dims:
            raise ValueError("certificate and plant dims disagree")
        if self.signal is not None and self.signal.kind != "phase_error_driven":
            raise ValueError("mech closed loop takes a phase_error_driven signal")
        W = clf_operator(self.cert, self.plant.dyn)
        law_forms = _law_forms(W, self.plant.dims.n_eta)
        object.__setattr__(self, "operator", W)
        object.__setattr__(self, "law_forms", law_forms)
        object.__setattr__(self, "stage", _mech_stage(self.plant, law_forms))

    @property
    def state_dim(self) -> int:
        return 4

    def phase_error(self, t: float | np.ndarray) -> float | np.ndarray:
        """e(t) at one time or at an array of times."""
        if self.signal is None:
            return 0.0 * t  # times are nonnegative, so this is +0.0 in t's shape
        return self.signal.phase_error(t)

    def field(self, t: float, x: list | np.ndarray, e: float) -> list:
        """The closed-loop right-hand side at time t, as a list of Python floats.

        x is one state, a list of four Python floats (as ``rk4_step`` steps
        a lone mech state) or an array (4,); e is the phase error e(t) at t,
        a float, tabled by the integrator as the Hopf loop's d is.  The
        loop's ``stage`` on the state's floats, with the law found in this
        module on each call, gives dx/dt = [dq1, dq2, u1, u2].
        """
        q1, q2, dq1, dq2 = x if isinstance(x, list) else x.tolist()
        return self.stage(q1, q2, dq1, dq2, e, min_norm_mu)[0]
