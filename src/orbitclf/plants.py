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

from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .clf import clf_operator, matvec, min_norm_mu, u_s_damping, vecdot
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
    _spin: np.ndarray = field(init=False, repr=False, compare=False)  # (-omega, omega)
    _r0_sq: float = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_spin", np.array([-self.omega, self.omega]))
        object.__setattr__(self, "_r0_sq", self.r0 ** 2)

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
        g = self.lambda_h * (self._r0_sq - (zz[..., 0] + zz[..., 1]))
        # (-w z2 + g z1, w z1 + g z2), each sum in that order
        return z[..., ::-1] * self._spin + g[..., None] * z

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
# The mech kernels take one state x of shape (4,) or a stack (S, 4) with one
# phase, phase error or mu per row, and on a stack each row of the result is
# bit for bit the kernel's result on that row alone.  They read entries as
# x.T[i]: x[..., i] would turn each entry of a lone state into a 0-d array,
# whose arithmetic costs microseconds.


def _bezier(alpha: tuple[float, ...], tau: float | np.ndarray) -> float | np.ndarray:
    # de Casteljau evaluation; exact and stable on [0, 1].  A lone phase runs
    # on plain floats, which do the same IEEE operations as numpy does on
    # each element of an array of phases, faster.
    if not isinstance(tau, np.ndarray):
        tau = float(tau)
    b = alpha
    while len(b) > 1:
        b = [b0 + tau * (b1 - b0) for b0, b1 in pairwise(b)]
    return b[0]


def _bezier_d(alpha: np.ndarray) -> np.ndarray:
    n = len(alpha) - 1
    return n * (alpha[1:] - alpha[:-1])


def _check_phases(message: str, lo: float, hi: float, *taus) -> None:
    """Raise ValueError(message) for the first row whose phases are not all in [lo, hi].

    taus are lone phases or arrays of one phase per row, and the message
    is formatted with that row's phases.  A lone phase is compared as a
    plain number: numpy's reductions on a scalar cost microseconds.
    """
    if not isinstance(taus[0], np.ndarray):
        for tau in taus:
            if not lo <= tau <= hi:
                raise ValueError(message.format(*taus))
        return
    ok = np.ones(taus[0].shape, dtype=bool)
    for tau in taus:
        ok &= (lo <= tau) & (tau <= hi)
    if not ok.all():
        row = int(np.flatnonzero(~ok)[0])
        raise ValueError(message.format(*(tau[row] for tau in taus)))


@dataclass(frozen=True)
class MechPlant:
    """Unit-inertia 2-DOF plant: state x = (q1, q2, dq1, dq2), inputs u = (u1, u2)."""

    alpha: np.ndarray  # Bezier coefficients of the desired pose trajectory, degree 5
    q1_minus: float = 0.0
    q1_plus: float = 1.0
    v_d: float | None = 1.0  # desired phase velocity; None drops the velocity output
    dims: OutputDims = field(init=False, repr=False, compare=False)
    dyn: OutputDynamics = field(init=False, repr=False, compare=False)
    # Bezier coefficients of y2d, y2d' and y2d''
    _coefs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.shape != (6,):
            raise ValueError(f"alpha must have 6 coefficients (degree 5), got shape {a.shape}")
        if self.q1_plus <= self.q1_minus:
            raise ValueError("q1_plus must exceed q1_minus")
        dims = OutputDims(k1=0 if self.v_d is None else 1, k2=1)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dyn", build_fg(dims))
        a_d = _bezier_d(a)
        object.__setattr__(self, "_coefs", tuple(tuple(c.tolist())
                                                for c in (a, a_d, _bezier_d(a_d))))

    @property
    def delta(self) -> float:
        return self.q1_plus - self.q1_minus

    def tau(self, q1: float | np.ndarray) -> float | np.ndarray:
        return (q1 - self.q1_minus) / self.delta

    def y2d(self, tau: float | np.ndarray) -> float | np.ndarray:
        return _bezier(self._coefs[0], tau)

    def dy2d(self, tau: float | np.ndarray) -> float | np.ndarray:
        return _bezier(self._coefs[1], tau)

    def d2y2d(self, tau: float | np.ndarray) -> float | np.ndarray:
        return _bezier(self._coefs[2], tau)

    def eta_at(self, x: np.ndarray, tau: float | np.ndarray) -> np.ndarray:
        """Output coordinates (y1?, y2, dy2) of x measured at phase tau."""
        _, q2, dq1, dq2 = x.T
        y2 = q2 - self.y2d(tau)
        dy2 = dq2 - self.dy2d(tau) * dq1 / self.delta
        if self.v_d is None:
            return np.array([y2, dy2]).T
        return np.array([dq1 - self.v_d, y2, dy2]).T

    def eta_of(self, x: np.ndarray) -> np.ndarray:
        """Output coordinates eta(x) at the true phase."""
        return self.eta_at(x, self.tau(x.T[0]))

    def z_of(self, x: np.ndarray) -> np.ndarray:
        """Zero-dynamics coordinates (q1, dq1)."""
        return x[..., [0, 2]]

    def x_of(self, eta: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Reconstruct x from (eta, z); inverse of (eta_of, z_of)."""
        q1, dq1 = z
        tau = self.tau(q1)
        k1 = self.dims.k1
        y2, dy2 = eta[k1], eta[k1 + 1]
        q2 = y2 + self.y2d(tau)
        dq2 = dy2 + self.dy2d(tau) * dq1 / self.delta
        return np.array([q1, q2, dq1, dq2])


def mech_feedback_linearize(plant: MechPlant, x: np.ndarray, mu: np.ndarray,
                            mode: str = "state",
                            tau_input: float | np.ndarray | None = None) -> np.ndarray:
    """Feedback linearizing input u for the mech plant.

    mode "state" uses the state-based phase tau(q1); mode "time" uses the
    supplied phase estimate tau_input in the feedforward, with the phase
    rate and acceleration taken from the true state (only the phase value
    is corrupted).  With tau_input = tau(q1) the two modes coincide exactly.
    Returns u = (u1, u2); for the k1 = 0 plant the phase joint is
    unactuated and u1 = 0.  A stack x (S, 4) takes mu (S, n_mu) and a
    tau_input of shape (S,), and gives u (S, 2).
    """
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    expected = x.shape[:-1] + (plant.dims.n_mu,)
    if mu.shape != expected:
        raise ValueError(f"mu has shape {mu.shape}, expected {expected}")
    delta = plant.delta
    if mode == "state":
        tau_ff = plant.tau(x.T[0])
    elif mode == "time":
        if tau_input is None:
            raise ValueError("time mode requires tau_input")
        tau_ff = tau_input
    else:
        raise ValueError(f"unknown mode {mode!r}")
    _check_phases("phase {:g} outside [0, 1]", -1e-9, 1.0 + 1e-9, tau_ff)

    tau_rate = x.T[2] / delta
    if plant.v_d is None:
        u1 = np.zeros(x.shape[:-1])
        mu2 = mu.T[0]
    else:
        u1, mu2 = mu.T  # dy1/dt = u1 and the desired velocity is constant
    # d2y2/dt2 = u2 - y2d''(tau) tau_rate^2 - y2d'(tau) u1/delta; the square is
    # a product in both shapes, as ** 2 on a numpy scalar calls pow, which can
    # differ in the last bit from the product that ** 2 on an array computes
    u2 = plant.d2y2d(tau_ff) * (tau_rate * tau_rate) + plant.dy2d(tau_ff) * (u1 / delta) + mu2
    return np.array([u1, u2]).T


def mech_eta_rate(plant: MechPlant, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """d eta/dt of the true outputs under input u (chain rule, exact), row by row on a stack."""
    q1, _, dq1, dq2 = x.T
    tau = plant.tau(q1)
    tau_rate = dq1 / plant.delta
    dy2d = plant.dy2d(tau)
    u1, u2 = u.T
    dy2_rate = u2 - plant.d2y2d(tau) * (tau_rate * tau_rate) - dy2d * u1 / plant.delta
    dy2 = dq2 - dy2d * dq1 / plant.delta  # the dy2 of eta_of(x)
    if plant.v_d is None:
        return np.array([dy2, dy2_rate]).T
    return np.array([u1, dy2, dy2_rate]).T


def derive_phase_disturbance(plant: MechPlant, x: np.ndarray,
                             e: float | np.ndarray) -> np.ndarray:
    """Equivalent mu-channel disturbance induced by the phase error e.

    d = G+ (f_cl(x; tau+e) - f_cl(x; tau)) restricted to the eta subsystem,
    where f_cl is the closed-loop eta rate; the auxiliary input cancels in
    the difference, so d is exactly the feedforward mismatch.  d = 0 at e = 0.
    A stack x (S, 4) takes e of shape (S,) and gives d (S, n_mu).
    """
    x = np.asarray(x, dtype=float)
    tau = plant.tau(x.T[0])
    tau_hat = tau + e
    _check_phases("phase {:g} (or {:g}) outside [0, 1]", 0.0, 1.0, tau_hat, tau)
    mu0 = np.zeros(x.shape[:-1] + (plant.dims.n_mu,))
    u_hat = mech_feedback_linearize(plant, x, mu0, mode="time", tau_input=tau_hat)
    u_ref = mech_feedback_linearize(plant, x, mu0, mode="time", tau_input=tau)
    # G has orthonormal columns, so the pseudoinverse is G'.
    return matvec(plant.dyn.G.T, mech_eta_rate(plant, x, u_hat) - mech_eta_rate(plant, x, u_ref))


# ---------------------------------------------------------------------------
# Disturbed closed loops


@dataclass(frozen=True)
class DisturbedClosedLoop:
    """Hopf plant under the min-norm controller, disturbance, and optional damping.

    The flat simulation state is the concatenation (eta, z).  With zero
    disturbance and eta = 0, z on the circle, the flow is periodic with
    period 2 pi / omega.
    """

    plant: HopfPlant
    cert: ResClfCertificate
    controller: str = "min_norm"
    signal: DisturbanceSignal | None = None
    eps_bar: float = 0.1
    sigma: float = 1.0  # composite Lyapunov weight used for the V_c trace
    #: [F; P_eps; 2 G'P_eps; M; C], built once: the laws' operator plus the coupling
    operator: np.ndarray = field(init=False, repr=False, compare=False)
    #: (y1, y2, dy2) slices of eta and the slice of v that the dy2 rows take
    _place: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.controller not in CONTROLLER_MODES:
            raise ValueError(f"unknown controller mode {self.controller!r}")
        if self.cert.dims != self.plant.dims:
            raise ValueError("certificate and plant dims disagree")
        dims = self.plant.dims
        object.__setattr__(self, "operator", np.vstack(
            [clf_operator(self.cert, self.plant.dyn), self.plant.coupling]))
        object.__setattr__(self, "_place", dims.blocks + (slice(dims.k1, None),))

    @property
    def state_dim(self) -> int:
        return self.plant.dims.n_eta + 2

    @property
    def damped(self) -> bool:
        """Whether the damping feedback u_s is on."""
        return self.controller == "min_norm_plus_us"

    def field(self, t: float, state: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The closed-loop right-hand side at time t.

        state is one flat state (state_dim,) or a batch (B, state_dim) of
        runs under this loop's plant, certificate and controller.  d is the
        mu-channel disturbance at t, one row per run.  One row-by-row
        ``matvec`` of ``operator`` gives the laws' rows and C eta:

            d eta/dt = F eta + G v,   v = mu + u_s + d,   dz/dt = Psi0(z) + C eta.

        F and G select disjoint rows (``build_fg``), so F eta + G v is
        written by placement: v's first k1 entries into the y1 rows, eta's
        dy2 block into the y2 rows, the rest of v into the dy2 rows.
        """
        n = self.plant.dims.n_eta
        eta, z = state[..., :n], state[..., n:]
        rows = matvec(self.operator, eta)
        v = min_norm_mu(self.cert, eta, rows)
        if self.damped:
            v = v + u_s_damping(self.cert, rows, self.eps_bar)
        v = v + d
        y1, y2, dy2, v_dy2 = self._place
        out = np.empty_like(state)
        out[..., y1] = v[..., y1]
        out[..., y2] = eta[..., dy2]
        out[..., dy2] = v[..., v_dy2]
        np.add(self.plant.zero_field(z), rows[..., -2:], out=out[..., n:])
        return out


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

    def __post_init__(self):
        if self.cert.dims != self.plant.dims:
            raise ValueError("certificate and plant dims disagree")
        if self.signal is not None and self.signal.kind != "phase_error_driven":
            raise ValueError("mech closed loop takes a phase_error_driven signal")
        object.__setattr__(self, "operator", clf_operator(self.cert, self.plant.dyn))

    @property
    def state_dim(self) -> int:
        return 4

    def phase_error(self, t: float | np.ndarray) -> float | np.ndarray:
        """e(t) at one time or at an array of times."""
        if self.signal is None:
            return 0.0 * t  # times are nonnegative, so this is +0.0 in t's shape
        return self.signal.phase_error(t)

    def control(self, t: float, x: np.ndarray) -> np.ndarray:
        tau_hat = self.plant.tau(x[0]) + self.phase_error(t)
        # the outputs as the controller sees them, measured at the phase estimate
        eta_hat = self.plant.eta_at(x, tau_hat)
        mu = min_norm_mu(self.cert, eta_hat, matvec(self.operator, eta_hat))
        return mech_feedback_linearize(self.plant, x, mu, mode="time", tau_input=tau_hat)

    def field(self, t: float, x: np.ndarray) -> np.ndarray:
        u = self.control(t, x)
        return np.array([x[2], x[3], u[0], u[1]])
