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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .clf import ClfConsistencyError, clf_operator, damping_gain, min_norm_mu, vecdot
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
        if self.y1_rate <= 0.0:
            raise ValueError("y1_rate must be positive")
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
        """Lipschitz constant of Psi in eta: the top singular value of C, in closed form.

        sqrt((a + c)/2 + hypot((a - c)/2, b)) with C C' = [[a, b], [b, c]].
        """
        a, b, c = (float(v) for v in vecdot(self.coupling[[0, 0, 1]], self.coupling[[0, 1, 1]]))
        return math.sqrt(0.5 * (a + c) + math.hypot(0.5 * (a - c), b))


def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(vecdot(x, x))  # the Euclidean norm of each row


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
    return np.abs(_norm(z) - plant.r0) + _norm(y1)


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


def vz_value(y1: np.ndarray, z: np.ndarray, plant: HopfPlant) -> float | np.ndarray:
    """V_Z without the annulus guard (used for trajectory traces); batches as above."""
    s = vecdot(z, z) - plant.r0 ** 2
    return s * s + vecdot(y1, y1)


# ---------------------------------------------------------------------------
# 2-DOF mechanical plant with virtual constraints
#
# A closed mech loop's stage is generated per loop (``_mech_stage``): one
# straight-line body on a lone state's Python floats (stepping, through
# ``MechClosedLoop.field``) and one from the same lines on a run's columns
# (recording), with the plant's constants and the law forms written in.
# Only ``+ - * /`` and comparisons touch the state, so each row of the
# columns has the floats' bits.  The public kernels below take one state x
# (4,) or a stack (S, 4) with one phase, phase error or mu per row, and each
# row of a stack is bit for bit the lone call's; ``mech_feedforward`` takes
# the entries xs = x.T = (q1, q2, dq1, dq2) and a jet (y2d, y2d', y2d'').
# With the outputs in ``tests/oracles.py`` they are the stage's reference.


#: a mech run's phase domain, checked in order: the estimate (1e-9 slack), the true phase
PHASE_DOMAIN = (("phase {:g} outside [0, 1]", -1e-9, 1.0 + 1e-9),
                ("true phase {:g} outside [0, 1]", 0.0, 1.0))


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


def _phase_exit(tau_hat: float, tau: float) -> None:
    """Raise for a lone state's phases, which left PHASE_DOMAIN: a phase that is not finite
    is an overflow (e is finite: the state overflowed in the step), else ``check_phases``."""
    if not math.isfinite(tau_hat):
        raise ClfConsistencyError(f"the state overflowed: phase {tau_hat:g}")
    check_phases(tau_hat, tau)


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
    #: ``jet``'s body, generated from ``_jet_lines`` with alpha written in
    _jet: Callable = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_jet", compile_function(
            "jet(tau)", [*_jet_lines(a, "tau"), "return y2d, dy2d, d2y2d"], "<mech jet>"))

    def tau(self, q1: float | np.ndarray) -> float | np.ndarray:
        return (q1 - self.q1_minus) / self.delta

    def jet(self, tau: float | np.ndarray) -> tuple:
        """(y2d, y2d', y2d'') at a lone phase or an array of phases, by one de Casteljau pass
        (``_jet_lines``).  A lone phase, np.float64 included, runs on Python floats."""
        return self._jet(tau if isinstance(tau, np.ndarray) else float(tau))

    def y2d(self, tau: float | np.ndarray) -> float | np.ndarray:
        return self.jet(tau)[0]

    def z_of(self, x: np.ndarray) -> np.ndarray:
        """Zero-dynamics coordinates (q1, dq1)."""
        return x[..., [0, 2]]


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
    #: ``field``'s generated RHS bodies by flat list length, each built on first use
    _stages: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.controller not in CONTROLLER_MODES:
            raise ValueError(f"unknown controller mode {self.controller!r}")
        if self.cert.dims != self.plant.dims:
            raise ValueError("certificate and plant dims disagree")
        damping_gain(self.eps_bar)  # checks eps_bar

    @property
    def state_dim(self) -> int:
        return self.plant.dims.n_eta + 2

    @property
    def damped(self) -> bool:
        """Whether the damping feedback u_s is on."""
        return self.controller == "min_norm_plus_us"

    @functools.cached_property
    def columns(self) -> Callable:
        """The field's one-row body on 1-D columns: columns(x, d, law) -> (dx, mu, u_s)."""
        return _hopf_stage([self], columns=True)

    def field(self, t: float, state: list, d: list) -> list:
        """The closed-loop right-hand side at time t.

        d eta/dt = F eta + G(u_s + mu + d) and dz/dt = Psi0(z) + C eta, with
        the min-norm mu, u_s = damping_gain psi1 or 0 and the disturbance d.
        state holds B states and d their disturbances, as flat lists of
        Python floats; the RHS is a flat list, by a body generated once per
        B (``_hopf_stage`` with this loop on every row; ``integrate`` steps
        it with each row's loop) that makes one ``min_norm_mu`` call.
        """
        if (stage := self._stages.get(len(state))) is None:
            rows, rest = divmod(len(state), self.state_dim)
            if rest or not rows:
                raise ValueError(f"{len(state)} floats are not whole rows of {self.state_dim}")
            stage = self._stages[len(state)] = _hopf_stage([self] * rows, columns=False)
        return stage(state, d, min_norm_mu)


def compile_function(signature: str, body: list[str], label: str,
                     names: dict | None = None) -> Callable:
    """The function `def signature:` with the given straight-line body, compiled under label,
    whose globals are the given names (and the builtins)."""
    namespace = dict(names or {})
    exec(compile("\n    ".join([f"def {signature}:", *body]), label, "exec"), namespace)
    return namespace[signature.partition("(")[0]]


def _literal(value: float) -> str:
    """A constant as generated code writes it in, its repr; one that is not finite is an error."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite constant {value} in a closed loop's field")
    return repr(float(value))


def _terms(coefficients, names) -> list[str]:
    """The terms c * v of a linear form over its nonzero coefficients; 1.0 * v is v."""
    return [v if c == 1.0 else f"{_literal(c)} * {v}"
            for c, v in zip(np.asarray(coefficients, dtype=float).tolist(), names) if c]


def _sum(terms) -> str:
    """The terms summed left to right, or 0.0 for none."""
    return " + ".join(terms) or "0.0"


def _law_lines(W: np.ndarray, eta: list[str], p: list[str], s: str, q: str) -> list[str]:
    """Lines setting psi1's entries p, psi0 = eta . (M eta) as s and ||psi1||^2 as q, by W."""
    n, m = len(eta), len(p)
    return ([f"{pj} = {_sum(_terms(row, eta))}" for pj, row in zip(p, W[2 * n:2 * n + m])]
            + [f"{s} = " + _sum(f"{e} * ({_sum(_terms(row, eta))})"
                                for e, row in zip(eta, W[2 * n + m:]) if row.any()),
               f"{q} = " + _sum(f"{pj} * {pj}" for pj in p)])


def _hopf_stage(loops: list[DisturbedClosedLoop], columns: bool) -> Callable:
    """The Hopf RHS, a row per loop on floats (``field``, ``integrate``), or ``columns``.

    Straight-line Python over each row's loop's nonzero coefficients (reprs):
    the row's law forms (``_law_lines``), one law call for all rows, d eta/dt
    = F eta + G(u_s + k psi1 + d) and dz/dt = C eta + (-w z2, w z1) + lh (r0^2
    - |z|^2) z.  Rows may come from loops with different certificates.
    """
    names, ds, before, after, dx, mu, u_s = [], [], [], [], [], [], []
    for b, loop in enumerate(loops):
        plant, n, m = loop.plant, loop.plant.dims.n_eta, loop.plant.dims.n_mu
        W, C = clf_operator(loop.cert, plant.dyn), plant.coupling
        g = plant.dyn.G.argmax(axis=0).tolist()  # the state rows that G feeds, in mu order
        us = damping_gain(loop.eps_bar) if loop.damped else None
        eta, za, zb, k = [f"e{b}_{i}" for i in range(n)], f"za{b}", f"zb{b}", f"k{b}"
        p = [f"p{b}_{j}" for j in range(m)]
        names += eta + [za, zb]
        ds += [f"d{b}_{j}" for j in range(m)]
        before += _law_lines(W, eta, p, f"s{b}", f"q{b}")
        radial = f"({plant.r0 ** 2!r} - ({za} * {za} + {zb} * {zb}))"
        after.append(f"r{b} = " + _sum(_terms([plant.lambda_h], [radial])))
        c_eta = [_terms(C[0], eta), _terms(C[1], eta)]
        if np.array_equal(C[0], C[1]) and c_eta[0]:
            after.append(f"c{b} = {_sum(c_eta[0])}")
            c_eta = [[f"c{b}"]] * 2
        mu_b = [f"{k} * {pj}" for pj in p]
        us_b = [] if us is None else [f"{us!r} * {pj}" for pj in p]
        for i in range(n):
            j = g.index(i) if i in g else None
            dx.append(_sum(_terms(plant.dyn.F[i], eta) + (
                [] if j is None else us_b[j:j + 1] + [mu_b[j], ds[j - m]])))
        dx.append(_sum(c_eta[0] + _terms([-plant.omega], [zb]) + [f"r{b} * {za}"]))
        dx.append(_sum(c_eta[1] + _terms([plant.omega], [za]) + [f"r{b} * {zb}"]))
        mu += mu_b
        u_s += us_b
    if columns:
        law, label = "k0 = law(s0, q0)", "<hopf stage, columns>"
        result = f"[{', '.join(dx)}], [{', '.join(mu)}], [{', '.join(u_s)}]"
    else:
        s, q = (", ".join(f"{v}{b}" for b in range(len(loops))) for v in "sq")
        law = f"{', '.join(f'k{b}' for b in range(len(loops)))}, = law(({s},), ({q},)).tolist()"
        result, label = f"[{', '.join(dx)}]", f"<hopf stage, {len(loops)} rows>"
    body = [f"{', '.join(names)}, = x", f"{', '.join(ds)}, = d", *before, law, *after]
    return compile_function("stage(x, d, law)", [*body, f"return {result}"], label)


def _jet_lines(alpha: np.ndarray, tau: str) -> list[str]:
    """Lines setting y2d, dy2d and d2y2d, the jet of the Bezier alpha at the phase named tau.

    One degree-5 de Casteljau pass, written out: each level replaces b_i by
    b_i + tau (b_{i+1} - b_i), 14 such steps, the first level's differences
    written in as constants.  With b^(k) the level-k points, y2d' = 5 (b1^(4)
    - b0^(4)) and y2d'' = 20 (b2^(3) - 2 b1^(3) + b0^(3)) (Farin, *Curves and
    Surfaces for CAGD*).  The same IEEE operations run on a float and on an array.
    """
    a = alpha.tolist()
    lines = [f"b{i} = {_literal(p)} + {tau} * {_literal(q - p)}"
             for i, (p, q) in enumerate(zip(a, a[1:]))]
    for size, new, old in ((4, "c", "b"), (3, "b", "c"), (1, "c", "b")):
        lines += [f"{new}{i} = {old}{i} + {tau} * ({old}{i + 1} - {old}{i})" for i in range(size)]
    return lines + [f"db = b1 + {tau} * (b2 - b1) - c0", f"y2d = c0 + {tau} * db",
                    "dy2d = 5.0 * db", "d2y2d = 20.0 * (b2 - 2.0 * b1 + b0)"]


def _mech_stage(loop: MechClosedLoop, columns: bool) -> Callable:
    """The mech RHS at a state x = (q1, q2, dq1, dq2) and phase error e, on floats or ``columns``.

    Straight-line Python with the loop's constants written in (reprs):
    tau = (q1 - q1_minus) / delta and tau_hat = tau + e in PHASE_DOMAIN
    (``_phase_exit`` on floats, ``check_phases`` on columns), the jet at
    tau_hat (``_jet_lines``), the outputs eta_hat, the law forms
    (``_law_lines``), one call of ``law`` (the caller's ``min_norm_mu``),
    mu = k psi1 and the linearizing input (u1, u2).  Floats give dx =
    [dq1, dq2, u1, u2]; columns give (dx, eta_hat, mu, ff), ff the input u2
    at mu = 0, whose change from e = -0.0 (the true phase) to e is d.
    """
    plant = loop.plant
    delta = _literal(plant.delta)
    eta = ["y2", "dy2"] if plant.v_d is None else ["y1", "y2", "dy2"]
    p = [f"p{j}" for j in range(plant.dims.n_mu)]
    mu = ["mu2"] if plant.v_d is None else ["u1", "mu2"]
    (_, hat_lo, hat_hi), (_, lo, hi) = PHASE_DOMAIN
    body = ["q1, q2, dq1, dq2 = x", f"tau = (q1 - {_literal(plant.q1_minus)}) / {delta}",
            "tau_hat = tau + e",
            "check_phases(tau_hat, tau)" if columns else
            f"if not ({hat_lo!r} <= tau_hat <= {hat_hi!r} and {lo!r} <= tau <= {hi!r}): "
            "_phase_exit(tau_hat, tau)",
            *_jet_lines(plant.alpha, "tau_hat"),
            "y2 = q2 - y2d", f"dy2 = dq2 - dy2d * dq1 / {delta}",
            *([] if plant.v_d is None else [f"y1 = dq1 - {_literal(plant.v_d)}"]),
            *_law_lines(clf_operator(loop.cert, plant.dyn), eta, p, "s", "q"),
            "k = law(s, q)" if columns else "k = float(law(s, q))",
            f"mu2 = k * {p[-1]}",
            # with k1 = 0 the phase joint is unactuated; else dy1/dt = u1 = mu1
            "u1 = 0.0" if plant.v_d is None else "u1 = k * p0",
            f"tau_rate = dq1 / {delta}", "curvature = d2y2d * (tau_rate * tau_rate)",
            f"u2 = curvature + dy2d * (u1 / {delta}) + mu2"]
    if columns:
        ff = f"curvature + dy2d * {_literal(0.0 / plant.delta)} + 0.0"  # u1 / delta at u1 = 0
        return compile_function(
            "columns(x, e, law)",
            [*body, f"return [dq1, dq2, u1, u2], [{', '.join(eta)}], [{', '.join(mu)}], {ff}"],
            "<mech stage, columns>", {"check_phases": check_phases})
    return compile_function("floats(x, e, law)", [*body, "return [dq1, dq2, u1, u2]"],
                            "<mech stage, floats>", {"_phase_exit": _phase_exit})


@dataclass(frozen=True)
class MechClosedLoop:
    """Mech plant under the time-based controller at a corrupted phase.

    The simulation state is x = (q1, q2, dq1, dq2).  The controller
    measures outputs at tau_hat = tau(q1) + e(t) and applies the time-based
    linearization with the min-norm auxiliary input.  The phase error e is
    the loop's exogenous input, as d is the Hopf loop's: entry 0 of a
    phase_error_driven signal, and identically zero under the zero kind or
    no signal.
    """

    plant: MechPlant
    cert: ResClfCertificate
    signal: DisturbanceSignal | None = None
    #: floats(x, e, law) -> dx, the stage on a lone state's four Python floats
    #: and its phase error (``_mech_stage``), built with the loop, so that a
    #: bad constant fails there
    floats: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cert.dims != self.plant.dims:
            raise ValueError("certificate and plant dims disagree")
        if self.signal is not None and self.signal.kind not in ("zero", "phase_error_driven"):
            raise ValueError("mech closed loop takes a zero or phase_error_driven signal")
        object.__setattr__(self, "floats", _mech_stage(self, columns=False))

    @property
    def state_dim(self) -> int:
        return 4

    @functools.cached_property
    def columns(self) -> Callable:
        """columns(x, e, law) -> (dx, eta_hat, mu, ff): the same lines on a run's columns
        x = states.T, for its record, built on first use."""
        return _mech_stage(self, columns=True)

    def field(self, t: float, x: list, e: list) -> list:
        """The closed-loop right-hand side at time t, as a list of Python floats.

        x is one state, a list of four Python floats (as ``rk4_step`` steps
        a batch of one mech state); e is the loop's input at t, a list of
        Python floats whose entry 0 is the phase error e(t), tabled by the
        integrator as the Hopf loop's d is.  The loop's ``floats`` body, with
        the law found in this module on each call, gives dx/dt = [dq1, dq2,
        u1, u2].
        """
        return self.floats(x, e[0], min_norm_mu)
