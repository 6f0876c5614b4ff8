"""Phase-to-state-stability checks on recorded trajectories.

Everything here is computed from the certificate constants and the plant's
converse-Lyapunov constants; no bound is hard-coded.  The checks implement
the verifiable content of the stability analysis:

* zero stability: with d = 0 the orbit distance envelope decays below
  ZS_DECAY (1e-6) of its initial value (and a decay rate is fitted); a run
  whose envelope never exceeds ON_ORBIT_ATOL (1e-8) started on the orbit;
* asymptotic gain: ultimate distances over an amplitude grid admit a
  linear fit through an intercept within AG_INTERCEPT_TOL (1e-4), each
  within AG_ENVELOPE_TOL (0.25) of the line;
* ultimate bounds: measured tail ||eta|| against 4 c2/(gamma c1 eps) |d|inf
  (min-norm controller) and 2 eps_bar c2/(c1^2 eps^2) |d|inf (with the
  damping feedback);
* composite decrease: wherever ||eta|| exceeds the rejection threshold,
  the exact derivative of V_c = sigma V_Z + V_eps along the integrated
  field is nonpositive up to RATE_RTOL (1e-12) of its terms, and V_c is
  sandwiched by min(sigma c4, c1), max(sigma c5, c2/eps^2) times
  (dist_pz^2 + ||eta||^2) up to SANDWICH_RTOL (1e-9) of max(1, |V_c|);
* the sigma rule: sigma is half the supremum allowed by
  c6 c1 gamma/eps - sigma c7^2 Lq^2 / 4 > 0.

A run's verdicts are a list of `Check` rows: the same rows are printed,
stored in the report under their keys and folded by `verdict` into the
exit code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clf import vecdot
from .plants import ConverseConstants, DisturbedClosedLoop, HopfPlant, pzd_distance
from .riccati import ResClfCertificate
from .simulator import TrajectoryRecord

#: orbit distance at or below which a d = 0 run counts as started on the orbit
ON_ORBIT_ATOL = 1e-8
#: a Lyapunov-rate inequality's rounding allowance per unit of its terms, as ``membership``'s
RATE_RTOL = 1e-12
#: fraction of its initial value below which a d = 0 run's distance envelope must decay
ZS_DECAY = 1e-6
#: fewest samples of a d = 0 run whose decay the zero-stability check assesses
ZS_MIN_SAMPLES = 8
#: largest |intercept| of the asymptotic-gain line
AG_INTERCEPT_TOL = 1e-4
#: largest relative distance of a positive amplitude's ultimate from the gain line
AG_ENVELOPE_TOL = 0.25
#: the composite sandwich's allowance per unit of max(1, |V_c|)
SANDWICH_RTOL = 1e-9


@dataclass(frozen=True)
class Check:
    """One verdict: its table label, its report key, ok and the figure shown beside it.

    ok is None where the check does not apply (printed "n/a"); such a row
    does not fail the run.
    """

    label: str
    key: str
    ok: bool | None
    value: float | None = None

    def __post_init__(self):
        # a numpy bool is never `False` by identity, which would pass verdict()
        if self.ok is not None:
            object.__setattr__(self, "ok", bool(self.ok))


def verdict(checks) -> bool:
    """True unless some check failed; this alone sets the exit code."""
    return all(c.ok is not False for c in checks)


def report_payload(figures: dict, checks) -> dict:
    """The run's figures plus each check's ok under its key."""
    return {**figures, **{c.key: c.ok for c in checks}}


def min_norm_ultimate_bound(cert: ResClfCertificate, d_inf: float) -> float:
    """Ultimate bound 4 c2 / (gamma c1 eps) * |d|inf for the min-norm loop."""
    return 4.0 * cert.c2 / (cert.gamma * cert.c1 * cert.eps) * d_inf


def damped_ultimate_bound(cert: ResClfCertificate, eps_bar: float, d_inf: float) -> float:
    """Ultimate bound 2 eps_bar c2 / (c1^2 eps^2) * |d|inf with damping active."""
    return 2.0 * eps_bar * cert.c2 / (cert.c1 ** 2 * cert.eps ** 2) * d_inf


def rejection_threshold(cert: ResClfCertificate, eps_bar: float, d_inf: float) -> float:
    """||eta|| level above which the composite decrease must hold."""
    return damped_ultimate_bound(cert, eps_bar, d_inf)


def choose_sigma(cert: ResClfCertificate, consts: ConverseConstants, L_q: float) -> float:
    """Composite weight: half the supremum allowed by the sigma rule.

    sigma = 0.5 * 4 c6 c1 gamma / (eps c7^2 Lq^2); returns 1 when the
    zero dynamics are uncoupled (Lq = 0).
    """
    if L_q < 0.0:
        raise ValueError("L_q must be nonnegative")
    if L_q == 0.0:
        return 1.0
    return 2.0 * consts.c6 * cert.c1 * cert.gamma / (cert.eps * consts.c7 ** 2 * L_q ** 2)


def sigma_condition(cert: ResClfCertificate, consts: ConverseConstants, L_q: float,
                    sigma: float) -> tuple[bool, float]:
    """Check c6 c1 gamma/eps - sigma c7^2 Lq^2/4 > 0; returns (ok, margin ratio)."""
    lhs = consts.c6 * cert.c1 * cert.gamma / cert.eps
    used = sigma * consts.c7 ** 2 * L_q ** 2 / 4.0
    margin = (lhs - used) / lhs if lhs > 0.0 else -np.inf
    return used < lhs, float(margin)


def check_zero_stability(record: TrajectoryRecord) -> tuple[bool, float]:
    """Zero-stability verdict and fitted envelope decay rate for a d = 0 run.

    The forward-supremum envelope of the orbit distance must fall below
    ZS_DECAY of its initial value; the rate is the least-squares slope of
    log(dist) over the samples before the floor is reached.  Runs whose
    envelope never exceeds ON_ORBIT_ATOL count as trivially stable (an
    on-orbit start leaves only integrator noise to measure).
    """
    if len(record) < ZS_MIN_SAMPLES:
        raise ValueError("record too short to assess decay")
    if float(np.max(np.abs(record.d))) != 0.0:
        raise ValueError("zero-stability check requires a d = 0 record")
    dist = record.dist
    env = np.maximum.accumulate(dist[::-1])[::-1]  # sup over the future
    d0 = env[0]
    if d0 <= ON_ORBIT_ATOL:
        return True, np.inf  # started on the orbit
    zs_ok = bool(env[-1] <= ZS_DECAY * d0)
    floor = max(ZS_DECAY * d0, 1e-14)
    mask = dist > floor
    if int(np.count_nonzero(mask)) < 4:
        return zs_ok, np.inf
    slope = np.polyfit(record.t[mask], np.log(dist[mask]), 1)[0]
    return zs_ok, float(-slope)


def check_asymptotic_gain(amplitudes: np.ndarray,
                          ultimates: np.ndarray) -> tuple[float, float, bool]:
    """Linear gain fit over an amplitude grid; returns (gain, intercept, ok).

    Needs at least 3 amplitudes including 0.  ok requires the intercept to
    be within AG_INTERCEPT_TOL and every positive-amplitude ultimate to lie
    within (1 +- AG_ENVELOPE_TOL) of the fitted line through the origin.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    ultimates = np.asarray(ultimates, dtype=float)
    if amplitudes.shape[0] < 3:
        raise ValueError("need at least 3 amplitudes")
    if float(np.min(np.abs(amplitudes))) != 0.0:
        raise ValueError("the amplitude grid must include 0")
    if float(np.max(amplitudes)) == 0.0:
        return 0.0, 0.0, True
    A = np.column_stack([amplitudes, np.ones_like(amplitudes)])
    (gain, intercept), *_ = np.linalg.lstsq(A, ultimates, rcond=None)
    ok = abs(intercept) <= AG_INTERCEPT_TOL and np.isfinite(gain) and gain >= 0.0
    pos = amplitudes > 0.0
    if gain > 0.0:
        ratio = ultimates[pos] / (gain * amplitudes[pos])
        ok = ok and bool(np.all(np.abs(ratio - 1.0) <= AG_ENVELOPE_TOL))
    return float(gain), float(intercept), bool(ok)


def _rounding(*terms: np.ndarray) -> np.ndarray:
    """RATE_RTOL times each sample's largest |term|, and at least RATE_RTOL."""
    return RATE_RTOL * np.max(np.abs(terms), axis=0, initial=1.0)


def _lyapunov_rates(record: TrajectoryRecord, loop: DisturbedClosedLoop) -> tuple:
    """(dV_eps/dt, dV_Z/dt) per sample: grad V times the field f under the recorded d, RK4's k1.

    dV_eps/dt = 2 eta'P_eps f_eta, dV_Z/dt = 4 s z.f_z + 2 y1.f_y1, s = |z|^2 - r0^2.
    """
    eta, z, n, k1 = record.eta, record.z, loop.plant.dims.n_eta, loop.plant.dims.k1
    f = loop.field(0.0, np.hstack([eta, z]), loop.place(record.d))
    s = vecdot(z, z) - loop.plant.r0 ** 2
    return (2.0 * vecdot(eta @ loop.cert.P_eps, f[:, :n]),
            4.0 * s * vecdot(z, f[:, n:]) + 2.0 * vecdot(eta[:, :k1], f[:, :k1]))


def check_iss_lyapunov(record: TrajectoryRecord, loop: DisturbedClosedLoop,
                       d_inf: float) -> tuple[bool, bool, dict]:
    """Composite decrease in the rejection region plus the strict e-ISS form.

    Returns (vc_decrease_ok, eiss_form_ok, details) for a record of `loop`
    under |d|inf = d_inf: sigma dV_Z/dt + dV_eps/dt <= 0 where ||eta|| >= the
    rejection threshold, and dV_eps/dt <= -(gamma/eps) V_eps + 2 ||eta||
    ||P_eps G|| d_inf at every sample, each up to RATE_RTOL of its terms.
    """
    if not isinstance(loop, DisturbedClosedLoop):
        raise ValueError(f"check_iss_lyapunov needs a Hopf closed loop, got {type(loop).__name__}")
    cert, eta_n = loop.cert, record.eta_norm
    threshold = rejection_threshold(cert, loop.eps_bar, d_inf)
    region = eta_n >= threshold
    vdot_eps, vdot_z = _lyapunov_rates(record, loop)
    sigma_vdot_z = loop.sigma * vdot_z
    vdot_c = sigma_vdot_z + vdot_eps
    vc_ok = np.all((vdot_c <= _rounding(sigma_vdot_z, vdot_eps))[region])

    # strict e-ISS inequality on V_eps, sample by sample
    decay = cert.rate * record.v_eps
    gain = 2.0 * eta_n * float(np.linalg.norm(cert.P_eps @ loop.plant.dyn.G, 2)) * d_inf
    slack = gain - decay - vdot_eps
    eiss_ok = np.all(slack >= -_rounding(vdot_eps, decay, gain))
    details = {"threshold": threshold, "region_samples": int(np.count_nonzero(region)),
               "worst_vdot_c": float(np.max(vdot_c[region], initial=-np.inf)),
               "eiss_margin": float(np.min(slack))}
    return bool(vc_ok), bool(eiss_ok), details


def composite_bounds(cert: ResClfCertificate, sigma: float,
                     consts: ConverseConstants) -> tuple[float, float]:
    """Sandwich coefficients (min(sigma c4, c1), max(sigma c5, c2/eps^2))."""
    lower = min(sigma * consts.c4, cert.c1)
    upper = max(sigma * consts.c5, cert.c2 / cert.eps ** 2)
    return float(lower), float(upper)


def check_composite_sandwich(record: TrajectoryRecord, cert: ResClfCertificate,
                             sigma: float, consts: ConverseConstants,
                             plant: HopfPlant) -> bool:
    """lower (dist_pz^2 + |eta|^2) <= V_c <= upper (...) at in-annulus samples."""
    lower, upper = composite_bounds(cert, sigma, consts)
    nz = np.sqrt(vecdot(record.z, record.z))
    # converse constants only certified on the annulus
    in_annulus = (plant.r0 - consts.r <= nz) & (nz <= plant.r0 + consts.r)
    dpz = pzd_distance(record.eta[:, :plant.dims.k1], record.z, plant)
    s = dpz * dpz + vecdot(record.eta, record.eta)
    vc = record.v_c
    slack = SANDWICH_RTOL * np.maximum(1.0, np.abs(vc))
    inside = (lower * s - slack <= vc) & (vc <= upper * s + slack)
    return bool(np.all(inside | ~in_annulus))


def fit_eiss_envelope(record: TrajectoryRecord) -> tuple[float, float]:
    """(delta1, delta2) with dist(t) <= delta1 e^{-delta2 t} dist(0) from a d=0 run."""
    dist = record.dist
    d0 = float(dist[0])
    if d0 <= 0.0:
        return 1.0, np.inf
    floor = max(1e-12, 1e-8 * d0)
    mask = dist > floor
    if int(np.count_nonzero(mask)) < 4:
        return 1.0, np.inf
    slope, logc = np.polyfit(record.t[mask], np.log(dist[mask]), 1)
    delta2 = float(-slope)
    # inflate delta1 so the envelope covers every sample
    ratio = dist[mask] / (np.exp(logc) * np.exp(slope * record.t[mask]))
    delta1 = float(np.exp(logc) * np.max(ratio) / d0)
    return delta1, delta2
