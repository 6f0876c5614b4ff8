"""Phase-to-state-stability checks on recorded trajectories.

Everything here is computed from the certificate constants and the plant's
converse-Lyapunov constants; no bound is hard-coded.  The checks implement
the verifiable content of the stability analysis:

* zero stability: with d = 0 the orbit distance envelope decays below
  1e-6 of its initial value (and a decay rate is fitted);
* asymptotic gain: ultimate distances over an amplitude grid admit a
  linear fit through a near-zero intercept;
* ultimate bounds: measured tail ||eta|| against 4 c2/(gamma c1 eps) |d|inf
  (min-norm controller) and 2 eps_bar c2/(c1^2 eps^2) |d|inf (with the
  damping feedback);
* composite decrease: wherever ||eta|| exceeds the rejection threshold,
  the central-difference derivative of V_c = sigma V_Z + V_eps is
  nonpositive within tolerance, and V_c is sandwiched by
  min(sigma c4, c1), max(sigma c5, c2/eps^2) times (dist_pz^2 + ||eta||^2);
* the sigma rule: sigma is half the supremum allowed by
  c6 c1 gamma/eps - sigma c7^2 Lq^2 / 4 > 0.

A run's verdicts are a list of `Check` rows: the same rows are printed,
stored in the report under their keys and folded by `verdict` into the
exit code.

Numerical derivatives are central differences on the recorded grid; their
tolerance scales with the trace magnitude so integrator noise is not
mistaken for a Lyapunov violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clf import vecdot
from .output_dynamics import build_fg
from .plants import ConverseConstants, HopfPlant, pzd_distance
from .riccati import ResClfCertificate
from .simulator import TrajectoryRecord

#: orbit distance at or below which a d = 0 run counts as started on the orbit
ON_ORBIT_ATOL = 1e-8


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


def _central_diff(values: np.ndarray, dt: float) -> np.ndarray:
    """Central differences on the interior samples (length n-2)."""
    return (values[2:] - values[:-2]) / (2.0 * dt)


def check_zero_stability(record: TrajectoryRecord, decay_target: float = 1e-6,
                         atol: float = ON_ORBIT_ATOL) -> tuple[bool, float]:
    """Zero-stability verdict and fitted envelope decay rate for a d = 0 run.

    The forward-supremum envelope of the orbit distance must fall below
    decay_target of its initial value; the rate is the least-squares slope
    of log(dist) over the samples before the floor is reached.  Runs whose
    envelope never exceeds atol count as trivially stable (an on-orbit
    start leaves only integrator noise to measure).
    """
    if len(record) < 8:
        raise ValueError("record too short to assess decay")
    if float(np.max(np.abs(record.d))) != 0.0:
        raise ValueError("zero-stability check requires a d = 0 record")
    dist = record.dist
    env = np.maximum.accumulate(dist[::-1])[::-1]  # sup over the future
    d0 = env[0]
    if d0 <= atol:
        return True, np.inf  # started on the orbit
    zs_ok = bool(env[-1] <= decay_target * d0)
    floor = max(decay_target * d0, 1e-14)
    mask = dist > floor
    if int(np.count_nonzero(mask)) < 4:
        return zs_ok, np.inf
    slope = np.polyfit(record.t[mask], np.log(dist[mask]), 1)[0]
    return zs_ok, float(-slope)


def check_asymptotic_gain(amplitudes: np.ndarray, ultimates: np.ndarray,
                          intercept_tol: float = 1e-4,
                          envelope_tol: float = 0.25) -> tuple[float, float, bool]:
    """Linear gain fit over an amplitude grid; returns (gain, intercept, ok).

    Needs at least 3 amplitudes including 0.  ok requires the intercept to
    be below intercept_tol and every positive-amplitude ultimate to lie
    within (1 +- envelope_tol) of the fitted line through the origin.
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
    ok = abs(intercept) <= intercept_tol and np.isfinite(gain) and gain >= 0.0
    pos = amplitudes > 0.0
    if gain > 0.0:
        ratio = ultimates[pos] / (gain * amplitudes[pos])
        ok = ok and bool(np.all(np.abs(ratio - 1.0) <= envelope_tol))
    return float(gain), float(intercept), bool(ok)


def check_iss_lyapunov(record: TrajectoryRecord, cert: ResClfCertificate,
                       sigma: float, d_inf: float, eps_bar: float,
                       vc_tol_scale: float = 1e-6) -> tuple[bool, bool, dict]:
    """Composite decrease in the rejection region plus the strict e-ISS form.

    Returns (vc_decrease_ok, eiss_form_ok, details).  The V_c check uses
    tolerance vc_tol_scale * max V_c on the central-difference derivative
    at interior samples with ||eta|| >= 2 eps_bar c2/(c1^2 eps^2) |d|inf.
    The e-ISS check allows for the central-difference truncation error,
    which scales like dt^2 (gamma/eps)^3 max V_eps.
    """
    if np.any(np.isnan(record.v_c)):
        raise ValueError("record has no composite Lyapunov trace")
    dt = record.dt
    threshold = rejection_threshold(cert, eps_bar, d_inf)
    eta_n = record.eta_norm[1:-1]
    vdot_c = _central_diff(record.v_c, dt)
    region = eta_n >= threshold
    vc_tol = vc_tol_scale * float(np.max(record.v_c))
    vc_ok = bool(np.all(vdot_c[region] <= vc_tol)) if np.any(region) else True
    worst_vc = float(np.max(vdot_c[region])) if np.any(region) else -np.inf

    # strict e-ISS inequality on V_eps, sample by sample
    pg_norm = float(np.linalg.norm(cert.P_eps @ build_fg(cert.dims).G, 2))
    vdot_e = _central_diff(record.v_eps, dt)
    rhs = (-cert.rate * record.v_eps[1:-1]
           + 2.0 * eta_n * pg_norm * d_inf)
    fd_tol = max(1e-9, dt ** 2 * cert.rate ** 3 * float(np.max(record.v_eps)))
    eiss_ok = bool(np.all(vdot_e <= rhs + fd_tol))
    details = {
        "threshold": threshold,
        "region_samples": int(np.count_nonzero(region)),
        "worst_vdot_c": worst_vc,
        "vc_tolerance": vc_tol,
        "eiss_margin": float(np.min(rhs + fd_tol - vdot_e)),
    }
    return vc_ok, eiss_ok, details


def composite_bounds(cert: ResClfCertificate, sigma: float,
                     consts: ConverseConstants) -> tuple[float, float]:
    """Sandwich coefficients (min(sigma c4, c1), max(sigma c5, c2/eps^2))."""
    lower = min(sigma * consts.c4, cert.c1)
    upper = max(sigma * consts.c5, cert.c2 / cert.eps ** 2)
    return float(lower), float(upper)


def check_composite_sandwich(record: TrajectoryRecord, cert: ResClfCertificate,
                             sigma: float, consts: ConverseConstants,
                             plant: HopfPlant, rel_tol: float = 1e-9) -> bool:
    """lower (dist_pz^2 + |eta|^2) <= V_c <= upper (...) at in-annulus samples."""
    lower, upper = composite_bounds(cert, sigma, consts)
    nz = np.sqrt(vecdot(record.z, record.z))
    # converse constants only certified on the annulus
    in_annulus = (plant.r0 - consts.r <= nz) & (nz <= plant.r0 + consts.r)
    dpz = pzd_distance(record.eta[:, :plant.dims.k1], record.z, plant)
    s = dpz * dpz + vecdot(record.eta, record.eta)
    vc = record.v_c
    slack = rel_tol * np.maximum(1.0, np.abs(vc))
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
