"""Independent closed forms that the tests hold the package's kernels against.

The package computes each closed loop's outputs, field and law in one place,
its generated stage (``orbitclf.plants``).  The functions here restate parts
of the same math by hand, as plain numpy on one point or a stack, so that a
test can compare the stage, the integrator or a certificate with something
that was not generated from the same lines:

* the Hopf plant's uncoupled field Psi0 and its logistic closed-form flow;
* the converse-Lyapunov function V_Z with its gradient and annulus guard;
* the mech plant's outputs eta at a phase, at the true phase, and the
  inverse map x(eta, z);
* the controller-set membership test of the RES-CLF.

Each takes the plant or the certificate first.
"""

from __future__ import annotations

import numpy as np

import orbitclf as oc


# --- Hopf plant -----------------------------------------------------------------

def zero_field(plant: oc.HopfPlant, z: np.ndarray) -> np.ndarray:
    """Psi0(z), the uncoupled Hopf normal form; z is (2,) or a batch (..., 2)."""
    z = np.asarray(z, dtype=float)
    zz = z * z
    g = plant.lambda_h * (plant.r0 ** 2 - (zz[..., 0] + zz[..., 1]))
    # (-w z2 + g z1, w z1 + g z2), each sum in that order
    return z[..., ::-1] * [-plant.omega, plant.omega] + g[..., None] * z


def exact_zero_solution(plant: oc.HopfPlant, z0: np.ndarray, t: float) -> np.ndarray:
    """Closed-form flow of dz/dt = Psi0(z): logistic radius, linear angle."""
    r2_0 = float(z0 @ z0)
    if r2_0 == 0.0:
        return np.zeros(2)
    e = np.exp(2.0 * plant.lambda_h * plant.r0 ** 2 * t)
    r2 = plant.r0 ** 2 * r2_0 * e / (plant.r0 ** 2 + r2_0 * (e - 1.0))
    th = np.arctan2(z0[1], z0[0]) + plant.omega * t
    r = np.sqrt(r2)
    return np.array([r * np.cos(th), r * np.sin(th)])


def vz_converse_lyapunov(plant: oc.HopfPlant, y1: np.ndarray, z: np.ndarray,
                         annulus_fraction: float = 0.5,
                         ) -> tuple[float, np.ndarray, oc.ConverseConstants]:
    """Evaluate V_Z, its gradient w.r.t. (y1, z), and the constants c4..c7.

    Raises ValueError when z lies outside the analysis annulus.
    """
    y1 = np.asarray(y1, dtype=float)
    z = np.asarray(z, dtype=float)
    consts = oc.converse_constants(plant, annulus_fraction)
    nz = float(np.linalg.norm(z))
    if not (plant.r0 - consts.r - 1e-12 <= nz <= plant.r0 + consts.r + 1e-12):
        raise ValueError(f"||z|| = {nz:g} outside the annulus "
                         f"[{plant.r0 - consts.r:g}, {plant.r0 + consts.r:g}]")
    s = nz * nz - plant.r0 ** 2
    value = s * s + float(y1 @ y1)
    grad = np.concatenate([2.0 * y1, 4.0 * s * z])
    return value, grad, consts


# --- mech plant -----------------------------------------------------------------

def outputs(plant: oc.MechPlant, xs, jet: tuple) -> tuple:
    """The entries of the outputs (y1?, y2, dy2) of the state with entries xs against a jet."""
    _, q2, dq1, dq2 = xs
    y2 = q2 - jet[0]
    dy2 = dq2 - jet[1] * dq1 / plant.delta
    return (y2, dy2) if plant.v_d is None else (dq1 - plant.v_d, y2, dy2)


def eta_at(plant: oc.MechPlant, x: np.ndarray, tau: float | np.ndarray) -> np.ndarray:
    """Output coordinates (y1?, y2, dy2) of x measured at phase tau."""
    return np.array(outputs(plant, x.T, plant.jet(tau))).T


def eta_of(plant: oc.MechPlant, x: np.ndarray) -> np.ndarray:
    """Output coordinates eta(x) at the true phase."""
    return eta_at(plant, x, plant.tau(x.T[0]))


def x_of(plant: oc.MechPlant, eta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Reconstruct x from (eta, z); inverse of (eta_of, z_of)."""
    q1, dq1 = z
    y2d, dy2d, _ = plant.jet(plant.tau(q1))
    k1 = plant.dims.k1
    y2, dy2 = eta[k1], eta[k1 + 1]
    return np.array([q1, y2 + y2d, dq1, dy2 + dy2d * dq1 / plant.delta])


# --- controller set -------------------------------------------------------------

def membership(cert: oc.ResClfCertificate, dyn: oc.OutputDynamics, eta: np.ndarray,
               mu: np.ndarray, rate: float | None = None) -> tuple[bool, float]:
    """Controller-set membership test; returns (member, signed slack).

    The set is that of decrease rate `rate`, by default the rapid rate
    gamma/eps (rate = gamma gives the plain exponential set).  Membership
    allows the slack a working-precision margin (1e-12 scaled to the term
    magnitudes) so that the exactly-tight min-norm selection is a member
    despite round-off.  Applies unchanged to time-based outputs via eta_t.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (cert.dims.n_mu,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({cert.dims.n_mu},)")
    rate = cert.rate if rate is None else rate
    ev = oc.evaluate_clf(cert, dyn, eta)  # checks eta's shape
    slack = ev.LF_V + float(ev.LG_V @ mu) + rate * ev.V
    guard = 1e-12 * max(1.0, abs(ev.LF_V), rate * ev.V, abs(float(ev.LG_V @ mu)))
    return slack <= guard, slack
