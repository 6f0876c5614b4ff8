"""Where the disturbance comes from: phase error on a mechanical plant.

A 2-DOF unit-inertia arm tracks a Bezier pose trajectory parameterized by
the phase tau(q1), plus a velocity target on the phase joint.  Running the
controller with a time-based phase estimate instead of the state-based one
is harmless when the estimate is exact, and equivalent to a matched input
disturbance when it is not: d = G+ (f_cl(x; tau+e) - f_cl(x; tau)).
"""

import numpy as np

import orbitclf as oc

plant = oc.MechPlant(alpha=np.array([0.0, 0.1, 0.3, 0.3, 0.1, 0.0]))
cert = oc.certificate(oc.build_fg(plant.dims), np.eye(3), 0.2)

print("=== exact phase: time-based == state-based ===")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(100):
    x = np.array([rng.uniform(0.1, 0.9), rng.normal(0, 0.3),
                  rng.uniform(0.5, 1.5), rng.normal(0, 0.3)])
    mu = rng.normal(size=2)
    u_s = oc.mech_feedback_linearize(plant, x, mu)
    u_t = oc.mech_feedback_linearize(plant, x, mu, tau=plant.tau(x[0]))
    worst = max(worst, float(np.max(np.abs(u_s - u_t))))
print(f"largest |u_state - u_time| over 100 random states: {worst:.2e}")

print("\n=== corrupted phase: the equivalent disturbance ===")
x = np.array([0.3, 0.25, 1.1, 0.05])
for e in (0.0, 0.01, 0.02, 0.04):
    d = oc.derive_phase_disturbance(plant, x, e)
    print(f"  e = {e:5.2f}: d = {np.round(d, 6)}   ||d|| = {np.linalg.norm(d):.6f}")
print("(zero at e = 0, then growing linearly: the feedforward mismatch")
print(" y2d''(tau+e) - y2d''(tau) is first order in e)")

print("\n=== closed loop under a sinusoidal phase error ===")
x0 = np.array([0.05, plant.y2d(0.05) + 0.02, 1.0, 0.0])
for e_amp in (0.01, 0.04):
    sig = oc.DisturbanceSignal(kind="phase_error_driven", dim=2, amplitude=e_amp,
                               frequency=1.0)
    loop = oc.MechClosedLoop(plant=plant, cert=cert, signal=sig)
    rec = oc.integrate(loop, x0, T=0.8, dt=1e-3)
    d_sup = float(np.max(np.linalg.norm(rec.d, axis=1)))
    print(f"  phase-error amplitude {e_amp}: sup ||d|| along run = {d_sup:.5f},  "
          f"final ||eta|| = {np.linalg.norm(rec.eta[-1]):.5f}")
print("\nDoubling the phase error doubles the induced |d|inf, which is what")
print("lets the linear ultimate-bound machinery absorb sensor phase noise.")
