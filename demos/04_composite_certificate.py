"""Composite Lyapunov certificate for the full orbit, not just the outputs.

Driving eta to zero is half the story: the zero-dynamics orbit must survive
the coupling C eta.  The Hopf testbed makes every ingredient explicit in
closed form:

  * V_Z = (||z||^2 - r0^2)^2 with constants c4..c7 valid on the annulus
    r0 +- r0/2 (verified on a dense grid, not assumed),
  * the weight sigma picked at half the supremum allowed by
    c6 c1 gamma/eps - sigma c7^2 Lq^2/4 > 0,
  * the composite V_c = sigma V_Z + V_eps, which must decrease wherever
    ||eta|| exceeds the rejection threshold of the damped controller.
"""

import numpy as np

import orbitclf as oc

dims = oc.OutputDims(0, 1)
dyn = oc.build_fg(dims)
plant = oc.HopfPlant(dims=dims)
cert = oc.certificate(dyn, np.eye(2), 0.1)

consts = oc.converse_constants(plant)
print("converse-Lyapunov constants on the annulus [0.5, 1.5]:")
print(f"  c4 = {consts.c4}, c5 = {consts.c5}, c6 = {consts.c6}, c7 = {consts.c7}")

lq = plant.lipschitz_q
sigma = oc.choose_sigma(cert, consts, lq)
ok, margin = oc.sigma_condition(cert, consts, lq, sigma)
print(f"coupling Lipschitz constant Lq = {lq}")
print(f"sigma = {sigma:.6f}; rule satisfied: {ok} with margin ratio {margin}")

amp, eps_bar = 0.002, 0.1
sig = oc.DisturbanceSignal(kind="sinusoid", dim=1, amplitude=amp, frequency=0.5)
loop = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller="min_norm_plus_us",
                              signal=sig, eps_bar=eps_bar, sigma=sigma)
rec = oc.integrate(loop, np.array([0.45, 0.2, 1.2, 0.0]), T=20.0, dt=1e-3)

threshold = oc.rejection_threshold(cert, eps_bar, amp)
vc_ok, eiss_ok, details = oc.check_iss_lyapunov(rec, loop, amp)
print(f"\nrejection threshold on ||eta||: {threshold:.4f} "
      f"(initial ||eta|| = {np.linalg.norm(rec.eta[0]):.4f})")
print(f"samples inside the checked region: {details['region_samples']}")
print(f"worst dV_c/dt there (grad V_c times the integrated field): "
      f"{details['worst_vdot_c']:.4f}")
print(f"composite decrease holds: {vc_ok}; strict e-ISS inequality holds: {eiss_ok} "
      f"(margin {details['eiss_margin']:.2e})")

lower, upper = oc.composite_bounds(cert, sigma, consts)
print(f"\nV_c sandwich coefficients: lower {lower:.4f}, upper {upper:.1f}")
print("sandwich holds along the trajectory:",
      oc.check_composite_sandwich(rec, cert, sigma, consts, plant))

print("\nWith sigma pushed far above the rule's supremum the same check")
print("fails, which is exactly what the rule is for:")
bad = oc.DisturbedClosedLoop(plant=plant, cert=cert, controller="min_norm_plus_us",
                             signal=sig, eps_bar=eps_bar, sigma=5000.0)
rec_bad = oc.integrate(bad, np.array([0.45, 0.2, 1.0, 0.0]), T=20.0, dt=1e-3)
vc_bad, _, det_bad = oc.check_iss_lyapunov(rec_bad, bad, amp)
print(f"sigma = 5000: decrease check passes? {vc_bad} "
      f"(worst dV_c/dt {det_bad['worst_vdot_c']:.2f})")
