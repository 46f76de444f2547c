"""Lifetime of the equal-superposition (Hadamard-type) dressed states.

With equal static drives (theta = pi/4) and large detuning the two lowest
dressed states become (|1> -/+ |2>)/sqrt(2).  Held in the minus combination,
the fidelity decays as (1 + exp(-gamma_c t))/2: the hold time is set purely
by the ground-coherence decay, three orders of magnitude slower than the
optical linewidths here.
"""

import numpy as np

from threelevel import (Configuration, DetuningSchedule, PropagatorSettings,
                        RateSet, derived_rates, hadamard_fidelity,
                        make_stirap_schedule, propagate)

rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.1)  # gc*T = 0.05
der = derived_rates(Configuration.LAMBDA, rates)
schedule = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                "static")

psi = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
rho0 = np.outer(psi, psi.conj())
traj = propagate(Configuration.LAMBDA, rates, schedule, rho0,
                 PropagatorSettings(), samples=801)
fid, t_cross = hadamard_fidelity(traj, "lambda1")

print(f"gamma_c * T = {der.gamma_c:.3f}")
print(f"{'t':>6} {'fidelity':>10} {'(1+exp(-gc t))/2':>18}")
for k in range(0, 801, 100):
    model = 0.5 * (1.0 + np.exp(-der.gamma_c * traj.times[k]))
    print(f"{traj.times[k]:6.2f} {fid[k]:10.6f} {model:18.6f}")
print(f"\nfidelity crosses 0.99 at t = {t_cross:.3f} "
      f"(gamma_c * t = {der.gamma_c * t_cross:.4f})")
