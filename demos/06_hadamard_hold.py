"""Lifetime of the equal-superposition (Hadamard-type) dressed states.

With equal static drives (theta = pi/4) the dark state |lambda1> is
(|1> - |2>)/sqrt(2), whatever the detuning.  So the fidelity of a hold of
that superposition is the dressed population R11 = <lambda1|rho|lambda1>,
which every trajectory carries.  It decays as (1 + exp(-gamma_c t))/2: the
hold time is set purely by the ground-coherence decay, three orders of
magnitude slower than the optical linewidths here.
"""

import numpy as np

from threelevel import (Configuration, DetuningSchedule, PropagatorSettings,
                        RateSet, derived_rates, make_stirap_schedule,
                        propagate)

rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.1)  # gc*T = 0.05
der = derived_rates(Configuration.LAMBDA, rates)
schedule = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                "static")

psi = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
rho0 = np.outer(psi, psi.conj())
traj = propagate(Configuration.LAMBDA, rates, schedule, rho0,
                 PropagatorSettings(), samples=801)
r11 = traj.pops_adiabatic[:, 0]

print(f"gamma_c * T = {der.gamma_c:.3f}")
print(f"{'t':>6} {'R11':>10} {'(1+exp(-gc t))/2':>18}")
for k in range(0, 801, 100):
    model = 0.5 * (1.0 + np.exp(-der.gamma_c * traj.times[k]))
    print(f"{traj.times[k]:6.2f} {r11[k]:10.6f} {model:18.6f}")

# first sample below 0.99, interpolated against the one before it
k = int(np.argmax(r11 < 0.99))
t_cross = np.interp(0.99, r11[[k, k - 1]], traj.times[[k, k - 1]])
print(f"\nR11 crosses 0.99 at t = {t_cross:.3f} "
      f"(gamma_c * t = {der.gamma_c * t_cross:.4f})")
