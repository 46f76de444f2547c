"""Dark-state lifetime and the ground-coherence decay law.

Prepared in the dark dressed state under a slowly reshaped constant-total
coupling, the population deficit after time T follows

    1 - R11(T) = (gamma_c / 2) * integral of sin^2(2 theta) dt

to within a few percent; all faster relaxation channels drop out.  The
stability metrics for the same parameters are printed alongside.
"""

import math

import numpy as np

from threelevel import (Configuration, PropagatorSettings, RateSet,
                        derived_rates, propagate, quadrature_solution,
                        stability_report, theta_law_schedule)

SIG11 = np.diag([1.0, 0.0, 0.0]).astype(complex)
settings = PropagatorSettings(rel_tol=1e-10, abs_tol=1e-12, basis="adiabatic")

print("ground-coherence decay law, measured against the quadrature:")
print(f"{'gc*T':>7} {'measured':>12} {'predicted':>12} {'rel.err':>8}")
for gc_T in (0.005, 0.01, 0.05):
    rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=2 * gc_T)
    der = derived_rates(Configuration.LAMBDA, rates)
    schedule = theta_law_schedule(math.pi / 8, der.gamma_c, 0.5,
                                  math.hypot(100.0, 100.0), 1.0, delta=1000.0)
    traj = propagate(Configuration.LAMBDA, rates, schedule, SIG11, settings,
                     samples=201)
    measured = 1.0 - traj.R[-1, 0, 0].real
    grid = np.linspace(0.0, 1.0, 8001)
    predicted = 1.0 - quadrature_solution("dark_R11", schedule, der,
                                          grid).values[-1]
    print(f"{gc_T:7.3f} {measured:12.6f} {predicted:12.6f} "
          f"{abs(measured / predicted - 1):8.4f}")

rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
schedule = theta_law_schedule(math.pi / 8, 0.005, 0.5,
                              math.hypot(100.0, 100.0), 1.0, delta=1000.0)
report = stability_report(Configuration.LAMBDA, rates, schedule)
print("\nstability metrics at these parameters:")
print(f"  gamma_c * T          = {report.gc_T:.4g}  (want << 1)")
print(f"  T sqrt(D^2 + 4 W^2)  = {report.adiab1:.4g}  (want >> 1)")
print(f"  W^2 T / D            = {report.adiab2:.4g}  (want >> 1)")
print(f"  Gamma1 / D           = {report.gamma1_over_delta:.4g}  (want << 1)")
print(f"  all conditions pass: {report.all_pass}")
