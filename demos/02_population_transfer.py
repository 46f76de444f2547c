"""Population transfer by counterintuitive and intuitive pulse orderings.

Both orderings move the population of |1> to |2> through the lambda scheme:
the counterintuitive sequence rides the dark state, the intuitive one rides
the bright state, which survives thanks to the large single-photon detuning.
Time-series tables are written next to this script's working directory.
"""

import numpy as np

from threelevel import (Configuration, DetuningSchedule, PropagatorSettings,
                        RateSet, make_stirap_schedule, propagate)
from threelevel.cli import emit_table

rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)  # gc*T = 0.005
rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
settings = PropagatorSettings()

for ordering, rider in (("counterintuitive", "dark state"),
                        ("intuitive", "bright state")):
    schedule = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0),
                                    1.0, ordering)
    traj = propagate(Configuration.LAMBDA, rates, schedule, rho0,
                     settings, samples=1000)
    print(f"\n{ordering} ordering (transfer rides the {rider}):")
    print(f"{'t':>6} {'rho11':>8} {'rho22':>8} {'rho33':>8} {'purity':>8}")
    for k in range(0, 1000, 111):
        print(f"{traj.times[k]:6.2f} {traj.pops_bare[k, 0]:8.4f} "
              f"{traj.pops_bare[k, 1]:8.4f} {traj.pops_bare[k, 2]:8.4f} "
              f"{traj.purity[k]:8.4f}")
    print(f"final transfer: {traj.pops_bare[-1, 1]:.4f}, "
          f"minimum purity: {traj.purity.min():.4f}")
    path = f"transfer_{ordering}.csv"
    emit_table(traj, path)
    print(f"full table written to {path}")
