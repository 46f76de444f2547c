"""Dressed-state structure of the driven three-level system.

Walks through the building blocks: the two-photon-resonant Hamiltonian, its
quasienergies, the mixing angles, the bare-to-dressed transform U, and the
nonadiabatic coupling F along a counterintuitive pulse pair.
"""

import numpy as np

from threelevel import DetuningSchedule, frame, make_stirap_schedule


def hamiltonian(schedule, t):
    """H = Omega_p (|1><3| + h.c.) + Omega_c (|2><3| + h.c.) + Delta |3><3|."""
    sample = schedule.rabi(t)
    h = np.zeros((3, 3))
    h[0, 2] = h[2, 0] = sample.omega_p
    h[1, 2] = h[2, 1] = sample.omega_c
    h[2, 2] = schedule.delta(t)[0]
    return h


def coupling(fr):
    """F = U^dag dU/dt from the frame's theta', phi and phi'."""
    f12 = fr.theta_dot * np.cos(fr.phi)
    f13 = fr.theta_dot * np.sin(fr.phi)
    return np.array([[0.0, f12, f13],
                     [-f12, 0.0, fr.phi_dot],
                     [-f13, -fr.phi_dot, 0.0]])


schedule = make_stirap_schedule(peak_omega=100.0,
                                detuning=DetuningSchedule(delta0=1000.0),
                                horizon=1.0, ordering="counterintuitive")

# frame() evaluates the whole dressed frame on a time grid at once.
print("Quasienergies along the pulse pair (units of 1/T):")
print(f"{'t':>6} {'Omega_p':>9} {'Omega_c':>9} {'theta':>8} {'phi':>8} "
      f"{'lam2':>9} {'lam3':>10}")
grid = frame(schedule, np.linspace(0.0, 1.0, 11))
for k, t in enumerate(grid.t):
    print(f"{t:6.2f} {grid.omega_p[k]:9.3f} {grid.omega_c[k]:9.3f}"
          f" {grid.theta[k]:8.4f} {grid.phi[k]:8.4f} {grid.lam[k, 1]:9.3f}"
          f" {grid.lam[k, 2]:10.3f}")

# The transform U diagonalizes H at every instant; its columns are the
# dressed states labeled so that lam1 = 0 exactly.
t_mid = 0.5
fr = frame(schedule, t_mid)
h = hamiltonian(schedule, t_mid)
residual = fr.U.conj().T @ h @ fr.U - np.diag(fr.lam)
print(f"\nAt t = {t_mid}: max |U^dag H U - diag(lam)| = "
      f"{np.max(np.abs(residual)):.2e}")

# frame() also carries the angle rates; all of them come from phasors(), the
# elementwise kernel that the dressed integrator evaluates on its stage times.
print(f"mixing angles: theta = {fr.theta:.4f}, phi = {fr.phi:.4f}, "
      f"Omega = {schedule.rabi(t_mid).omega:.3f}; rates theta' = "
      f"{fr.theta_dot:.4f}, phi' = {fr.phi_dot:.5f}")
print("dressed states (columns of U):")
print(np.array_str(fr.U.real, precision=4, suppress_small=True))

# F = U^dag dU/dt drives transitions between dressed states; it vanishes
# when the schedule is static.
print("\nnonadiabatic coupling F at mid-protocol:")
print(np.array_str(coupling(fr), precision=5, suppress_small=True))
static = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                              "static")
print(f"static schedule: max |F| = "
      f"{np.max(np.abs(coupling(frame(static, t_mid)))):.1e}")
