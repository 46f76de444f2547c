"""Dressed-state structure of the two-photon-resonant three-level Hamiltonian.

Conventions
-----------
The rotating-frame Hamiltonian in the bare basis (|1>, |2>, |3>) is

    H = Omega_p (|1><3| + |3><1|) + Omega_c (|2><3| + |3><2|) + Delta |3><3|

with half-Rabi couplings, so the quasienergies are

    lam1 = 0,   lam2,3 = (Delta -/+ sqrt(Delta^2 + 4 Omega^2)) / 2,

where Omega^2 = Omega_p^2 + Omega_c^2 and the labels follow the field-free
limit rather than ascending order (lam2 <= 0 <= lam3 for Delta >= 0).

Mixing angles: tan(theta) = Omega_p/Omega_c with theta in [0, pi/2], and
tan(2*phi) = 2*Omega/Delta with 2*phi in (0, pi), so phi -> 0 as
Delta -> +inf and phi = pi/4 on resonance.  The dressed states are

    |lam1> = cos(theta)|1> - sin(theta)|2>
    |lam2> = sin(theta)cos(phi)|1> + cos(theta)cos(phi)|2> - sin(phi)|3>
    |lam3> = sin(theta)sin(phi)|1> + cos(theta)sin(phi)|2> + cos(phi)|3>

and form the columns of the (real orthogonal) transform U, so U = A(theta)
B(phi) factors into two planar rotations.  The nonadiabatic coupling is
defined as F = U^dag dU/dt, which is real antisymmetric with

    F12 = theta' cos(phi),  F13 = theta' sin(phi),  F23 = phi'.

These formulas live once, in the elementwise numpy kernels `angles` and
`rotation`.  `frame` evaluates them on a schedule at a scalar time or on a
grid, and the dressed generator kernel of `evolution` weights its block
table with `angles` on the stage times of each integrator step.
"""

from dataclasses import dataclass

import numpy as np

from .pulses import PulseSchedule


@dataclass(frozen=True)
class AdiabaticFrame:
    """Dressed frame on a time grid of shape s; a scalar time gives s = ().
    U and F have real entries in complex dtype, like the density matrices
    they transform."""

    t: np.ndarray              # s
    theta: np.ndarray          # s
    phi: np.ndarray            # s
    theta_dot: np.ndarray      # s
    phi_dot: np.ndarray        # s
    lam: np.ndarray            # s + (3,): (0, lam2, lam3)
    U: np.ndarray              # s + (3, 3), columns |lam1>, |lam2>, |lam3>
    F: np.ndarray              # s + (3, 3), U^dag dU/dt
    omega_p: np.ndarray        # s
    omega_c: np.ndarray        # s
    delta: np.ndarray          # s
    floor_engaged: np.ndarray  # s, bool


def hamiltonian(schedule: PulseSchedule, t: float) -> np.ndarray:
    """Rotating-frame Hamiltonian at time t (Hermitian, complex dtype)."""
    sample = schedule.rabi(t)
    delta, _ = schedule.delta(t)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = h[2, 0] = sample.omega_p
    h[1, 2] = h[2, 1] = sample.omega_c
    h[2, 2] = delta
    return h


def angles(op, oc, dop, doc, omega, domega, delta, ddelta):
    """(theta, phi, theta', phi', lam2, lam3) from the drives, the total
    coupling omega, the detuning and their time derivatives, elementwise."""
    theta = np.arctan2(op, oc)
    phi = 0.5 * np.arctan2(2.0 * omega, delta)
    theta_dot = (dop * oc - op * doc) / (omega * omega)
    phi_dot = (domega * delta - omega * ddelta) / (delta * delta
                                                   + 4.0 * omega * omega)
    root = np.hypot(delta, 2.0 * omega)
    return (theta, phi, theta_dot, phi_dot,
            0.5 * (delta - root), 0.5 * (delta + root))


def rotation(theta, phi):
    """The nine entries of U, row by row."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return (ct, st * cp, st * sp,
            -st, ct * cp, ct * sp,
            0.0, -sp, cp)


def _matrices(entries, shape) -> np.ndarray:
    """Complex 3x3 matrices of the given batch shape from nine row-major
    entries, each broadcast to that shape."""
    stacked = np.stack([np.broadcast_to(e, shape) for e in entries], axis=-1)
    return stacked.reshape(shape + (3, 3)).astype(complex)


def frame(schedule: PulseSchedule, t) -> AdiabaticFrame:
    """The dressed frame (angles, rates, quasienergies, U, F and the drive
    values) at a time or on a grid of times."""
    t = np.asarray(t, dtype=float)
    sample = schedule.rabi(t)
    delta, ddelta = schedule.delta(t)
    theta, phi, theta_dot, phi_dot, lam2, lam3 = angles(*sample[:6], delta,
                                                        ddelta)
    u = rotation(theta, phi)
    f12, f13 = theta_dot * u[8], -theta_dot * u[7]   # theta' cos, theta' sin
    return AdiabaticFrame(
        t=t,
        theta=theta,
        phi=phi,
        theta_dot=theta_dot,
        phi_dot=phi_dot,
        lam=np.stack([np.zeros_like(lam2), lam2, lam3], axis=-1),
        U=_matrices(u, t.shape),
        F=_matrices((0.0, f12, f13, -f12, 0.0, phi_dot, -f13, -phi_dot, 0.0),
                    t.shape),
        omega_p=np.asarray(sample.omega_p, dtype=float),
        omega_c=np.asarray(sample.omega_c, dtype=float),
        delta=np.asarray(delta, dtype=float),
        floor_engaged=np.asarray(sample.floor_engaged, dtype=bool),
    )
