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
grid; it holds theta', phi and phi', which fix F.  `phasors` gives the
same frame with exp(2i theta) and exp(i phi) in place of the angles,
without transcendental functions; the dressed generator kernel of
`evolution` weights its block table with it on the stage times of each
integrator step.
"""

from dataclasses import dataclass

import numpy as np

from .pulses import PulseSchedule


@dataclass(frozen=True)
class AdiabaticFrame:
    """Dressed frame on a time grid of shape s; a scalar time gives s = ().
    U has real entries in complex dtype, like the density matrices it
    transforms."""

    t: np.ndarray              # s
    theta: np.ndarray          # s
    phi: np.ndarray            # s
    theta_dot: np.ndarray      # s
    phi_dot: np.ndarray        # s
    lam: np.ndarray            # s + (3,): (0, lam2, lam3)
    U: np.ndarray              # s + (3, 3), columns |lam1>, |lam2>, |lam3>
    omega_p: np.ndarray        # s
    omega_c: np.ndarray        # s
    delta: np.ndarray          # s
    floor_engaged: np.ndarray  # s, bool


def angles(op, oc, dop, doc, omega, domega, delta, ddelta):
    """(theta, phi, theta', phi', lam2, lam3) from the drives, the total
    coupling omega, the detuning and their time derivatives, elementwise."""
    theta = np.arctan2(op, oc)
    phi = 0.5 * np.arctan2(2.0 * omega, delta)
    return (theta, phi) + _rates(op, oc, dop, doc, omega, domega, delta,
                                 ddelta)[:4]


def phasors(op, oc, dop, doc, omega, domega, delta, ddelta):
    """(exp(2i theta), exp(i phi), theta', phi', lam2, lam3): `angles` with
    its two angles as unit complex numbers, found by square roots and
    divisions alone.

    exp(i theta) is (Omega_c + i Omega_p) over the modulus of the raw drives,
    which the Rabi floor does not touch, and 1 where both drives vanish, as
    atan2(0, 0) = 0.  exp(2i phi) is (Delta + 2i Omega) / r with
    r = sqrt(Delta^2 + 4 Omega^2); 2 phi lies in [0, pi], so exp(i phi) is
    its principal square root.  That root is the half-angle form: the
    complex square root takes the real root of (1 + |cos 2phi|) / 2, on the
    side (cos phi for Delta >= 0, sin phi below) where it does not cancel,
    and divides sin 2phi = 2 Omega / r by twice it for the other, so both
    stay accurate for either sign of Delta and for |Delta| >> Omega."""
    theta_dot, phi_dot, lam2, lam3, root = _rates(op, oc, dop, doc, omega,
                                                  domega, delta, ddelta)
    raw = np.hypot(op, oc)
    vanish = raw == 0.0
    e_theta = np.empty(np.shape(raw), dtype=complex)
    e_theta.real, e_theta.imag = oc + vanish, op     # 1 where both vanish
    e_theta /= raw + vanish
    return (e_theta * e_theta, np.sqrt((delta + 2j * omega) / root),
            theta_dot, phi_dot, lam2, lam3)


def _rates(op, oc, dop, doc, omega, domega, delta, ddelta):
    """(theta', phi', lam2, lam3, r), r = sqrt(Delta^2 + 4 Omega^2)."""
    theta_dot = (dop * oc - op * doc) / (omega * omega)
    phi_dot = (domega * delta - omega * ddelta) / (delta * delta
                                                   + 4.0 * omega * omega)
    root = np.hypot(delta, 2.0 * omega)
    return (theta_dot, phi_dot, 0.5 * (delta - root), 0.5 * (delta + root),
            root)


def rotation(theta, phi):
    """The nine entries of U, row by row."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return (ct, st * cp, st * sp,
            -st, ct * cp, ct * sp,
            0.0, -sp, cp)


def frame(schedule: PulseSchedule, t) -> AdiabaticFrame:
    """The dressed frame (angles, rates, quasienergies, U and the drive
    values) at a time or on a grid of times."""
    t = np.asarray(t, dtype=float)
    sample = schedule.rabi(t)
    delta, ddelta = schedule.delta(t)
    theta, phi, theta_dot, phi_dot, lam2, lam3 = angles(*sample[:6], delta,
                                                        ddelta)
    u = np.stack([np.broadcast_to(e, t.shape) for e in rotation(theta, phi)],
                 axis=-1)
    return AdiabaticFrame(
        t=t,
        theta=theta,
        phi=phi,
        theta_dot=theta_dot,
        phi_dot=phi_dot,
        lam=np.stack([np.zeros_like(lam2), lam2, lam3], axis=-1),
        U=u.reshape(t.shape + (3, 3)).astype(complex),
        omega_p=np.asarray(sample.omega_p, dtype=float),
        omega_c=np.asarray(sample.omega_c, dtype=float),
        delta=np.asarray(delta, dtype=float),
        floor_engaged=np.asarray(sample.floor_engaged, dtype=bool),
    )
