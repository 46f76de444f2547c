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

These formulas live once, in the elementwise numpy kernels `phasors` and
`rotation`, by square roots and divisions alone: `phasors` gives the
angles as the unit complex numbers exp(i theta) and exp(i phi), with the
rates and quasienergies, and `rotation` reads the real U, stacked like
the phasors, off their real and imaginary parts.  `frame` evaluates them
on one `rabi` sample of a schedule, at a scalar time or on a grid, and
reports the angles themselves as the arguments of the phasors; it holds
theta', phi and phi', which fix F.  The dressed generator kernel of
`evolution` takes its weights from `phasors` on the stage times of each
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


def phasors(op, oc, dop, doc, omega, domega, delta, ddelta):
    """(exp(i theta), exp(i phi), theta', phi', lam2, lam3) from the drives,
    the total coupling omega, the detuning and their time derivatives,
    elementwise, by square roots and divisions alone.

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
    return (e_theta, np.sqrt((delta + 2j * omega) / root), theta_dot,
            phi_dot, lam2, lam3)


def _rates(op, oc, dop, doc, omega, domega, delta, ddelta):
    """(theta', phi', lam2, lam3, r), r = sqrt(Delta^2 + 4 Omega^2)."""
    theta_dot = (dop * oc - op * doc) / (omega * omega)
    phi_dot = (domega * delta - omega * ddelta) / (delta * delta
                                                   + 4.0 * omega * omega)
    root = np.hypot(delta, 2.0 * omega)
    return (theta_dot, phi_dot, 0.5 * (delta - root), 0.5 * (delta + root),
            root)


def rotation(e_theta, e_phi):
    """The real U, shape s + (3, 3), from exp(i theta) and exp(i phi) of
    shape s, whose real and imaginary parts are the cosines and sines."""
    ct, st = np.real(e_theta), np.imag(e_theta)
    cp, sp = np.real(e_phi), np.imag(e_phi)
    rows = np.broadcast_arrays(ct, st * cp, st * sp,
                               -st, ct * cp, ct * sp,
                               0.0, -sp, cp)
    return np.stack(rows, axis=-1).reshape(rows[0].shape + (3, 3))


def frame(schedule: PulseSchedule, t) -> AdiabaticFrame:
    """The dressed frame (angles, rates, quasienergies, U and the drive
    values) at a time or on a grid of times, from one `rabi` sample."""
    t = np.asarray(t, dtype=float)
    sample = schedule.rabi(t)
    e_theta, e_phi, theta_dot, phi_dot, lam2, lam3 = phasors(*sample[:8])
    return AdiabaticFrame(
        t=t,
        theta=np.angle(e_theta),
        phi=np.angle(e_phi),
        theta_dot=theta_dot,
        phi_dot=phi_dot,
        lam=np.stack([np.zeros_like(lam2), lam2, lam3], axis=-1),
        U=rotation(e_theta, e_phi).astype(complex),
        omega_p=np.asarray(sample.omega_p, dtype=float),
        omega_c=np.asarray(sample.omega_c, dtype=float),
        delta=np.asarray(sample.delta, dtype=float),
        floor_engaged=np.asarray(sample.floor_engaged, dtype=bool),
    )
