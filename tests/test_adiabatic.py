import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from threelevel.adiabatic import frame, phasors, rotation
from threelevel.dissipation import ketbra
from threelevel.pulses import (ConstantPulse, DetuningSchedule,
                               make_stirap_schedule, theta_law_schedule,
                               PulseSchedule)


def static_schedule(omega_p, omega_c, delta, horizon=1.0):
    floor = 1e-9 * max(omega_p, omega_c, 1.0)
    return PulseSchedule(ConstantPulse(omega_p), ConstantPulse(omega_c),
                         DetuningSchedule("constant", delta), horizon, floor)


def hamiltonian(schedule, t):
    """Rotating-frame Hamiltonian at time t (Hermitian, complex dtype),
    built from the drives alone: the frame's independent reference."""
    sample = schedule.rabi(t)
    delta, _ = schedule.delta(t)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = h[2, 0] = sample.omega_p
    h[1, 2] = h[2, 1] = sample.omega_c
    h[2, 2] = delta
    return h


def coupling(fr):
    """F = U^dag dU/dt from the frame's theta', phi and phi':
    F12 = theta' cos(phi), F13 = theta' sin(phi), F23 = phi'."""
    f = np.zeros(np.shape(fr.phi) + (3, 3))
    f[..., 0, 1] = fr.theta_dot * np.cos(fr.phi)
    f[..., 0, 2] = fr.theta_dot * np.sin(fr.phi)
    f[..., 1, 2] = fr.phi_dot
    return f - f.swapaxes(-1, -2)


def reference_angles(op, oc, omega, delta):
    """theta = atan2(Omega_p, Omega_c) from the raw drives and
    phi = atan2(2 Omega, Delta) / 2 from the floored coupling."""
    return np.arctan2(op, oc), 0.5 * np.arctan2(2.0 * omega, delta)


def reference_rotation(theta, phi):
    """U = A(theta) B(phi) from the sines and cosines of the angles, shape
    s + (3, 3) for angles of shape s."""
    s_t, c_t = np.sin(theta), np.cos(theta)
    s_p, c_p = np.sin(phi), np.cos(phi)
    rows = np.broadcast_arrays(c_t, s_t * c_p, s_t * s_p,
                               -s_t, c_t * c_p, c_t * s_p,
                               0.0, -s_p, c_p)
    return np.stack(rows, axis=-1).reshape(np.shape(rows[0]) + (3, 3))


class TestHamiltonian:
    def test_drives_off(self):
        s = static_schedule(0.0, 0.0, 7.0)
        np.testing.assert_allclose(hamiltonian(s, 0.3), 7.0 * ketbra(3, 3),
                                   atol=1e-15)

    def test_resonant_eigenvalues(self):
        """At zero detuning the quasienergies are -/+ sqrt(2)*100 and 0."""
        s = static_schedule(100.0, 100.0, 0.0)
        w = np.linalg.eigvalsh(hamiltonian(s, 0.0))
        np.testing.assert_allclose(
            w, [-100 * math.sqrt(2), 0.0, 100 * math.sqrt(2)], atol=1e-9)

    def test_detuned_eigenvalues_closed_form(self):
        s = static_schedule(100.0, 100.0, 1000.0)
        w = np.linalg.eigvalsh(hamiltonian(s, 0.0))
        root = math.sqrt(1000.0 ** 2 + 4 * (100.0 ** 2 + 100.0 ** 2))
        np.testing.assert_allclose(
            w, sorted([0.0, (1000 - root) / 2, (1000 + root) / 2]),
            rtol=1e-12, atol=1e-9)


class TestMixingAngles:
    def test_equal_drives(self):
        s = static_schedule(60.0, 60.0, 123.0)
        assert frame(s, 0.0).theta == pytest.approx(np.pi / 4)

    def test_resonance_phi(self):
        s = static_schedule(60.0, 60.0, 0.0)
        assert frame(s, 0.0).phi == pytest.approx(np.pi / 4)

    def test_detuned_phi_value(self):
        s = static_schedule(100.0, 100.0, 1000.0)
        phi = frame(s, 0.0).phi
        omega = s.rabi(0.0).omega
        assert omega == pytest.approx(141.4213562, rel=1e-9)
        assert phi == pytest.approx(0.5 * math.atan(0.2828427), abs=1e-6)
        assert phi == pytest.approx(0.13783, abs=1e-5)

    def test_phi_limits(self):
        s_large = static_schedule(10.0, 10.0, 1e7)
        assert frame(s_large, 0.0).phi < 1e-5
        s_negative = static_schedule(10.0, 10.0, -1e7)
        assert frame(s_negative, 0.0).phi == pytest.approx(
            np.pi / 2, abs=1e-5)

    def test_zero_drive_without_floor_raises(self):
        s = PulseSchedule(ConstantPulse(0.0), ConstantPulse(0.0),
                          DetuningSchedule("constant", 1.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            frame(s, 0.0)


class TestFrame:
    def test_pump_off_dark_state_is_bare_one(self):
        s = static_schedule(0.0, 50.0, 300.0)
        fr = frame(s, 0.0)
        assert fr.theta == pytest.approx(0.0)
        np.testing.assert_allclose(fr.U[:, 0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_hadamard_limit(self):
        """theta = pi/4 with phi -> 0 turns the two lowest dressed states
        into the (|1> -/+ |2>)/sqrt(2) pair."""
        s = static_schedule(10.0, 10.0, 1e8)
        fr = frame(s, 0.0)
        inv = 1 / math.sqrt(2)
        np.testing.assert_allclose(fr.U[:, 0], [inv, -inv, 0.0], atol=1e-6)
        np.testing.assert_allclose(fr.U[:, 1], [inv, inv, 0.0], atol=1e-6)

    def test_diagonalizes_hamiltonian(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            op, oc = rng.uniform(0.0, 200.0, size=2)
            delta = rng.uniform(-2000.0, 2000.0)
            s = static_schedule(op, oc, delta)
            fr = frame(s, 0.0)
            h = hamiltonian(s, 0.0)
            d = fr.U.conj().T @ h @ fr.U
            off = d - np.diag(np.diag(d))
            assert np.linalg.norm(off) < 1e-9 * max(1.0, np.linalg.norm(h))
            np.testing.assert_allclose(np.diag(d).real, fr.lam,
                                       atol=1e-9 * max(1.0, abs(delta)))

    def test_columns_match_numeric_eigenvectors(self):
        """Numeric eigendecomposition as the oracle, aligned by overlap sign."""
        rng = np.random.default_rng(31)
        for _ in range(50):
            op, oc = rng.uniform(1.0, 200.0, size=2)
            delta = rng.uniform(100.0, 2000.0)
            s = static_schedule(op, oc, delta)
            fr = frame(s, 0.0)
            w, v = np.linalg.eigh(hamiltonian(s, 0.0).real)
            for k in range(3):
                lam_k = fr.lam[k]
                idx = int(np.argmin(np.abs(w - lam_k)))
                overlap = np.vdot(v[:, idx], fr.U[:, k])
                sign = 1.0 if overlap.real >= 0 else -1.0
                np.testing.assert_allclose(fr.U[:, k], sign * v[:, idx],
                                           atol=1e-8)

    def test_unitarity_many_random(self):
        rng = np.random.default_rng(37)
        ops = rng.uniform(0.0, 300.0, size=1000)
        ocs = rng.uniform(1e-3, 300.0, size=1000)
        deltas = rng.uniform(-3000.0, 3000.0, size=1000)
        for op, oc, delta in zip(ops, ocs, deltas):
            theta = math.atan2(op, oc)
            phi = 0.5 * math.atan2(2 * math.hypot(op, oc), delta)
            u = np.array(rotation(np.exp(1j * theta),
                                  np.exp(1j * phi))).reshape(3, 3)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10
            assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10

    def test_vieta_identities(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            op, oc = rng.uniform(1.0, 200.0, size=2)
            delta = rng.uniform(-2000.0, 2000.0)
            s = static_schedule(op, oc, delta)
            fr = frame(s, 0.0)
            omega_sq = op ** 2 + oc ** 2
            scale = max(1.0, abs(delta), omega_sq ** 0.5)
            assert abs(fr.lam[1] * fr.lam[2] + omega_sq) < 1e-9 * scale ** 2
            assert abs(fr.lam[1] + fr.lam[2] - delta) < 1e-9 * scale

    def test_lambda1_is_zero_and_ordering(self):
        s = static_schedule(30.0, 40.0, 500.0)
        fr = frame(s, 0.0)
        assert fr.lam[0] == 0.0
        assert fr.lam[1] <= 0.0 <= fr.lam[2]


class TestCouplingMatrix:
    """The nonadiabatic coupling F = U^dag dU/dt, built from the frame's
    rates by `coupling`."""

    def test_static_schedule_vanishes(self):
        s = static_schedule(80.0, 60.0, 700.0)
        np.testing.assert_allclose(coupling(frame(s, 0.4)),
                                   np.zeros((3, 3)), atol=1e-15)

    def test_theta_law_entry(self):
        """F21 follows -theta' cos(phi) with theta' = (gc/4) sin(4 theta)."""
        gc = 0.4
        s = theta_law_schedule(np.pi / 8, gc, 0.0, 100.0, 1.0, delta=500.0)
        t = 0.6
        fr = frame(s, t)
        theta_dot = 0.25 * gc * math.sin(4 * fr.theta)
        phi, f = fr.phi, coupling(fr)
        assert f[1, 0] == pytest.approx(-theta_dot * math.cos(phi), rel=1e-9)
        assert f[0, 1] == pytest.approx(theta_dot * math.cos(phi), rel=1e-9)

    def test_antisymmetric_real(self):
        """The numerical U^dag dU/dt is real antisymmetric, so three rates
        fix it."""
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "counterintuitive")
        h = 1e-6
        for t in (0.2, 0.5, 0.8):
            fd = frame(s, t).U.conj().T @ (frame(s, t + h).U
                                           - frame(s, t - h).U) / (2 * h)
            scale = max(1.0, np.max(np.abs(fd)))
            assert np.max(np.abs(fd + fd.T)) < 1e-6 * scale
            assert np.max(np.abs(fd.imag)) < 1e-15

    def test_matches_finite_difference(self):
        """U^dag (U(t+h)-U(t-h))/(2h) cross-checks the analytic F."""
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "counterintuitive")
        h = 1e-6
        for t in (0.25, 0.5, 0.75):
            u0 = frame(s, t).U
            up = frame(s, t + h).U
            um = frame(s, t - h).U
            fd = u0.conj().T @ (up - um) / (2 * h)
            f = coupling(frame(s, t))
            scale = max(1.0, np.max(np.abs(f)))
            assert np.max(np.abs(fd - f)) < 1e-6 * scale

    def test_time_reflection_maps_orderings(self):
        """Reversing the pulse order flips the sign of F at mirrored times."""
        ci = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                  "counterintuitive")
        it = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                  "intuitive")
        for t in (0.2, 0.45, 0.7):
            f_ci = coupling(frame(ci, t))
            f_it = coupling(frame(it, 1.0 - t))
            np.testing.assert_allclose(f_it, -f_ci, atol=1e-10)


drive = st.floats(0.0, 300.0)
rate = st.floats(-3e4, 3e4)
detuning = st.floats(-3000.0, 3000.0)


class TestKernel:
    """Properties of `phasors` and `rotation` over random drives, their
    derivatives and detunings, and `frame` against the atan2, sine and
    cosine forms of the angles and of U."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(drive, drive, rate, rate, detuning, rate)
    def test_float_and_array_paths(self, op, oc, dop, doc, delta, ddelta):
        """The kernels on plain floats, as `frame` at one time calls them,
        agree with the kernels on a grid, as the integrators' stage times
        call them; U is orthogonal and diagonalizes H."""
        omega = math.hypot(op, oc)
        assume(omega > 1e-6)   # below the floor U no longer diagonalizes H
        domega = (op * dop + oc * doc) / omega
        args = (op, oc, dop, doc, omega, domega, delta, ddelta)
        scalar = phasors(*args)
        grid = phasors(*(np.full(17, a) for a in args))
        array = [a[3] for a in grid]
        root = math.hypot(delta, 2.0 * omega)
        scales = (1.0, 1.0, abs(scalar[2]), abs(scalar[3]), root, root)
        for a, b, scale in zip(scalar, array, scales):
            assert abs(a - b) <= 1e-14 * scale
        u = rotation(*scalar[:2])
        u_grid = rotation(*grid[:2])
        assert np.max(np.abs(u - u_grid[3])) <= 1e-14
        assert np.max(np.abs(u.T @ u - np.eye(3))) < 1e-14
        h = np.array([[0.0, 0.0, op], [0.0, 0.0, oc], [op, oc, delta]])
        lam = np.diag([0.0, scalar[4], scalar[5]])
        assert np.max(np.abs(u.T @ h @ u - lam)) < 1e-12 * max(root, 1.0)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
           st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
           st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
           st.sampled_from([-1.0, 1.0]))
    def test_frame_matches_atan2(self, omega_p, omega_c, ratio, sign):
        """`frame`'s theta and phi, the arguments of the phasors, are the
        atan2 angles, and its U, read off the phasors' real and imaginary
        parts, is the sine and cosine form, to 1e-15, at a time and on a
        grid.  Zero drives engage the Rabi floor and keep atan2(0, 0) = 0;
        Delta is zero or |Delta| / Omega reaches 1e6, with either sign."""
        omega = float(static_schedule(omega_p, omega_c, 0.0).rabi(0.0).omega)
        delta = sign * ratio * omega
        s = static_schedule(omega_p, omega_c, delta)
        theta, phi = reference_angles(omega_p, omega_c, omega, delta)
        u = reference_rotation(theta, phi)
        for t in (0.0, np.zeros(3)):
            fr = frame(s, t)
            assert np.max(np.abs(fr.theta - theta)) <= 1e-15
            assert np.max(np.abs(fr.phi - phi)) <= 1e-15
            assert np.max(np.abs(fr.U - u)) <= 1e-15

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(1.0, 300.0), st.floats(0.05, 0.5),
           st.sampled_from(["counterintuitive", "intuitive"]),
           detuning, st.floats(0.0, 2.0),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_frame_orthogonal_and_antisymmetric(self, peak, width, ordering,
                                                delta0, gamma1, times):
        """On random schedules, constant or shaped detuning, U is orthogonal
        and diagonalizes H wherever the floor is off, and there the
        antisymmetric F built from the rates matches the numerical
        U^dag dU/dt."""
        kind = "shaped" if gamma1 > 1.0 else "constant"
        d = DetuningSchedule(kind, delta0 / 100.0 if kind == "shaped"
                             else delta0, gamma1 - 1.0, 0.5)
        s = make_stirap_schedule(peak, d, 1.0, ordering, width=width)
        fr = frame(s, np.array(times))
        eye = np.broadcast_to(np.eye(3), fr.U.shape)
        np.testing.assert_allclose(fr.U.swapaxes(-1, -2) @ fr.U, eye,
                                   atol=1e-14)
        dt = 1e-6
        ahead, behind = frame(s, fr.t + dt).U, frame(s, fr.t - dt).U
        fd = fr.U.swapaxes(-1, -2) @ (ahead - behind) / (2 * dt)
        f = coupling(fr)
        for k in np.flatnonzero(~fr.floor_engaged):
            scale = max(1.0, np.max(np.abs(f[k])))
            assert np.max(np.abs(fd[k] - f[k])) < 1e-6 * scale
            h = hamiltonian(s, times[k])
            scale = max(1.0, np.max(np.abs(h)))
            np.testing.assert_allclose(fr.U[k].T @ h @ fr.U[k],
                                       np.diag(fr.lam[k]), atol=1e-12 * scale)
