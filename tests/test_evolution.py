import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from threelevel import _dop853_coefficients, adiabatic
from threelevel.adiabatic import frame, rotation
from threelevel.dissipation import (Configuration, RateSet, derived_rates,
                                    ketbra, lindblad_ops)
from threelevel import evolution
from threelevel.evolution import (PropagationError, PropagatorSettings,
                                  Trajectory, closed_system_solution, pack,
                                  propagate, real_superop, unpack)
from threelevel.pulses import (ConstantPulse, DetuningSchedule, PulseSchedule,
                               make_stirap_schedule)

SIG11 = np.diag([1.0, 0.0, 0.0]).astype(complex)
SIG33 = np.diag([0.0, 0.0, 1.0]).astype(complex)
TIGHT = PropagatorSettings(rel_tol=1e-10, abs_tol=1e-12)


def oracle(n_slices, basis="bare"):
    return PropagatorSettings(method="expm_oracle", n_slices=n_slices,
                              basis=basis)


def static_schedule(omega_p, omega_c, delta, horizon=1.0):
    floor = 1e-9 * max(omega_p, omega_c, 1.0)
    return PulseSchedule(ConstantPulse(omega_p), ConstantPulse(omega_c),
                         DetuningSchedule("constant", delta), horizon, floor)


def random_density(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestRealRepresentation:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            rho = random_density(rng)
            np.testing.assert_allclose(unpack(pack(rho)), rho, atol=1e-15)

    def test_unpack_is_hermitian_by_construction(self):
        rng = np.random.default_rng(61)
        r = rng.normal(size=9)
        rho = unpack(r)
        np.testing.assert_array_equal(rho, rho.conj().T)

    def test_unpack_batch(self):
        rng = np.random.default_rng(67)
        rs = rng.normal(size=(5, 9))
        batch = unpack(rs)
        for k in range(5):
            np.testing.assert_array_equal(batch[k], unpack(rs[k]))

    def test_superop_reproduces_commutator(self):
        h = 3.0 * (ketbra(1, 3) + ketbra(3, 1)) + 2.0 * ketbra(3, 3)
        m = real_superop(lambda rho: -1j * (h @ rho - rho @ h))
        rng = np.random.default_rng(71)
        rho = random_density(rng)
        np.testing.assert_allclose(unpack(m @ pack(rho)),
                                   -1j * (h @ rho - rho @ h), atol=1e-14)


class TestInitialValidation:
    def test_rejects_non_hermitian(self):
        bad = SIG11 + 0.1 * ketbra(1, 2)
        with pytest.raises(ValueError):
            propagate(Configuration.LAMBDA, RateSet(),
                      static_schedule(1.0, 1.0, 0.0), bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            propagate(Configuration.LAMBDA, RateSet(),
                      static_schedule(1.0, 1.0, 0.0), 2.0 * SIG11)

    def test_rejects_negative_state(self):
        bad = np.diag([1.2, -0.2, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            propagate(Configuration.LAMBDA, RateSet(),
                      static_schedule(1.0, 1.0, 0.0), bad)


class TestBarePropagation:
    def test_closed_static_matches_matrix_exponential(self):
        """exp(-iHt) rho exp(iHt) by scaling-and-squaring as the oracle."""
        s = static_schedule(40.0, 30.0, 200.0)
        rng = np.random.default_rng(73)
        rho0 = random_density(rng)
        traj = propagate(Configuration.LAMBDA, RateSet(), s, rho0,
                         TIGHT, samples=41)
        h = 40.0 * (ketbra(1, 3) + ketbra(3, 1)) \
            + 30.0 * (ketbra(2, 3) + ketbra(3, 2)) + 200.0 * ketbra(3, 3)
        for k in (10, 25, 40):
            u = scipy.linalg.expm(-1j * h * traj.times[k])
            np.testing.assert_allclose(traj.rho[k], u @ rho0 @ u.conj().T,
                                       atol=1e-8)

    def test_ground_state_stationary(self):
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma3_deph=0.3)
        s = static_schedule(0.0, 0.0, 0.0)
        traj = propagate(Configuration.LAMBDA, rates, s, SIG11, TIGHT,
                         samples=21)
        np.testing.assert_allclose(traj.rho, np.broadcast_to(SIG11,
                                   (21, 3, 3)), atol=1e-12)

    def test_excited_state_exponential_decay(self):
        """Scalar ODE solution rho33 = exp(-gamma_sp t) as the oracle."""
        rates = RateSet(gamma1=0.6, gamma2=0.6)
        s = static_schedule(0.0, 0.0, 0.0, horizon=2.0)
        traj = propagate(Configuration.LAMBDA, rates, s, SIG33, TIGHT,
                         samples=51)
        np.testing.assert_allclose(traj.rho[:, 2, 2].real,
                                   np.exp(-1.2 * traj.times), atol=1e-9)

    def test_adaptive_meets_tolerance_against_reference(self):
        s = make_stirap_schedule(50.0, DetuningSchedule(delta0=300.0), 1.0,
                                 "counterintuitive")
        rates = RateSet(gamma1=0.3, gamma2=0.3, gamma2_deph=0.02)
        loose = propagate(Configuration.LAMBDA, rates, s, SIG11,
                          PropagatorSettings(rel_tol=1e-6,
                                             abs_tol=1e-9), samples=51)
        tight = propagate(Configuration.LAMBDA, rates, s, SIG11,
                          PropagatorSettings(rel_tol=1e-11,
                                             abs_tol=1e-13), samples=51)
        assert np.max(np.abs(loose.rho - tight.rho)) < 1e-4


class TestAdiabaticPropagation:
    def test_static_dressed_state_is_stationary(self):
        s = static_schedule(80.0, 50.0, 600.0)
        traj = propagate(Configuration.LAMBDA, RateSet(), s, SIG11,
                         replace(TIGHT, basis="adiabatic"), samples=21)
        np.testing.assert_allclose(traj.R[:, 0, 0].real, 1.0, atol=1e-10)

    def test_static_free_phases(self):
        """Coherences rotate as exp(-i (lam_i - lam_j) t)."""
        s = static_schedule(30.0, 40.0, 100.0, horizon=0.5)
        rng = np.random.default_rng(79)
        big_r0 = random_density(rng)
        traj = propagate(Configuration.LAMBDA, RateSet(), s, big_r0,
                         replace(TIGHT, basis="adiabatic"), samples=26)
        fr = frame(s, 0.0)
        exact = closed_system_solution(fr, big_r0, traj.times)
        np.testing.assert_allclose(traj.R, exact, atol=1e-8)

    def test_basis_equivalence_on_transfer(self):
        """U R U^dag equals the bare-basis propagation on the full transfer
        protocol with dissipation."""
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "counterintuitive")
        settings = PropagatorSettings(rel_tol=1e-9, abs_tol=1e-11)
        bare = propagate(Configuration.LAMBDA, rates, s, SIG11,
                         settings, samples=201)
        u0 = frame(s, 0.0).U
        big_r0 = u0.conj().T @ SIG11 @ u0
        adia = propagate(Configuration.LAMBDA, rates, s, big_r0,
                         replace(settings, basis="adiabatic"), samples=201)
        diff = np.linalg.norm(adia.rho - bare.rho, axis=(1, 2))
        assert np.max(diff) < 1e-6

    def test_basis_equivalence_shaped_detuning(self):
        """Same cross-check with a time-dependent detuning, which is the
        only route exercising the detuning-derivative part of the frame
        rotation rate."""
        from threelevel.pulses import DetuningSchedule, make_stirap_schedule
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
        shaped = DetuningSchedule(kind="shaped", delta0=7.0, gamma1=0.5,
                                  t0=0.0)
        s = make_stirap_schedule(100.0, shaped, 1.0, "counterintuitive")
        settings = PropagatorSettings(rel_tol=1e-9, abs_tol=1e-11)
        bare = propagate(Configuration.LAMBDA, rates, s, SIG11,
                         settings, samples=101)
        u0 = frame(s, 0.0).U
        big_r0 = u0.conj().T @ SIG11 @ u0
        adia = propagate(Configuration.LAMBDA, rates, s, big_r0,
                         replace(settings, basis="adiabatic"), samples=101)
        assert np.max(np.abs(adia.rho - bare.rho)) < 1e-6

    def test_basis_equivalence_theta_law(self):
        from threelevel.pulses import theta_law_schedule
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.2)
        s = theta_law_schedule(np.pi / 8, 0.1, 0.5, 120.0, 1.0, delta=800.0)
        settings = PropagatorSettings(rel_tol=1e-9, abs_tol=1e-11)
        bare = propagate(Configuration.LAMBDA, rates, s, SIG11,
                         settings, samples=101)
        u0 = frame(s, 0.0).U
        big_r0 = u0.conj().T @ SIG11 @ u0
        adia = propagate(Configuration.LAMBDA, rates, s, big_r0,
                         replace(settings, basis="adiabatic"), samples=101)
        assert np.max(np.abs(adia.rho - bare.rho)) < 1e-6

    @pytest.mark.parametrize("config", list(Configuration))
    @pytest.mark.parametrize("ordering", ["counterintuitive", "intuitive"])
    def test_dressed_oracle_matches_bare_oracle(self, config, ordering):
        """The oracle in the dressed basis against the oracle in the bare
        basis, at the same slice boundaries."""
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 ordering)
        bare = propagate(config, rates, s, SIG11, oracle(4000), samples=201)
        u0 = frame(s, 0.0).U
        dressed = propagate(config, rates, s, u0.conj().T @ SIG11 @ u0,
                            oracle(4000, "adiabatic"), samples=201)
        np.testing.assert_array_equal(dressed.times, bare.times)
        assert np.max(np.abs(dressed.rho - bare.rho)) < 1e-8


class TestExpmOracle:
    def test_static_generator_exact(self):
        """The Magnus step is exact when the generator is constant."""
        s = static_schedule(20.0, 30.0, 50.0)
        rates = RateSet(gamma1=0.4, gamma2=0.2, gamma2_deph=0.05)
        coarse = propagate(Configuration.LAMBDA, rates, s, SIG11, oracle(4),
                           samples=5)
        fine = propagate(Configuration.LAMBDA, rates, s, SIG11, oracle(256),
                         samples=5)
        np.testing.assert_allclose(coarse.rho, fine.rho, atol=1e-12)

    def test_second_order_self_convergence(self):
        """The oracle's documented order is fourth: halving the slice width
        cuts the error by about sixteen.  A second-order scheme (ratio about
        four) fails the window."""
        s = make_stirap_schedule(60.0, DetuningSchedule(delta0=400.0), 1.0,
                                 "counterintuitive")
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
        ref = propagate(Configuration.LAMBDA, rates, s, SIG11,
                        PropagatorSettings(rel_tol=1e-11,
                                           abs_tol=1e-13), samples=101)
        errs = []
        for n in (500, 1000, 2000):
            tr = propagate(Configuration.LAMBDA, rates, s, SIG11, oracle(n),
                           samples=101)
            errs.append(np.max(np.abs(tr.rho - ref.rho)))
        for a, b in zip(errs, errs[1:]):
            assert 10.0 < a / b < 26.0

    def test_agrees_with_adaptive_on_transfer(self):
        """Cross-method agreement at fine slicing on the full protocol."""
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "counterintuitive")
        rk = propagate(Configuration.LAMBDA, rates, s, SIG11,
                       PropagatorSettings(rel_tol=1e-10, abs_tol=1e-12),
                       samples=501)
        magnus = propagate(Configuration.LAMBDA, rates, s, SIG11,
                           oracle(8000), samples=501)
        assert np.max(np.abs(rk.rho - magnus.rho)) < 3e-7

    def test_independent_of_rk(self, monkeypatch):
        """The oracle never reaches the Runge-Kutta code it cross-checks,
        in either basis."""
        def forbidden(*args, **kwargs):
            raise AssertionError("oracle called Runge-Kutta code")

        monkeypatch.setattr(evolution, "_dop853", forbidden)
        s = make_stirap_schedule(60.0, DetuningSchedule(delta0=400.0), 1.0,
                                 "counterintuitive")
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
        for basis in evolution.BASES:
            tr = propagate(Configuration.LAMBDA, rates, s, SIG11,
                           oracle(200, basis), samples=11)
            assert tr.rho.shape == (11, 3, 3)

    def test_sample_bound(self):
        s = static_schedule(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            propagate(Configuration.LAMBDA, RateSet(), s, SIG11, oracle(4),
                      samples=10)

    def test_liouvillian_matches_superop_action(self):
        """The real blocks the oracle exponentiates agree with the complex
        Kronecker Liouvillian (row-major vec convention)."""
        rng = np.random.default_rng(83)
        rates = RateSet(gamma1=0.3, gamma2=0.2, gamma2_deph=0.1)
        ops = lindblad_ops(Configuration.LAMBDA, rates)
        h = 5.0 * (ketbra(1, 3) + ketbra(3, 1)) + 7.0 * ketbra(3, 3)
        eye = np.eye(3)
        m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for op in ops:
            anti = op.conj().T @ op
            m += np.kron(op, op.conj()) \
                - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
        real = (evolution.dissipator_superop(ops) + 5.0 * evolution._BP
                + 7.0 * evolution._BD)
        rho = random_density(rng)
        np.testing.assert_allclose(unpack(real @ pack(rho)),
                                   (m @ rho.reshape(9)).reshape(3, 3),
                                   atol=1e-13)


class TestExpm:
    def test_matches_scipy(self):
        """The stacked numpy exponential against scipy on random real 9x9
        matrices over eleven decades of 1-norm.  The exponential's relative
        condition number is at least the norm, so above norm 1 either
        result may carry an error of order norm * 1e-16 and the tolerance
        grows with the norm."""
        rng = np.random.default_rng(107)
        norms = np.logspace(-8.0, 3.0, 45)
        a = rng.normal(size=(45, 9, 9))
        a *= (norms / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
        got = evolution.expm(a)
        for m, e, norm in zip(a, got, norms):
            ref = scipy.linalg.expm(m)
            err = np.linalg.norm(e - ref, 1) / np.linalg.norm(ref, 1)
            assert err <= 1e-13 * max(1.0, norm)

    def test_single_matrix_and_zero(self):
        np.testing.assert_array_equal(evolution.expm(np.zeros((9, 9))),
                                      np.eye(9))
        m = np.diag([1.0, -2.0, 0.5])
        np.testing.assert_allclose(evolution.expm(m), np.diag(np.exp(
            [1.0, -2.0, 0.5])), rtol=1e-15)


def _complex_dressed_rhs(schedule, d9, dissipative, t, r):
    """The dressed right-hand side evaluated on complex 3x3 matrices:
    -i[diag(lam), R] + [R, F] + U^T D(U R U^T) U."""
    op, oc, dop, doc, omega, domega, _ = map(float, schedule.rabi(t))
    dv, ddv = map(float, schedule.delta(t))
    theta = math.atan2(op, oc)
    phi = 0.5 * math.atan2(2.0 * omega, dv)
    root = math.hypot(dv, 2.0 * omega)
    lam2, lam3 = 0.5 * (dv - root), 0.5 * (dv + root)
    theta_dot = (dop * oc - op * doc) / (omega * omega)
    phi_dot = (domega * dv - omega * ddv) / (dv * dv + 4.0 * omega * omega)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    big_r = unpack(r)
    out = np.empty((3, 3), dtype=complex)
    out[0, 0] = out[1, 1] = out[2, 2] = 0.0
    out[0, 1] = 1j * lam2 * big_r[0, 1]
    out[0, 2] = 1j * lam3 * big_r[0, 2]
    out[1, 2] = 1j * (lam3 - lam2) * big_r[1, 2]
    out[1, 0] = np.conj(out[0, 1])
    out[2, 0] = np.conj(out[0, 2])
    out[2, 1] = np.conj(out[1, 2])
    f = np.array([[0.0, theta_dot * cp, theta_dot * sp],
                  [-theta_dot * cp, 0.0, phi_dot],
                  [-theta_dot * sp, -phi_dot, 0.0]])
    out += big_r @ f - f @ big_r
    if dissipative:
        u = np.array([[ct, st * cp, st * sp],
                      [-st, ct * cp, ct * sp],
                      [0.0, -sp, cp]])
        rho = u @ big_r @ u.T
        out += u.T @ unpack(d9 @ pack(rho)) @ u
    return pack(out)


def _complex_static_rhs(schedule, d9, dissipative, r):
    """Static-frame reference: F = 0 and a constant U."""
    fr = frame(schedule, 0.0)
    u, lam = fr.U.real, fr.lam
    big_r = unpack(r)
    out = -1j * (lam[:, None] - lam[None, :]) * big_r
    if dissipative:
        out = out + u.T @ unpack(d9 @ pack(u @ big_r @ u.T)) @ u
    return pack(out)


class TestDressedGenerator:
    """The dressed grid kernel, called on an array of random times, against
    the complex 3x3 formula at each of them."""

    RATES = RateSet(gamma1=0.5, gamma2=0.3, gamma1_deph=0.05,
                    gamma2_deph=0.1, gamma3_deph=0.2)

    @staticmethod
    def assert_close(new, ref):
        assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("config", list(Configuration))
    @pytest.mark.parametrize("dissipative", [True, False])
    def test_time_dependent(self, config, dissipative):
        rng = np.random.default_rng(101)
        rates = self.RATES if dissipative else RateSet()
        d9 = evolution.dissipator_superop(lindblad_ops(config, rates))
        shaped = DetuningSchedule(kind="shaped", delta0=7.0, gamma1=0.5)
        constant = DetuningSchedule(delta0=1000.0)
        for s in (make_stirap_schedule(100.0, constant, 1.0, "intuitive"),
                  make_stirap_schedule(100.0, shaped, 1.0,
                                       "counterintuitive")):
            times = rng.uniform(0.0, 1.0, size=20)
            gens = evolution._generator_kernel(s, d9, "adiabatic")(times)
            assert gens.shape == (20, 9, 9)
            for t, gen in zip(times, gens):
                r = rng.normal(size=9)
                self.assert_close(
                    gen @ r, _complex_dressed_rhs(s, d9, dissipative, t, r))

    @pytest.mark.parametrize("config", list(Configuration))
    @pytest.mark.parametrize("dissipative", [True, False])
    def test_static(self, config, dissipative):
        rng = np.random.default_rng(103)
        rates = self.RATES if dissipative else RateSet()
        d9 = evolution.dissipator_superop(lindblad_ops(config, rates))
        s = static_schedule(80.0, 50.0, 600.0)
        gens = evolution._generator_kernel(s, d9, "adiabatic")(
            rng.uniform(size=20))
        assert gens.shape == (20, 9, 9)
        for gen in gens:
            r = rng.normal(size=9)
            self.assert_close(gen @ r,
                              _complex_static_rhs(s, d9, dissipative, r))


class TestDop853:
    """The in-house stepper against scipy's DOP853 driven through
    `solve_ivp` on the same generator: the same accepted steps and the same
    states at the output times, which no step end of the reference hits."""

    RATES = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)

    def test_tableau_matches_scipy(self):
        """The package's own tableau is scipy's, bit for bit."""
        rk, ref = _dop853_coefficients, scipy.integrate.DOP853
        for name in ("A", "A_EXTRA", "B", "C", "C_EXTRA", "E3", "E5", "D"):
            got, want = getattr(rk, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert rk.N_STAGES == ref.n_stages
        assert rk.ERROR_ESTIMATOR_ORDER == ref.error_estimator_order

    @pytest.mark.parametrize("tolerances", [(1e-9, 1e-11), (1e-12, 1e-14)])
    @pytest.mark.parametrize("case", ["bare", "dressed", "static"])
    def test_matches_scipy(self, case, tolerances):
        rel_tol, abs_tol = tolerances
        if case == "static":
            s = static_schedule(50.0, 50.0, 200.0)
        else:
            s = make_stirap_schedule(50.0, DetuningSchedule(delta0=200.0), 1.0,
                                     "counterintuitive")
        basis = "adiabatic" if case == "dressed" else "bare"
        d9 = evolution.dissipator_superop(
            lindblad_ops(Configuration.LAMBDA, self.RATES))
        kernel = evolution._generator_kernel(s, d9, basis)
        u = frame(s, 0.0).U if basis == "adiabatic" else np.eye(3)
        y0 = pack(u.conj().T @ SIG11 @ u)
        times = np.linspace(0.0, 1.0, 201)
        got, steps = evolution._dop853(kernel, y0, times, rel_tol, abs_tol)
        ref = scipy.integrate.solve_ivp(
            lambda t, y: kernel(t) @ y, (0.0, 1.0), y0, method="DOP853",
            rtol=rel_tol, atol=abs_tol, dense_output=True)
        assert ref.success
        assert steps == ref.t.size - 1       # t: 0, then every step end
        assert not np.isin(times[1:-1], ref.t).any()
        assert np.max(np.abs(got - ref.sol(times).T)) <= 1e-12


class TestDenseOutput:
    """Outputs exactly on step ends, where the interpolant is evaluated at
    x = 0 or x = 1 of a step."""

    RATES = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)

    def problem(self, basis):
        s = make_stirap_schedule(50.0, DetuningSchedule(delta0=200.0), 1.0,
                                 "counterintuitive")
        d9 = evolution.dissipator_superop(
            lindblad_ops(Configuration.LAMBDA, self.RATES))
        u = frame(s, 0.0).U if basis == "adiabatic" else np.eye(3)
        return (evolution._generator_kernel(s, d9, basis),
                pack(u.conj().T @ SIG11 @ u))

    @pytest.mark.parametrize("basis", ["bare", "adiabatic"])
    def test_two_samples(self, basis):
        """samples = 2: the start and the end of the last step.  The steps
        do not depend on the output times, so the end agrees with a run
        that outputs 201 times."""
        kernel, y0 = self.problem(basis)
        two, steps = evolution._dop853(kernel, y0, np.array([0.0, 1.0]),
                                       1e-9, 1e-11)
        many, steps_many = evolution._dop853(
            kernel, y0, np.linspace(0.0, 1.0, 201), 1e-9, 1e-11)
        assert steps == steps_many
        assert np.array_equal(two[0], y0)
        assert np.max(np.abs(two[1] - many[-1])) <= 1e-14

    @pytest.mark.parametrize("basis", ["bare", "adiabatic"])
    def test_outputs_on_every_step_end(self, basis):
        """With scipy's step ends as output times, each step holds one
        output at its end (and the first also its start)."""
        kernel, y0 = self.problem(basis)
        ref = scipy.integrate.solve_ivp(
            lambda t, y: kernel(t) @ y, (0.0, 1.0), y0, method="DOP853",
            rtol=1e-9, atol=1e-11)
        assert ref.success
        got, steps = evolution._dop853(kernel, y0, ref.t, 1e-9, 1e-11)
        assert steps == ref.t.size - 1
        assert np.max(np.abs(got - ref.y.T)) <= 1e-12


class TestStepCounts:
    """Accepted DOP853 steps of the builtins through the real `propagate`
    path, one count per sweep point.  The counts are deterministic; a
    change that moves them changes the numerics and says so."""

    COUNTS = {
        ("stirap_fig2", "bare"): [1841],
        ("stirap_fig2", "adiabatic"): [1914],
        ("bstirap_fig3", "bare"): [2096],
        ("bstirap_fig3", "adiabatic"): [2132],
        ("purity_delta_fig4", "bare"): [500, 781, 2095],
        ("purity_delta_fig4", "adiabatic"): [473, 766, 2131],
        ("hadamard_hold", "bare"): [767],
        ("hadamard_hold", "adiabatic"): [772],
    }

    @pytest.mark.parametrize("name, basis", list(COUNTS))
    def test_builtin(self, monkeypatch, name, basis):
        from threelevel import cli
        counts = []
        stepper = evolution._dop853

        def recording(*args):
            out, steps = stepper(*args)
            counts.append(steps)
            return out, steps

        monkeypatch.setattr(evolution, "_dop853", recording)
        cfg = cli.load_config(name, {"propagator.basis": basis})
        for _, point, schedule in cli._points(cfg):
            cli.run_trajectory(point, schedule)
        assert counts == self.COUNTS[name, basis]


rate_or_off = st.one_of(st.just(0.0), st.floats(0.01, 5.0))


class TestHarmonicBlocks:
    """The harmonic blocks of the dressed table reproduce the frame
    dissipator W^-1 D W = G^-1 W^T (G D) W at angles between the nodes."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
           st.sampled_from([(Configuration.LAMBDA, False),
                            (Configuration.XI, False),
                            (Configuration.XI, True),
                            (Configuration.V, False)]),
           st.tuples(*[rate_or_off] * 5))
    def test_reproduce_frame_dissipator(self, theta, phi, scheme, rates):
        # nodes sit at multiples of pi/5 in theta and 2 pi/9 in phi
        for x, step in ((theta, math.pi / 5), (phi, 2 * math.pi / 9)):
            assume(abs(x / step - round(x / step)) > 1e-3)
        config, verbatim = scheme
        d9 = evolution.dissipator_superop(
            lindblad_ops(config, RateSet(*rates), verbatim))
        harmonic = evolution._dressed_table(d9)[5:]
        weights = np.outer(evolution._harmonics(2.0 * theta, 2),
                           evolution._harmonics(phi, 4)).ravel()
        got = (weights @ harmonic).reshape(9, 9)
        u = np.array(rotation(theta, phi)).reshape(3, 3)
        w = real_superop(lambda rho: u @ rho @ u.T)
        g = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        ref = (w.T @ (g[:, None] * d9) @ w) / g[:, None]
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestClosedSystemSolution:
    def test_time_zero(self):
        s = static_schedule(10.0, 20.0, 30.0)
        rng = np.random.default_rng(97)
        big_r0 = random_density(rng)
        np.testing.assert_array_equal(
            closed_system_solution(frame(s, 0.0), big_r0, 0.0), big_r0)

    def test_diagonal_constant(self):
        s = static_schedule(10.0, 20.0, 30.0)
        diag = np.diag([0.2, 0.3, 0.5]).astype(complex)
        out = closed_system_solution(frame(s, 0.0), diag, 3.7)
        np.testing.assert_allclose(out, diag, atol=1e-15)

    def test_phase_of_coherence(self):
        s = static_schedule(10.0, 20.0, 30.0)
        fr = frame(s, 0.0)
        big_r0 = np.full((3, 3), 0.25, dtype=complex)
        np.fill_diagonal(big_r0, 1.0 / 3.0)
        t = 0.83
        out = closed_system_solution(fr, big_r0, t)
        expected_phase = -(fr.lam[1] - fr.lam[0]) * t
        got = np.angle(out[1, 0] / big_r0[1, 0])
        assert math.cos(got - expected_phase) == pytest.approx(1.0, abs=1e-12)


class TestTrajectoryInvariants:
    @pytest.mark.parametrize("config", list(Configuration))
    def test_purity_contracts_under_pure_dephasing(self, config):
        # decay channels can repurify (population funnels toward a purer
        # ground mixture: from sigma33 in the lambda scheme purity runs
        # 1 -> 1/3 -> 1/2), so monotonicity is asserted only for the
        # Hermitian dephasing channels, where it is a theorem
        rates = RateSet(gamma1_deph=0.3, gamma2_deph=0.5, gamma3_deph=0.4)
        s = PulseSchedule(ConstantPulse(0.0), ConstantPulse(0.0),
                          DetuningSchedule("constant", 0.0), 2.0, 1e-9)
        rng = np.random.default_rng(101)
        rho0 = random_density(rng)
        traj = propagate(config, rates, s, rho0, TIGHT, samples=101)
        assert np.all(np.diff(traj.purity) < 1e-10)

    def test_decay_repurification_counterexample(self):
        """From the excited projector the purity dips to 1/3 and then rises
        toward 1/2: the closed-form diagonal solution is the oracle."""
        rates = RateSet(gamma1=0.5, gamma2=0.5)
        s = PulseSchedule(ConstantPulse(0.0), ConstantPulse(0.0),
                          DetuningSchedule("constant", 0.0), 6.0, 1e-9)
        traj = propagate(Configuration.LAMBDA, rates, s, SIG33, TIGHT,
                         samples=121)
        x = np.exp(-traj.times)
        expected = 0.5 * (1 - x) ** 2 + x ** 2
        np.testing.assert_allclose(traj.purity, expected, atol=1e-9)
        assert traj.purity.min() == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert traj.purity[-1] > traj.purity.min() + 0.1

    def test_invariant_fields_within_bounds(self):
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "counterintuitive")
        traj = propagate(Configuration.LAMBDA, rates, s, SIG11,
                         samples=201)
        assert traj.trace_err_max < 1e-8
        assert traj.hermiticity_err_max < 1e-10
        assert traj.min_eigenvalue > -1e-8
        assert traj.purity.max() < 1.0 + 1e-10
        assert traj.purity.min() > 1.0 / 3.0 - 1e-10
        assert np.all(np.abs(np.einsum("nii->n", traj.rho).real - 1) < 1e-8)

    def test_views_are_read_off_frame_rho_and_r(self):
        """times and the populations are not stored beside the frame, rho
        and R, but read off them."""
        stored = {f.name for f in fields(Trajectory)}
        assert stored.isdisjoint({"times", "pops_bare", "pops_adiabatic",
                                  "purity"})
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
        s = make_stirap_schedule(60.0, DetuningSchedule(delta0=400.0), 1.0,
                                 "intuitive")
        traj = propagate(Configuration.LAMBDA, rates, s, SIG11, samples=21)
        assert traj.times is traj.frame.t
        np.testing.assert_array_equal(
            traj.pops_bare, np.diagonal(traj.rho, axis1=1, axis2=2).real)
        np.testing.assert_array_equal(
            traj.pops_adiabatic, np.diagonal(traj.R, axis1=1, axis2=2).real)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            PropagatorSettings(rel_tol=0.0)
        with pytest.raises(ValueError):
            PropagatorSettings(rel_tol=1e-15)
        with pytest.raises(ValueError):
            PropagatorSettings(method="verlet")
        with pytest.raises(ValueError):
            PropagatorSettings(basis="dressed")

    def test_invariant_margins(self):
        """Ten times the fixed tolerances at the default rel_tol, at any
        tighter one and for the oracle; scaled with a looser rel_tol."""
        fixed = (10 * evolution.POSITIVITY_TOL, 10 * evolution.PURITY_TOL)
        assert fixed == (1e-7, 1e-9)
        for settings in (PropagatorSettings(), TIGHT,
                         PropagatorSettings(rel_tol=1e-13),
                         oracle(4000), replace(oracle(4000), rel_tol=1e-6)):
            assert evolution._invariant_margins(settings) == fixed
        assert evolution._invariant_margins(
            PropagatorSettings(rel_tol=1e-7)) == pytest.approx(
                (100 * fixed[0], 100 * fixed[1]), rel=1e-15)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_settings_reject_non_finite_tolerance(self, name, value):
        """A nan tolerance would never accept or reject a step."""
        with pytest.raises(ValueError, match="finite"):
            PropagatorSettings(**{name: value})


class TestHarmonicWeights:
    """The dressed kernel's harmonic weights, built from the drives by
    square roots and complex powers, against `_harmonics` of the angles of
    `adiabatic.angles` (atan2).  Zero drives engage the Rabi floor and keep
    atan2(0, 0) = 0; |Delta| / Omega reaches 1e6 with either sign."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
           st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
           st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
           st.sampled_from([-1.0, 1.0]))
    def test_match_angles(self, omega_p, omega_c, ratio, sign):
        s = static_schedule(omega_p, omega_c, 0.0, horizon=1.0)
        t = np.zeros(3)
        sample = s.rabi(t)
        delta = np.full(3, sign * ratio * float(sample.omega[0]))
        drives = (*sample[:6], delta, np.zeros(3))
        theta, phi = adiabatic.angles(*drives)[:2]
        theta_waves, phi_waves = evolution._waves(
            *adiabatic.phasors(*drives)[:2])
        got = theta_waves[:, :, None] * phi_waves[:, None, :]
        ref = np.einsum("ni,nj->nij", evolution._harmonics(2.0 * theta, 2),
                        evolution._harmonics(phi, 4))
        assert np.max(np.abs(got - ref)) <= 1e-13


rate_per_T = st.floats(0.0, 1.0)


class TestRandomConfigurations:
    """Random schemes, orderings, rates (each at most 1/T), peak couplings,
    detunings and bare initial states, run by the 2000-slice oracle in
    both bases.  The invariants hold at the margins `_assemble` applies to
    the oracle, and the two bases agree to 1e-6: at 2000 slices the
    Magnus error on the transfer scenarios is at most 3.3e-8 bare and
    6.6e-11 dressed, and h max|A|_1 stays below 1 here."""

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(list(Configuration)),
           st.sampled_from(["counterintuitive", "intuitive", "static"]),
           st.tuples(*[rate_per_T] * 5), st.floats(50.0, 150.0),
           st.floats(100.0, 1000.0), st.integers(0, 2))
    def test_invariants_and_basis_agreement(self, config, ordering, rates,
                                            peak, delta, level):
        rates = RateSet(*rates)
        s = make_stirap_schedule(peak, DetuningSchedule(delta0=delta), 1.0,
                                 ordering)
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[level, level] = 1.0
        u0 = frame(s, 0.0).U
        runs = [propagate(config, rates, s, r0, oracle(2000, basis),
                          samples=51)
                for basis, r0 in (("bare", rho0),
                                  ("adiabatic", u0.conj().T @ rho0 @ u0))]
        for traj in runs:
            assert traj.trace_err_max <= 10 * evolution.TRACE_TOL
            assert traj.hermiticity_err_max <= 10 * evolution.HERMITICITY_TOL
            assert traj.min_eigenvalue >= -10 * evolution.POSITIVITY_TOL
            assert traj.purity.max() <= 1.0 + 10 * evolution.PURITY_TOL
            assert traj.purity.min() >= 1.0 / 3.0 - 10 * evolution.PURITY_TOL
        bare, dressed = runs
        assert np.max(np.abs(bare.rho - dressed.rho)) < 1e-6
