import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from threelevel import _dop853_coefficients, adiabatic
from threelevel.adiabatic import frame
from threelevel.dissipation import (Configuration, RateSet, derived_rates,
                                    dissipator, ketbra, lindblad_ops)
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


def liouvillian_states(config, rates, schedule, rho0, times,
                       xi_appendix_verbatim=False):
    """Bare-basis states of a static schedule at `times`, from rho0:
    scipy's exponential of the complex 9x9 Liouvillian (row-major vec
    convention) at each time."""
    h = float(schedule.pump.value(0.0)) * (ketbra(1, 3) + ketbra(3, 1)) \
        + float(schedule.stokes.value(0.0)) * (ketbra(2, 3) + ketbra(3, 2)) \
        + schedule.detuning.delta0 * ketbra(3, 3)
    eye = np.eye(3)
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in lindblad_ops(config, rates, xi_appendix_verbatim):
        anti = op.conj().T @ op
        m += np.kron(op, op.conj()) \
            - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
    return np.stack([scipy.linalg.expm(m * t) @ rho0.reshape(9)
                     for t in times]).reshape(-1, 3, 3)


def record_expm(monkeypatch):
    """Make `evolution.expm` record each call's stack and result, in call
    order, in the returned list."""
    calls = []
    exponential = evolution.expm

    def recording(a):
        out = exponential(a)
        calls.append((np.array(a), out))
        return out

    monkeypatch.setattr(evolution, "expm", recording)
    return calls


def oracle_expm_calls(monkeypatch, basis):
    """The `expm` calls of `expm_oracle` on `stirap_fig2` at 4000 slices."""
    from threelevel import cli
    calls = record_expm(monkeypatch)
    cli.run_trajectory(cli.load_config("stirap_fig2", {
        "propagator.method": "expm_oracle", "propagator.n_slices": "4000",
        "propagator.basis": basis}))
    return calls


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

    def test_pack_stack(self):
        """`pack` of a stack is `pack` of each matrix, and `unpack` takes
        the packed stack back."""
        rng = np.random.default_rng(73)
        stack = np.stack([random_density(rng) for _ in range(5)])
        packed = pack(stack)
        assert packed.shape == (5, 9)
        for k in range(5):
            np.testing.assert_array_equal(packed[k], pack(stack[k]))
        np.testing.assert_allclose(unpack(packed), stack, atol=1e-15)

    def test_superop_of_stacked_maps(self):
        """A stack of maps gets the stack of its maps' matrices."""
        rng = np.random.default_rng(79)
        hs = rng.normal(size=(4, 3, 3))
        hs = hs + hs.swapaxes(-1, -2)
        stacked = real_superop(
            lambda rho: -1j * (hs[:, None] @ rho - rho @ hs[:, None]))
        assert stacked.shape == (4, 9, 9)
        for h, m in zip(hs, stacked):
            np.testing.assert_array_equal(
                m, real_superop(lambda rho: -1j * (h @ rho - rho @ h)))

    def test_node_superops_are_inverse(self):
        """W^-1 W is the identity at each of the 45 table nodes."""
        product = evolution._NODE_W_INV @ evolution._NODE_W
        assert product.shape == (45, 9, 9)
        assert np.max(np.abs(product - np.eye(9))) <= 1e-15


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

    def test_scaling_edges_in_one_stack(self):
        """One stack that mixes every scaling count s = 0..10 with matrices
        whose 1-norm is exactly 1, 2 and 4, where `frexp` takes one more
        halving, and with two nonnegative matrices of equal column sums,
        0.99 and 1.98, whose spectral radius is their 1-norm, so that the
        Taylor remainder attains its bound there and a lower degree or one
        halving fewer would show.  Each against scipy under the bound of
        `test_matches_scipy`."""
        rng = np.random.default_rng(211)
        spread = rng.normal(size=(11, 9, 9))
        spread *= (0.75 * 2.0 ** np.arange(11) / np.abs(spread).sum(
            axis=-2).max(axis=-1))[:, None, None]
        # integer entries with column sums at most 27, then the first
        # column raised to 32: the 1-norm is 32, and dividing by it is exact
        edges = rng.integers(-3, 4, size=(3, 9, 9)).astype(float)
        edges[:, 0, 0] = 32.0 - np.abs(edges[:, 1:, 0]).sum(axis=-1)
        edges *= np.array([1.0, 2.0, 4.0])[:, None, None] / 32.0
        tight = rng.uniform(size=(2, 9, 9))
        tight *= np.array([0.99, 1.98])[:, None, None] / tight.sum(axis=-2)[
            :, None, :]
        a = np.concatenate([spread, edges, tight])[rng.permutation(16)]
        norms = np.abs(a).sum(axis=-2).max(axis=-1)
        assert sorted(norms[np.isin(norms, [1.0, 2.0, 4.0])]) == [1.0, 2.0,
                                                                  4.0]
        assert set(np.frexp(norms)[1]) == set(range(11))
        got = evolution.expm(a)
        for m, e, norm in zip(a, got, norms):
            ref = scipy.linalg.expm(m)
            err = np.linalg.norm(e - ref, 1) / np.linalg.norm(ref, 1)
            assert err <= 1e-13 * max(1.0, norm)

    @pytest.mark.parametrize("basis", evolution.BASES)
    def test_magnus_slices_match_scipy(self, monkeypatch, basis):
        """The 4000 Magnus exponents of `stirap_fig2`, in the stacks of
        `_ORACLE_BLOCK` that the oracle passes, each within 1e-14 of scipy
        in 1-norm, relative."""
        calls = oracle_expm_calls(monkeypatch, basis)
        assert sum(len(a) for a, _ in calls) == 4000
        for stack, got in calls:
            for m, e in zip(stack, got):
                ref = scipy.linalg.expm(m)
                assert np.linalg.norm(e - ref, 1) \
                    <= 1e-14 * np.linalg.norm(ref, 1)

    def test_single_matrix_and_zero(self):
        np.testing.assert_array_equal(evolution.expm(np.zeros((9, 9))),
                                      np.eye(9))
        m = np.diag([1.0, -2.0, 0.5])
        np.testing.assert_allclose(evolution.expm(m), np.diag(np.exp(
            [1.0, -2.0, 0.5])), rtol=1e-15)


def _complex_dressed_rhs(schedule, d9, dissipative, t, r):
    """The dressed right-hand side evaluated on complex 3x3 matrices:
    -i[diag(lam), R] + [R, F] + U^T D(U R U^T) U."""
    op, oc, dop, doc, omega, domega, dv, ddv, _ = map(float,
                                                      schedule.rabi(t))
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


def _complex_bare_rhs(schedule, ops, t, r):
    """The bare right-hand side evaluated on complex 3x3 matrices,
    -i[H, rho] + D(rho), with H = Omega_p (|1><3| + |3><1|)
    + Omega_c (|2><3| + |3><2|) + Delta |3><3| from the schedule at t."""
    h = float(schedule.pump.value(t)) * (ketbra(1, 3) + ketbra(3, 1)) \
        + float(schedule.stokes.value(t)) * (ketbra(2, 3) + ketbra(3, 2)) \
        + float(schedule.delta(t)[0]) * ketbra(3, 3)
    rho = unpack(r)
    return pack(-1j * (h @ rho - rho @ h) + dissipator(ops, rho))


class TestBareGenerator:
    """The bare grid kernel, D + Omega_p Bp + Omega_c Bc + Delta Bd on every
    schedule, against the complex 3x3 formula, on an array of random times,
    at a 0-d time and written into a given buffer."""

    RATES = RateSet(gamma1=0.5, gamma2=0.3, gamma1_deph=0.05,
                    gamma2_deph=0.1, gamma3_deph=0.2)
    SCHEDULES = {
        "constant": make_stirap_schedule(100.0, DetuningSchedule(
            delta0=1000.0), 1.0, "intuitive"),
        "shaped": make_stirap_schedule(100.0, DetuningSchedule(
            kind="shaped", delta0=7.0, gamma1=0.5), 1.0, "counterintuitive"),
        "static": static_schedule(80.0, 50.0, -600.0),
    }

    @pytest.mark.parametrize("config", list(Configuration))
    @pytest.mark.parametrize("detuning", list(SCHEDULES))
    def test_matches_complex_formula(self, config, detuning):
        rng = np.random.default_rng(109)
        s = self.SCHEDULES[detuning]
        ops = lindblad_ops(config, self.RATES)
        kernel = evolution._generator_kernel(
            s, evolution.dissipator_superop(ops), "bare")

        def check(t, gen):
            r = rng.normal(size=9)
            TestDressedGenerator.assert_close(
                gen @ r, _complex_bare_rhs(s, ops, t, r))

        times = rng.uniform(0.0, 1.0, size=20)
        gens = kernel(times)
        assert gens.shape == (20, 9, 9)
        for t, gen in zip(times, gens):
            check(t, gen)

        t = np.float64(rng.uniform())
        gen = kernel(t)
        assert gen.shape == (9, 9)
        check(t, gen)

        grid = rng.uniform(0.0, 1.0, size=(4, 5))
        buffer = np.full((4, 5, 9, 9), np.nan)
        assert kernel(grid, out=buffer) is buffer
        for t, gen in zip(grid.ravel(), buffer.reshape(20, 9, 9)):
            check(t, gen)


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


    def test_one_drive_sample_per_call(self, monkeypatch):
        """On a shaped detuning, which follows the total coupling, one
        dressed kernel call samples the drives once."""
        calls = []
        rabi = PulseSchedule.rabi

        def counted(schedule, t):
            calls.append(t)
            return rabi(schedule, t)

        monkeypatch.setattr(PulseSchedule, "rabi", counted)
        shaped = DetuningSchedule(kind="shaped", delta0=7.0, gamma1=0.5)
        s = make_stirap_schedule(100.0, shaped, 1.0, "counterintuitive")
        d9 = evolution.dissipator_superop(
            lindblad_ops(Configuration.LAMBDA, self.RATES))
        kernel = evolution._generator_kernel(s, d9, "adiabatic")
        for times in (0.3, np.linspace(0.0, 1.0, 7)):
            calls.clear()
            kernel(times)
            assert len(calls) == 1


def one_segment(kernel, y0, times, rel_tol, abs_tol):
    """The segment stepper on one segment and one column, the 9-vector y0:
    the states at `times` and the accepted steps."""
    out, _, steps = evolution._dop853(kernel, y0[None, :, None],
                                      times[[0, -1]], times, rel_tol, abs_tol)
    return out[..., 0], steps


class TestDop853:
    """The in-house stepper, on one segment and one column, against scipy's
    DOP853 driven through `solve_ivp` on the same generator: the same
    accepted steps and the same states at the output times, which no step
    end of the reference hits."""

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
        got, steps = one_segment(kernel, y0, times, rel_tol, abs_tol)
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
        two, steps = one_segment(kernel, y0, np.array([0.0, 1.0]),
                                 1e-9, 1e-11)
        many, steps_many = one_segment(kernel, y0, np.linspace(0.0, 1.0, 201),
                                       1e-9, 1e-11)
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
        got, steps = one_segment(kernel, y0, ref.t, 1e-9, 1e-11)
        assert steps == ref.t.size - 1
        assert np.max(np.abs(got - ref.y.T)) <= 1e-12


class TestStepCounts:
    """Accepted DOP853 steps of the builtins, summed over the time
    segments, through the real `propagate` path, one count per sweep point.
    The counts are deterministic; a change that moves them changes the
    numerics and says so.  Step control on every propagator column makes
    them depend on the generator alone, not on the initial state, and the
    maximum over columns does not see a relabelling of the two ground
    states; so `stirap_fig2` and `bstirap_fig3`, which differ in the pulse
    order under equal rates, take the same steps.  The static
    `hadamard_hold` takes none: each static point makes exactly one `expm`
    call, on a stack of one 9x9 matrix (one Magnus slice), and the others
    make none."""

    COUNTS = {
        ("stirap_fig2", "bare"): [2623],
        ("stirap_fig2", "adiabatic"): [2360],
        ("bstirap_fig3", "bare"): [2623],
        ("bstirap_fig3", "adiabatic"): [2360],
        ("purity_delta_fig4", "bare"): [735, 1066, 2623],
        ("purity_delta_fig4", "adiabatic"): [638, 959, 2361],
        ("hadamard_hold", "bare"): [],
        ("hadamard_hold", "adiabatic"): [],
    }

    @pytest.mark.parametrize("name, basis", list(COUNTS))
    def test_builtin(self, monkeypatch, name, basis):
        from threelevel import cli
        counts = []
        stepper = evolution._dop853

        def recording(*args):
            out = stepper(*args)
            counts.append(out[-1])
            return out

        monkeypatch.setattr(evolution, "_dop853", recording)
        exponentials = record_expm(monkeypatch)
        cfg = cli.load_config(name, {"propagator.basis": basis})
        for _, point, schedule in cli._points(cfg):
            del exponentials[:]
            cli.run_trajectory(point, schedule)
            assert [a.shape for a, _ in exponentials] == (
                [(1, 9, 9)] if schedule.is_static else [])
        assert counts == self.COUNTS[name, basis]

    @pytest.mark.parametrize("basis", evolution.BASES)
    def test_oracle_exponentials(self, monkeypatch, basis):
        """`expm_oracle` exponentiates its slices in stacks of
        `_ORACLE_BLOCK`: on `stirap_fig2` at 4000 slices, 31 calls on 128
        matrices and one on the last 32."""
        calls = oracle_expm_calls(monkeypatch, basis)
        assert [a.shape for a, _ in calls] == [(128, 9, 9)] * 31 \
            + [(32, 9, 9)]

    @pytest.mark.parametrize("basis", evolution.BASES)
    def test_fourteen_generators_per_attempt(self, monkeypatch, basis):
        """DOP853's stage 11 and its first-same-as-last step end are both
        at c = 1, so each pass of `_dop853` on `stirap_fig2` makes one
        kernel call, the one that writes into the pass's buffer, for 14
        generators per active segment and never 15: stages 1-11 and the
        three dense-output stages."""
        from threelevel import cli
        assert _dop853_coefficients.C[-1] == 1.0
        make = evolution._generator_kernel
        spans = []

        def recording(schedule, d9, basis):
            kernel = make(schedule, d9, basis)

            def at(t, out=None, scale=None):
                if out is not None:
                    spans.append(np.shape(t))
                return kernel(t, out, scale)
            return at

        monkeypatch.setattr(evolution, "_generator_kernel", recording)
        cli.run_trajectory(cli.load_config("stirap_fig2",
                                           {"propagator.basis": basis}))
        assert spans[0] == (evolution._SEGMENTS, 14)
        assert all(len(s) == 2 and s[1] == 14 and s[0] >= 1 for s in spans)


class TestSegments:
    """The default route integrates the propagators of `_SEGMENTS` time
    segments and chains them."""

    # max |rho - rho_ref|: for a time-dependent schedule, the error of a
    # one-segment 9-vector run at the default tolerances, which the
    # segmented route may not exceed; for the static hold, whose exact
    # step map leaves only rounding, 1e-12
    REFERENCE_ERR = {
        ("stirap_fig2", "bare"): 3.5e-9,
        ("stirap_fig2", "adiabatic"): 2.4e-9,
        ("bstirap_fig3", "bare"): 7.6e-9,
        ("bstirap_fig3", "adiabatic"): 6.2e-9,
        ("purity_delta_fig4", "bare"): 7.5e-9,
        ("purity_delta_fig4", "adiabatic"): 7.3e-9,
        ("hadamard_hold", "bare"): 1e-12,
        ("hadamard_hold", "adiabatic"): 1e-12,
    }

    @pytest.mark.parametrize("name, basis", list(REFERENCE_ERR))
    def test_accuracy_against_tight_reference(self, monkeypatch, name,
                                              basis):
        """A time-dependent point's reference is the same tableau on one
        segment and the 9-vector, at rtol 1e-12 and atol 1e-14, on the
        generator kernel of the same path.  A static point's, which that
        tableau cannot give to 1e-12, is `TestStaticRoute`'s: scipy's
        exponential of the complex Liouvillian at each sample time, from
        the run's first sample (its initial state, in the dressed basis up
        to a round trip through the frame)."""
        from threelevel import cli
        cfg = cli.load_config(name, {"propagator.basis": basis})
        points = cli._points(cfg)
        got = [cli.run_trajectory(p, s) for _, p, s in points]

        def reference(kernel, y0, times, *tolerances):
            return one_segment(kernel, y0, times, 1e-12, 1e-14)[0]

        monkeypatch.setattr(evolution, "_segmented", reference)
        ref = [liouvillian_states(p.configuration, p.rates, s, traj.rho[0],
                                  traj.times, p.xi_appendix_verbatim)
               if s.is_static else cli.run_trajectory(p, s).rho
               for (_, p, s), traj in zip(points, got)]
        err = max(np.max(np.abs(a.rho - b)) for a, b in zip(got, ref))
        assert err <= self.REFERENCE_ERR[name, basis]

    @pytest.mark.parametrize("basis", evolution.BASES)
    def test_trace_checked_between_samples(self, monkeypatch, basis):
        """A generator that is made not to keep the trace, by
        eps sin(2 pi t / T) times the identity, changes the trace within
        segments but not at t = 0 and t = T, the only samples.  The check
        at the segment ends still catches it."""
        make = evolution._generator_kernel

        def leaky(schedule, d9, basis):
            kernel = make(schedule, d9, basis)

            def at(t, out=None, scale=None):
                gens = kernel(t, out, scale)
                leak = 1e-4 * np.sin(2 * np.pi * np.asarray(t))
                if scale is not None:
                    leak = leak * scale      # as the kernel scales its rows
                gens += leak[..., None, None] * np.eye(9)
                return gens
            return at

        monkeypatch.setattr(evolution, "_generator_kernel", leaky)
        s = make_stirap_schedule(50.0, DetuningSchedule(delta0=200.0), 1.0,
                                 "counterintuitive")
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
        rho0 = SIG11
        if basis == "adiabatic":
            u = frame(s, 0.0).U
            rho0 = u.conj().T @ SIG11 @ u
        with pytest.raises(PropagationError, match="trace drifted by .* over"):
            propagate(Configuration.LAMBDA, rates, s, rho0,
                      PropagatorSettings(basis=basis), samples=2)

    def test_step_underflow(self):
        """y' = y / (0.49 - t) blows up inside one segment, whose steps
        shrink until they underflow."""
        def kernel(t, out=None, scale=1.0):
            t = np.asarray(t, dtype=float)
            if out is None:
                out = np.empty(t.shape + (9, 9))
            out[...] = np.eye(9) * (scale / (0.49 - t))[..., None, None]
            return out

        times = np.linspace(0.0, 1.0, 11)
        # the kernel is singular at t = 0.49: its inf and nan are expected
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
                PropagationError, match="failed near t=0.49.*spacing between"):
            evolution._segmented(kernel, pack(SIG11), times, 1e-9, 1e-11)

    @pytest.mark.parametrize("basis", evolution.BASES)
    def test_steps_independent_of_output_grid(self, basis):
        """The segments are fixed in time, so the last state does not
        depend on how many samples come before it."""
        s = make_stirap_schedule(50.0, DetuningSchedule(delta0=200.0), 1.0,
                                 "counterintuitive")
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
        rho0 = SIG11
        if basis == "adiabatic":
            u = frame(s, 0.0).U
            rho0 = u.conj().T @ SIG11 @ u
        ends = [propagate(Configuration.LAMBDA, rates, s, rho0,
                          PropagatorSettings(basis=basis),
                          samples=n).rho[-1] for n in (2, 50, 333)]
        assert max(np.max(np.abs(e - ends[0])) for e in ends) <= 1e-13


class TestChain:
    """`_chain`, which every map of every method passes through: each
    interval map is checked against the trace row, then the maps are
    chained."""

    EDGES = np.linspace(0.0, 1.0, 6)

    @staticmethod
    def identities():
        return np.broadcast_to(np.eye(9), (5, 9, 9)).copy()

    def test_chains_the_maps(self):
        rng = np.random.default_rng(113)
        maps = self.identities()
        # rows 0-2 stay those of I, so each map keeps the trace
        maps[:, 3:] = rng.normal(size=(5, 6, 9))
        y0 = rng.normal(size=9)
        want = [y0]
        for phi in maps:
            want.append(phi @ want[-1])
        np.testing.assert_array_equal(evolution._chain(maps, self.EDGES, y0),
                                      want)

    def test_names_the_leaking_interval(self):
        maps = self.identities()
        maps[1, 0, 0] += 5e-8                 # within 10 x TRACE_TOL
        maps[2, 0, 0] += 1e-6
        with pytest.raises(PropagationError, match=r"trace drifted by "
                           r"1\.000e-06 over \[0\.4, 0\.6\]$"):
            evolution._chain(maps, self.EDGES, pack(SIG11))

    def test_one_shared_map(self):
        """One (1, 9, 9) map is every interval's: it is chained over all of
        them, and checked once, a leak named as the first interval."""
        rng = np.random.default_rng(127)
        edges = self.EDGES[:5]
        maps = self.identities()[:1]
        maps[:, 3:] = rng.normal(size=(1, 6, 9))
        y0 = rng.normal(size=9)
        want = [y0]
        for _ in range(4):
            want.append(maps[0] @ want[-1])
        np.testing.assert_array_equal(evolution._chain(maps, edges, y0),
                                      want)
        maps[0, 0, 0] += 1e-6
        with pytest.raises(PropagationError, match=r"trace drifted by "
                           r"1\.000e-06 over \[0, 0\.2\]$"):
            evolution._chain(maps, edges, y0)

    def test_nan_map_fails(self):
        """A nan drift is not below any bound."""
        maps = self.identities()
        maps[3, 4, 0] = math.nan
        with pytest.raises(PropagationError,
                           match=r"trace drifted by nan over \[0\.6, 0\.8\]$"):
            evolution._chain(maps, self.EDGES, pack(SIG11))


class TestNonFinite:
    """Drives or detunings so large that the propagation overflows raise
    PropagationError, not numpy's LinAlgError from `eigvalsh`."""

    @pytest.mark.parametrize("basis", evolution.BASES)
    @pytest.mark.parametrize("key, value", [("pulses.peak_omega", "1e150"),
                                            ("detuning.delta0", "1e305")])
    def test_static_step_map(self, basis, key, value):
        """The default method's non-finite exp(G dt) fails `_chain`'s trace
        check on the first sample interval."""
        from threelevel import cli
        cfg = cli.load_config("hadamard_hold", {
            key: value, "output.samples": "5", "propagator.basis": basis})
        with np.errstate(all="ignore"), pytest.raises(
                PropagationError,
                match=r"trace drifted by nan over \[0, 0\.25\]$"):
            cli.run_trajectory(cfg)

    @pytest.mark.parametrize("basis", evolution.BASES)
    def test_oracle_sample(self, basis):
        """The oracle's non-finite slice map fails `_chain`'s trace check,
        which names its slice, before `_assemble` sees a sample."""
        from threelevel import cli
        cfg = cli.load_config("stirap_fig2", {
            "pulses.peak_omega": "1e150", "output.samples": "2",
            "propagator.method": "expm_oracle", "propagator.n_slices": "1",
            "propagator.basis": basis})
        with np.errstate(all="ignore"), pytest.raises(
                PropagationError,
                match=r"trace drifted by nan over \[0, 1\]$"):
            cli.run_trajectory(cfg)


drive_or_off =st.one_of(st.just(0.0), st.floats(1.0, 150.0))


class TestStaticRoute:
    """On a static schedule the default method applies the exact step map
    exp(G dt) of one sample interval, computed once as one `_magnus4`
    slice."""

    RATES = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.1)

    @staticmethod
    def start_state(s, rho0, basis):
        u = frame(s, 0.0).U if basis == "adiabatic" else np.eye(3)
        return u.conj().T @ rho0 @ u

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(list(Configuration)),
           st.tuples(*[st.floats(0.0, 5.0)] * 5),
           drive_or_off, drive_or_off, st.floats(-1000.0, 1000.0),
           st.integers(0, 2**32 - 1), st.sampled_from(evolution.BASES))
    def test_matches_complex_liouvillian(self, config, rates, omega_p,
                                         omega_c, delta, seed, basis):
        """Random static drives and rates, in either basis, against
        scipy's exponential of the complex 9x9 Liouvillian (row-major vec
        convention) at every sample time.  The dressed basis needs a drive:
        with both off, the Rabi floor stands in for the total coupling, so
        the dressed equation is not the bare one (3.5e-10 apart over T)."""
        assume(basis == "bare" or max(omega_p, omega_c) > 0.0)
        rates = RateSet(*rates)
        s = static_schedule(omega_p, omega_c, delta)
        rho0 = random_density(np.random.default_rng(seed))
        traj = propagate(config, rates, s, self.start_state(s, rho0, basis),
                         PropagatorSettings(basis=basis), samples=51)
        ref = liouvillian_states(config, rates, s, rho0, traj.times)
        assert np.max(np.abs(traj.rho - ref)) <= 1e-12

    @pytest.mark.parametrize("basis", evolution.BASES)
    def test_last_row_independent_of_output_grid(self, basis):
        """P^(n - 1) over n samples is exp(G T) for any n."""
        s = static_schedule(100.0, 100.0, 1000.0)
        rho0 = self.start_state(s, SIG11, basis)
        ends = [propagate(Configuration.LAMBDA, self.RATES, s, rho0,
                          PropagatorSettings(basis=basis),
                          samples=n).rho[-1] for n in (2, 50, 333)]
        assert max(np.max(np.abs(e - ends[0])) for e in ends) <= 1e-12

    @pytest.mark.parametrize("basis", evolution.BASES)
    def test_trace_checked(self, monkeypatch, basis):
        """A generator made not to keep the trace, by 1e-4 times the
        identity, fails the trace check of the static step map, and, under
        `expm_oracle` on a static and on a Gaussian schedule, of the
        oracle's slice maps, which names one slice, not a sample."""
        make = evolution._generator_kernel

        def leaky(schedule, d9, basis):
            kernel = make(schedule, d9, basis)

            def at(t, out=None):
                return kernel(t, out) + 1e-4 * np.eye(9)
            return at

        monkeypatch.setattr(evolution, "_generator_kernel", leaky)
        s = static_schedule(100.0, 100.0, 1000.0)
        with pytest.raises(PropagationError,
                           match=r"trace drifted by .* over \[0, 1\]"):
            propagate(Configuration.LAMBDA, self.RATES, s,
                      self.start_state(s, SIG11, basis),
                      PropagatorSettings(basis=basis), samples=2)
        gaussian = make_stirap_schedule(50.0, DetuningSchedule(delta0=200.0),
                                        1.0, "counterintuitive")
        for s in (s, gaussian):
            with pytest.raises(PropagationError) as err:
                propagate(Configuration.LAMBDA, self.RATES, s,
                          self.start_state(s, SIG11, basis),
                          oracle(10, basis), samples=2)
            a, b = map(float, re.fullmatch(
                r"trace drifted by .* over \[(.*), (.*)\]",
                str(err.value)).groups())
            assert b - a == pytest.approx(0.1)
            assert 10 * a == pytest.approx(round(10 * a), abs=1e-9)

    @pytest.mark.parametrize("basis", evolution.BASES)
    def test_oracle_keeps_its_slices(self, monkeypatch, basis):
        """`expm_oracle` on a static schedule still runs `_magnus4` on its
        `n_slices` slices, 301 edges, where the default route takes one
        slice over one sample interval, 2 edges."""
        calls = []
        magnus = evolution._magnus4

        def recording(kernel, edges):
            calls.append(len(edges))
            return magnus(kernel, edges)

        monkeypatch.setattr(evolution, "_magnus4", recording)
        s = static_schedule(100.0, 100.0, 1000.0)
        for route in (oracle(300, basis), PropagatorSettings(basis=basis)):
            propagate(Configuration.LAMBDA, self.RATES, s,
                      self.start_state(s, SIG11, basis), route, samples=11)
        assert calls == [301, 2]

    def test_drives_off_dressed_drift_bound(self):
        """With both drives off the dressed frame stands the Rabi floor in
        for the total coupling, so the dressed run solves the bare equation
        with H + dH, dH = floor (|2><3| + h.c.).  The difference of the two
        runs is driven by -i[dH, rho], of norm at most 2 floor, through a
        contraction, so it stays below 2 floor t (plus the rounding of the
        round trip through the frame at t = 0)."""
        rng = np.random.default_rng(131)
        for delta in (0.0, 100.0, -300.0, 1000.0, 3000.0):
            s = static_schedule(0.0, 0.0, delta)
            for config in Configuration:
                rates = RateSet(*rng.uniform(0.0, 2.0, 5))
                rho0 = random_density(rng)
                bare, dressed = (
                    propagate(config, rates, s,
                              self.start_state(s, rho0, basis),
                              PropagatorSettings(basis=basis), samples=51)
                    for basis in evolution.BASES)
                gap = np.max(np.abs(dressed.rho - bare.rho), axis=(1, 2))
                assert np.all(gap <= 2 * s.floor_omega * bare.times + 1e-15)


rate_or_off = st.one_of(st.just(0.0), st.floats(0.01, 5.0))


def harmonics(x, degree):
    """1, then cos(k x), sin(k x) for k = 1..degree, along a new last axis."""
    kx = np.multiply.outer(x, np.arange(1.0, degree + 1))
    waves = np.stack([np.cos(kx), np.sin(kx)], axis=-1)
    return np.concatenate([np.ones(np.shape(x) + (1,)),
                           waves.reshape(np.shape(x) + (2 * degree,))],
                          axis=-1)


def parity_products(theta_waves, phi_waves):
    """The 23 harmonic products of the dressed table, from
    `harmonics(2 theta, 2)` and `harmonics(phi, 4)` over any leading
    axes: (1, cos 2theta, cos 4theta) times the even harmonics
    (1, cos 2phi, sin 2phi, cos 4phi, sin 4phi), then
    (sin 2theta, sin 4theta) times the odd ones
    (cos phi, sin phi, cos 3phi, sin 3phi), row-major."""
    even = np.einsum("...i,...j->...ij", theta_waves[..., [0, 1, 3]],
                     phi_waves[..., [0, 3, 4, 7, 8]])
    odd = np.einsum("...i,...j->...ij", theta_waves[..., [2, 4]],
                    phi_waves[..., [1, 2, 5, 6]])
    return np.concatenate([even.reshape(even.shape[:-2] + (15,)),
                           odd.reshape(odd.shape[:-2] + (8,))], axis=-1)


class TestHarmonicBlocks:
    """The 23 harmonic blocks of the dressed table reproduce the frame
    dissipator W^-1 D W = G^-1 W^T (G D) W at angles between the nodes.
    The table holds only the products that are invariant under
    (theta, phi) -> (-theta, phi + pi), so this also checks that W^-1 D W
    has that parity."""

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
        table = evolution._dressed_table(d9)
        assert table.shape == (28, 81)
        weights = parity_products(harmonics(2.0 * theta, 2),
                                  harmonics(phi, 4))
        got = (weights @ table[5:]).reshape(9, 9)
        s_t, c_t, s_p, c_p = (math.sin(theta), math.cos(theta),
                              math.sin(phi), math.cos(phi))
        u = np.array([[c_t, s_t * c_p, s_t * s_p],
                      [-s_t, c_t * c_p, c_t * s_p],
                      [0.0, -s_p, c_p]])
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

    def test_purity_evaluated_once(self):
        s = static_schedule(100.0, 100.0, 1000.0)
        traj = propagate(Configuration.LAMBDA, RateSet(), s, SIG11,
                         samples=5)
        assert traj.purity is traj.purity

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
        tighter one, for the oracle and for a static schedule; scaled with
        a looser rel_tol on a time-dependent one."""
        fixed = (10 * evolution.POSITIVITY_TOL, 10 * evolution.PURITY_TOL)
        assert fixed == (1e-7, 1e-9)
        for settings in (PropagatorSettings(), TIGHT,
                         PropagatorSettings(rel_tol=1e-13),
                         oracle(4000), replace(oracle(4000), rel_tol=1e-6)):
            for static in (False, True):
                assert evolution._invariant_margins(settings, static) == fixed
        loose = PropagatorSettings(rel_tol=1e-7)
        assert evolution._invariant_margins(loose, False) == pytest.approx(
            (100 * fixed[0], 100 * fixed[1]), rel=1e-15)
        assert evolution._invariant_margins(loose, True) == fixed

    def test_static_run_checked_at_fixed_margins(self, monkeypatch):
        """The exact static route has no tolerance-driven error: a static
        run at rel_tol 1e-6 is checked at the fixed margins, a transfer at
        the same rel_tol at margins 1000 times wider."""
        margins = []
        assemble = evolution._assemble

        def recording(rho, fr, chosen):
            margins.append(chosen)
            return assemble(rho, fr, chosen)

        monkeypatch.setattr(evolution, "_assemble", recording)
        loose = PropagatorSettings(rel_tol=1e-6, abs_tol=1e-8)
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.1)
        for s in (static_schedule(100.0, 100.0, 1000.0),
                  make_stirap_schedule(50.0, DetuningSchedule(delta0=200.0),
                                       1.0, "counterintuitive")):
            propagate(Configuration.LAMBDA, rates, s, SIG11, loose,
                      samples=21)
        fixed = (10 * evolution.POSITIVITY_TOL, 10 * evolution.PURITY_TOL)
        assert margins[0] == fixed
        assert margins[1] == pytest.approx((1000 * fixed[0],
                                            1000 * fixed[1]), rel=1e-15)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_settings_reject_non_finite_tolerance(self, name, value):
        """A nan tolerance would never accept or reject a step."""
        with pytest.raises(ValueError, match="finite"):
            PropagatorSettings(**{name: value})


class TestPositivityCertificate:
    """`_assemble` certifies positivity by the LDL^H pivots of
    rho + (m/2) I, m the positivity margin, and calls `eigvalsh` only when
    a pivot fails: it raises exactly when the eigvalsh rule (an eigenvalue
    below -m) does, with the same message, and a zero or negative pivot
    warns of nothing."""

    M = 10 * evolution.POSITIVITY_TOL
    LAMBDA_MIN = [-2 * M, -1.001 * M, -0.999 * M, -M / 4, 0.0]

    def stack(self, rng, sample):
        """Six random density matrices with `sample` fourth."""
        rhos = [random_density(rng) for _ in range(6)]
        rhos.insert(3, sample)
        return np.array(rhos)

    def rotated(self, rng, lam_min):
        """A unit-trace Hermitian matrix with smallest eigenvalue lam_min,
        in a random eigenbasis."""
        q, _ = np.linalg.qr(rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
        lam = np.array([lam_min, 0.3, 0.7 - lam_min])
        return (q * lam) @ q.conj().T

    def samples(self):
        rng = np.random.default_rng(29)
        half = self.M / 2
        cases = [random_density(rng) for _ in range(4)]
        cases += [self.rotated(rng, lam) for lam in self.LAMBDA_MIN]
        # zero first and second pivots, which leave 0/0 in the later ones,
        # and a negative first pivot
        cases += [np.diag([-half, 0.4, 0.6 + half]).astype(complex),
                  np.diag([0.4, -half, 0.6 + half]).astype(complex),
                  np.diag([-self.M, 0.4, 0.6 + self.M]).astype(complex)]
        return [self.stack(rng, case) for case in cases]

    def test_same_decision_as_eigvalsh(self):
        s = static_schedule(100.0, 100.0, 1000.0)
        fr = frame(s, np.linspace(0.0, 1.0, 7))
        margins = (self.M, 10 * evolution.PURITY_TOL)
        raised = []
        for rho in self.samples():
            eigmin = float(np.linalg.eigvalsh(rho).min())
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                certified = evolution._pivots_positive(rho, self.M / 2)
                if eigmin < -self.M:
                    with pytest.raises(PropagationError) as info:
                        evolution._assemble(rho, fr, margins)
                    assert str(info.value) == \
                        f"negative population {eigmin:.3e}"
                else:
                    traj = evolution._assemble(rho, fr, margins)
                    # eigvalsh runs only when the pivots do not certify
                    assert ("min_eigenvalue" in vars(traj)) == (
                        not certified)
                    assert traj.min_eigenvalue == eigmin
            # the certificate is sound, and not vacuous
            assert not certified or eigmin > -self.M / 2
            assert certified or eigmin < 0.0
            raised.append(eigmin < -self.M)
        assert raised == [False] * 4 + [True, True] + [False] * 6

    def test_hermiticity_error_from_pairs(self):
        """The Hermiticity error, read from the three coherence pairs and
        the diagonal, is max |rho - rho^dag| bit for bit."""
        rng = np.random.default_rng(7)
        s = static_schedule(100.0, 100.0, 1000.0)
        fr = frame(s, np.linspace(0.0, 1.0, 7))
        rho = np.array([random_density(rng) for _ in range(7)])
        rho += 1e-11 * (rng.normal(size=rho.shape)
                        + 1j * rng.normal(size=rho.shape))
        traj = evolution._assemble(rho, fr, (self.M, 1e-9))
        assert traj.hermiticity_err_max == float(
            np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))))
        assert traj.hermiticity_err_max > 0.0

    def test_min_eigenvalue_evaluated_once(self):
        s = static_schedule(100.0, 100.0, 1000.0)
        traj = propagate(Configuration.LAMBDA, RateSet(), s, SIG11,
                         samples=5)
        assert "min_eigenvalue" not in vars(traj)
        assert traj.min_eigenvalue == float(
            np.linalg.eigvalsh(traj.rho).min())
        assert "min_eigenvalue" in vars(traj)


class TestManyOutputsPerStep:
    """A step of the segmented route that holds many output times
    evaluates all of them in one product; the steps do not depend on the
    output grid, so 4001 and 201 samples of a fig-4 point agree at the
    201 shared times."""

    @pytest.mark.parametrize("basis", evolution.BASES)
    def test_shared_rows(self, basis):
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=100.0), 1.0,
                                 "intuitive")
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.1)
        kernel = evolution._generator_kernel(s, evolution.dissipator_superop(
            lindblad_ops(Configuration.LAMBDA, rates)), basis)
        u = frame(s, 0.0).U if basis == "adiabatic" else np.eye(3)
        y0 = pack(u.conj().T @ SIG11 @ u)
        fine, coarse = (evolution._segmented(
            kernel, y0, np.linspace(0.0, 1.0, n), 1e-9, 1e-11)
            for n in (4001, 201))
        assert np.max(np.abs(fine[::20] - coarse)) <= 1e-13


class TestHarmonicWeights:
    """The dressed kernel's harmonic weights, built from the drives by
    square roots and complex products, against `harmonics` of the atan2
    angles, theta = atan2(Omega_p, Omega_c) and
    phi = atan2(2 Omega, Delta) / 2.  Zero drives engage the Rabi floor and
    keep atan2(0, 0) = 0; |Delta| / Omega reaches 1e6 with either sign."""

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
        theta = np.arctan2(sample.omega_p, sample.omega_c)
        phi = 0.5 * np.arctan2(2.0 * sample.omega, delta)
        got = evolution._harmonic_weights(*adiabatic.phasors(*drives)[:2],
                                          np.empty((23, 3))).T
        ref = parity_products(harmonics(2.0 * theta, 2), harmonics(phi, 4))
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


class TestRandomConfigurationsDefaultRoute:
    """`TestRandomConfigurations`' random schemes, orderings (static ones
    through one `_magnus4` step map), rates, peak couplings, detunings and
    bare initial states, run by the default method in both bases.  The
    invariants hold at the margins `_assemble` applies, and the two bases
    agree to 1e-6, the bound the oracle meets on the same cases."""

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
        runs = [propagate(config, rates, s, r0,
                          PropagatorSettings(basis=basis), samples=51)
                for basis, r0 in (("bare", rho0),
                                  ("adiabatic", u0.conj().T @ rho0 @ u0))]
        positivity, purity = evolution._invariant_margins(
            PropagatorSettings(), s.is_static)
        for traj in runs:
            assert traj.trace_err_max <= 10 * evolution.TRACE_TOL
            assert traj.hermiticity_err_max <= 10 * evolution.HERMITICITY_TOL
            assert traj.min_eigenvalue >= -positivity
            assert traj.purity.max() <= 1.0 + purity
            assert traj.purity.min() >= 1.0 / 3.0 - purity
        bare, dressed = runs
        assert np.max(np.abs(bare.rho - dressed.rho)) < 1e-6
