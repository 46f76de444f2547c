import numpy as np
import pytest

from threelevel.adiabatic import frame
from threelevel.dissipation import (Configuration, DerivedRates, RateSet,
                                    derived_rates, dissipator, ketbra,
                                    lindblad_ops)
from threelevel.evolution import PropagatorSettings, propagate
from threelevel.pulses import (ConstantPulse, DetuningSchedule, PulseSchedule,
                               make_stirap_schedule)


def random_density(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def drives_off_schedule(horizon):
    return PulseSchedule(ConstantPulse(0.0), ConstantPulse(0.0),
                         DetuningSchedule("constant", 0.0), horizon, 1e-9)


class TestAlgebra:
    def test_transition_operator_commutator(self):
        """[|1><3|, |3><1|] expands to |1><1| - |3><3|."""
        a, b = ketbra(1, 3), ketbra(3, 1)
        np.testing.assert_array_equal(a @ b - b @ a,
                                      ketbra(1, 1) - ketbra(3, 3))

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 4)])
    def test_level_index_out_of_range(self, i, j):
        with pytest.raises(ValueError, match="level indices"):
            ketbra(i, j)


class TestLindbladOps:
    def test_lambda_single_channel(self):
        ops = lindblad_ops(Configuration.LAMBDA, RateSet(gamma1=1.0))
        assert len(ops) == 1
        np.testing.assert_array_equal(ops[0], ketbra(1, 3))

    def test_all_rates_zero(self):
        assert lindblad_ops(Configuration.LAMBDA, RateSet()) == []

    def test_v_scaling(self):
        ops = lindblad_ops(Configuration.V, RateSet(gamma1=4.0))
        assert len(ops) == 1
        np.testing.assert_array_equal(ops[0], 2.0 * ketbra(3, 1))

    def test_xi_lowering_default(self):
        ops = lindblad_ops(Configuration.XI, RateSet(gamma2=1.0))
        np.testing.assert_array_equal(ops[0], ketbra(3, 2))

    def test_xi_verbatim_projector(self):
        ops = lindblad_ops(Configuration.XI, RateSet(gamma2=1.0),
                           xi_appendix_verbatim=True)
        np.testing.assert_array_equal(ops[0], ketbra(2, 2))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RateSet(gamma1=-0.5)

    @pytest.mark.parametrize("name", ["gamma1", "gamma2", "gamma1_deph",
                                      "gamma2_deph", "gamma3_deph"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, name, value):
        """A nan rate would otherwise drop out of `lindblad_ops` silently."""
        with pytest.raises(ValueError, match=name):
            RateSet(**{name: value})


class TestDissipator:
    def test_lambda_on_excited_projector(self):
        """Hand-expanded action on |3><3|: feed the two ground levels and
        drain level 3."""
        g1, g2 = 0.7, 0.4
        ops = lindblad_ops(Configuration.LAMBDA, RateSet(gamma1=g1, gamma2=g2))
        out = dissipator(ops, ketbra(3, 3))
        expected = g1 * ketbra(1, 1) + g2 * ketbra(2, 2) \
            - (g1 + g2) * ketbra(3, 3)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_pure_dephasing_kills_nothing_diagonal(self):
        ops = lindblad_ops(Configuration.LAMBDA,
                           RateSet(gamma2_deph=0.5, gamma3_deph=0.2))
        rho = np.diag([1.0, 1.0, 1.0]).astype(complex) / 3.0
        np.testing.assert_allclose(dissipator(ops, rho), np.zeros((3, 3)),
                                   atol=1e-15)

    @pytest.mark.parametrize("config", list(Configuration))
    def test_trace_and_hermiticity_preserved(self, config):
        rng = np.random.default_rng(43)
        rates = RateSet(gamma1=0.3, gamma2=0.7, gamma1_deph=0.1,
                        gamma2_deph=0.2, gamma3_deph=0.4)
        ops = lindblad_ops(config, rates)
        for _ in range(100):
            rho = random_density(rng)
            out = dissipator(ops, rho)
            assert abs(np.trace(out)) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12


def dressed_dissipator(config, rates, u, big_r):
    """Dissipator on a dressed-basis R, from the jump operators U^dag L U."""
    return dissipator([u.conj().T @ op @ u
                       for op in lindblad_ops(config, rates)], big_r)


class TestAdiabaticDissipator:
    def test_identity_frame_reduces_to_bare(self):
        # drives off at positive detuning: theta -> 0 and phi -> 0, so the
        # dressed frame coincides with the bare basis
        s = PulseSchedule(ConstantPulse(0.0), ConstantPulse(0.0),
                          DetuningSchedule("constant", 5.0), 1.0, 1e-12)
        fr = frame(s, 0.0)
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.1)
        rng = np.random.default_rng(47)
        rho = random_density(rng)
        np.testing.assert_allclose(fr.U, np.eye(3), atol=1e-11)
        bare = dissipator(lindblad_ops(Configuration.LAMBDA, rates), rho)
        adia = dressed_dissipator(Configuration.LAMBDA, rates, fr.U, rho)
        np.testing.assert_allclose(adia, bare, atol=1e-10)

    @pytest.mark.parametrize("config", list(Configuration))
    def test_transform_consistency(self, config):
        """Equals U^dag D(U R U^dag) U with the bare dissipator as oracle."""
        rng = np.random.default_rng(53)
        rates = RateSet(gamma1=0.4, gamma2=0.6, gamma1_deph=0.15,
                        gamma2_deph=0.25, gamma3_deph=0.1)
        ops = lindblad_ops(config, rates)
        s = make_stirap_schedule(90.0, DetuningSchedule(delta0=800.0), 1.0,
                                 "counterintuitive")
        for t in (0.2, 0.5, 0.8):
            fr = frame(s, t)
            big_r = random_density(rng)
            direct = dressed_dissipator(config, rates, fr.U, big_r)
            rho = fr.U @ big_r @ fr.U.conj().T
            oracle = fr.U.conj().T @ dissipator(ops, rho) @ fr.U
            np.testing.assert_allclose(direct, oracle, atol=1e-10)

    def test_dark_state_insensitive_to_upper_decay(self):
        """With no ground dephasing the dark dressed state is a fixed point
        of the dissipator."""
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.0)
        s = make_stirap_schedule(70.0, DetuningSchedule(delta0=900.0), 1.0,
                                 "static")
        fr = frame(s, 0.5)
        out = dressed_dissipator(Configuration.LAMBDA, rates, fr.U,
                                 ketbra(1, 1))
        np.testing.assert_allclose(out, np.zeros((3, 3)), atol=1e-13)


class TestDerivedRates:
    def test_lambda_worked_example(self):
        der = derived_rates(Configuration.LAMBDA,
                            RateSet(gamma1=0.5, gamma2=0.5,
                                    gamma2_deph=0.01))
        assert der.Gamma1 == pytest.approx(0.5)
        assert der.Gamma2 == pytest.approx(0.505)
        assert der.gamma_c == pytest.approx(0.005)
        assert der.gamma_total == pytest.approx(1.0)

    def test_all_zero(self):
        der = derived_rates(Configuration.LAMBDA, RateSet())
        assert der == DerivedRates(0.0, 0.0, 0.0, 0.0)

    def test_v_sum_rule(self):
        der = derived_rates(Configuration.V, RateSet(gamma1=1.0, gamma2=1.0))
        assert der.gamma_c == pytest.approx(der.Gamma1 + der.Gamma2)
        assert der.gamma_c == pytest.approx(1.0)
        assert der.gamma_total == 0.0

    def test_xi_closed_forms(self):
        rates = RateSet(gamma1=0.4, gamma2=0.6, gamma2_deph=0.2,
                        gamma3_deph=0.1)
        der = derived_rates(Configuration.XI, rates)
        assert der.Gamma1 == pytest.approx(0.25)
        assert der.Gamma2 == pytest.approx(0.65)
        assert der.gamma_c == pytest.approx(der.Gamma2 - der.Gamma1)
        assert der.gamma_total == pytest.approx(0.4)


class TestRateFits:
    """Exponential fits of propagated coherences against the closed forms."""

    settings = PropagatorSettings(rel_tol=1e-10, abs_tol=1e-12)

    def fit_decay(self, config, rates, i, j, horizon,
                  xi_appendix_verbatim=False):
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[i, i] = rho0[j, j] = 0.5
        rho0[i, j] = rho0[j, i] = 0.25
        traj = propagate(config, rates, drives_off_schedule(horizon),
                         rho0, self.settings, samples=101,
                         xi_appendix_verbatim=xi_appendix_verbatim)
        coherence = np.abs(traj.rho[:, i, j])
        slope = np.polyfit(traj.times, np.log(coherence), 1)[0]
        return -slope

    @pytest.mark.parametrize("config", list(Configuration))
    def test_gamma_c_fit(self, config):
        rates = RateSet(gamma1=0.4, gamma2=0.6, gamma1_deph=0.15,
                        gamma2_deph=0.25, gamma3_deph=0.1)
        der = derived_rates(config, rates)
        fitted = self.fit_decay(config, rates, 0, 1, 1.0 / der.gamma_c)
        assert fitted == pytest.approx(der.gamma_c, rel=0.01)

    @pytest.mark.parametrize("config", list(Configuration))
    def test_gamma1_fit(self, config):
        rates = RateSet(gamma1=0.4, gamma2=0.6, gamma1_deph=0.15,
                        gamma2_deph=0.25, gamma3_deph=0.1)
        der = derived_rates(config, rates)
        fitted = self.fit_decay(config, rates, 2, 0, 1.0 / der.Gamma1)
        assert fitted == pytest.approx(der.Gamma1, rel=0.01)

    def test_xi_verbatim_same_coherence_rates(self):
        """The projector form changes populations only; the fitted 1-2 and
        3-1 coherence rates are identical to the lowering form."""
        rates = RateSet(gamma1=0.4, gamma2=0.6, gamma2_deph=0.2)
        der = derived_rates(Configuration.XI, rates)
        fitted = self.fit_decay(Configuration.XI, rates, 0, 1,
                                1.0 / der.gamma_c, xi_appendix_verbatim=True)
        assert fitted == pytest.approx(der.gamma_c, rel=0.01)


class TestDarkStateImmunity:
    def test_population_frozen_without_ground_dephasing(self):
        """Static drive, gamma_c = 0: the dark-state population stays 1 to
        integrator precision out to gamma_sp * t = 10."""
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.0)
        horizon = 10.0  # gamma_sp = 1, so gamma_sp * t reaches 10
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0),
                                 horizon, "static")
        big_r0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        traj = propagate(Configuration.LAMBDA, rates, s, big_r0,
                         PropagatorSettings(rel_tol=1e-10,
                                            abs_tol=1e-12,
                                            basis="adiabatic"),
                         samples=101)
        assert np.max(np.abs(traj.R[:, 0, 0].real - 1.0)) < 1e-8
