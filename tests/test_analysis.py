import math

import numpy as np
import pytest

from threelevel.adiabatic import frame
from threelevel.analysis import (compare_analytic_numeric, quadrature_solution,
                                 stability_report)
from threelevel.dissipation import Configuration, RateSet, derived_rates
from threelevel.evolution import BASES, PropagatorSettings, propagate
from threelevel.pulses import (ConstantPulse, DetuningSchedule, PulseSchedule,
                               make_stirap_schedule, theta_law_schedule)

SIG11 = np.diag([1.0, 0.0, 0.0]).astype(complex)
SIG22 = np.diag([0.0, 1.0, 0.0]).astype(complex)
TIGHT = PropagatorSettings(rel_tol=1e-10, abs_tol=1e-12)
TIGHT_DRESSED = PropagatorSettings(rel_tol=1e-10, abs_tol=1e-12,
                                   basis="adiabatic")

FIG2_RATES = {0.005: RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01),
              0.05: RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.1)}


def purity(rho):
    """Tr(rho^2); 1 for pure states, 1/3 for the maximally mixed state."""
    return float(np.trace(rho @ rho).real)


class TestPurity:
    def test_pure_state(self):
        psi = np.array([0.6, 0.8j, 0.0])
        assert purity(np.outer(psi, psi.conj())) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert purity(np.eye(3) / 3.0) == pytest.approx(1.0 / 3.0)

    def test_two_level_mixture(self):
        assert purity(np.diag([0.5, 0.5, 0.0])) == pytest.approx(0.5)

    def test_trajectory_purity_is_trace_of_square(self):
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=300.0), 1.0,
                                 "intuitive")
        traj = propagate(Configuration.LAMBDA, FIG2_RATES[0.05], s, SIG11,
                         samples=21)
        np.testing.assert_allclose(traj.purity,
                                   [purity(rho) for rho in traj.rho],
                                   rtol=1e-14)


class TestAdiabaticPopulations:
    def test_pure_dressed_state(self):
        s = make_stirap_schedule(80.0, DetuningSchedule(delta0=600.0), 1.0,
                                 "static")
        u = frame(s, 0.0).U
        rho0 = np.outer(u[:, 1], u[:, 1].conj())
        traj = propagate(Configuration.LAMBDA, RateSet(), s, rho0,
                         TIGHT, samples=11)
        np.testing.assert_allclose(traj.pops_adiabatic[0], [0.0, 1.0, 0.0],
                                   atol=1e-10)

    def test_drives_off_matches_bare(self):
        s = PulseSchedule(ConstantPulse(0.0), ConstantPulse(0.0),
                          DetuningSchedule("constant", 40.0), 1.0, 1e-12)
        rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        traj = propagate(Configuration.LAMBDA, RateSet(), s, rho0,
                         TIGHT, samples=11)
        np.testing.assert_allclose(traj.pops_adiabatic,
                                   traj.pops_bare, atol=1e-9)

    def test_populations_sum_to_one(self):
        rates = FIG2_RATES[0.005]
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "counterintuitive")
        traj = propagate(Configuration.LAMBDA, rates, s, SIG11,
                         samples=101)
        sums = traj.pops_adiabatic.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-8)

    def test_dark_population_stays_high_in_slow_sweep_regime(self):
        """Constant-coupling schedule obeying the ground-coherence law: the
        dark-state population stays above 0.95 throughout."""
        rates = FIG2_RATES[0.005]
        der = derived_rates(Configuration.LAMBDA, rates)
        s = theta_law_schedule(np.pi / 8, der.gamma_c, 0.5,
                               math.hypot(100.0, 100.0), 1.0, delta=1000.0)
        traj = propagate(Configuration.LAMBDA, rates, s, SIG11,
                         TIGHT_DRESSED, samples=101)
        assert traj.pops_adiabatic[:, 0].min() > 0.95


class TestQuadratures:
    def test_cumulative_trapezoid_matches_scipy(self):
        """The numpy trapezoid rule gives scipy's values bit for bit, on a
        non-uniform grid, for real and complex integrands."""
        from scipy.integrate import cumulative_trapezoid
        from threelevel.analysis import _cumulative_trapezoid
        rng = np.random.default_rng(7)
        grid = np.sort(rng.uniform(0.0, 1.0, 101))
        for y in (rng.normal(size=101),
                  rng.normal(size=101) + 1j * rng.normal(size=101)):
            np.testing.assert_array_equal(
                _cumulative_trapezoid(y, grid),
                cumulative_trapezoid(y, grid, initial=0.0))

    def test_zero_rate_dark_population_constant(self):
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "counterintuitive")
        der = derived_rates(Configuration.LAMBDA, RateSet(gamma1=0.5,
                                                          gamma2=0.5))
        grid = np.linspace(0.0, 1.0, 8001)
        est = quadrature_solution("dark_R11", s, der, grid)
        np.testing.assert_array_equal(est.values, np.ones_like(grid))

    def test_constant_pi_over_4_deficit(self):
        """At theta = pi/4 the deficit integral is exactly gamma_c T / 2."""
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "static")
        der = derived_rates(Configuration.LAMBDA, FIG2_RATES[0.05])
        grid = np.linspace(0.0, 1.0, 8001)
        est = quadrature_solution("dark_R11", s, der, grid)
        assert est.values[-1] == pytest.approx(1.0 - 0.05 / 2.0, abs=1e-12)

    def test_third_state_linear_decay(self):
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "static")
        der = derived_rates(Configuration.LAMBDA, FIG2_RATES[0.005])
        grid = np.linspace(0.0, 0.1, 4001)
        est = quadrature_solution("third_R33", s, der, grid)
        assert est.values[-1] == pytest.approx(1.0 - der.gamma_total * 0.1)
        assert est.values[-1] == pytest.approx(0.9)

    def test_under_resolved_grid_rejected(self):
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "static")
        der = derived_rates(Configuration.LAMBDA, FIG2_RATES[0.005])
        with pytest.raises(ValueError):
            quadrature_solution("dark_R21", s, der, np.linspace(0, 1, 50))

    def test_unknown_kind_rejected(self):
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "static")
        der = derived_rates(Configuration.LAMBDA, FIG2_RATES[0.005])
        with pytest.raises(ValueError):
            quadrature_solution("dark_R99", s, der, np.linspace(0, 1, 8001))

    def test_b_state_deficit_mirrors_dark(self):
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "counterintuitive")
        der = derived_rates(Configuration.LAMBDA, FIG2_RATES[0.005])
        grid = np.linspace(0.0, 1.0, 8001)
        dark = quadrature_solution("dark_R11", s, der, grid)
        bright = quadrature_solution("b_R22", s, der, grid)
        np.testing.assert_allclose(dark.values, bright.values, atol=1e-14)


class TestOscillatoryQuadratures:
    def test_static_closed_form_oracle(self):
        """On a static schedule the 3-2 integrand and phase rate are
        constant, so the integral has the closed form
        f * (exp(i beta t) - 1) / (i beta)."""
        rates = FIG2_RATES[0.05]
        der = derived_rates(Configuration.LAMBDA, rates)
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 0.2,
                                 "static")
        fr = frame(s, 0.0)
        beta = fr.lam[2] - fr.lam[1]
        f = 0.25 * der.gamma_c * math.sin(2 * fr.theta) ** 2 \
            * math.sin(2 * fr.phi)
        grid = np.linspace(0.0, 0.2, 16001)
        est = quadrature_solution("dark_R32", s, der, grid)
        exact = f * (np.exp(1j * beta * grid) - 1.0) / (1j * beta)
        np.testing.assert_allclose(est.values, exact, atol=1e-9)
        # conjugate-phase variant used by the bright-state solutions
        est_b = quadrature_solution("b_R31", s, der, grid)
        f_b = der.gamma_c * fr.phi * math.sin(fr.theta) ** 2 \
            * math.cos(fr.theta) ** 2
        exact_b = f_b * (np.exp(-1j * fr.lam[2] * grid) - 1.0) \
            / (-1j * fr.lam[2])
        np.testing.assert_allclose(est_b.values, exact_b, atol=1e-9)

    def test_pi_over_4_hold_has_no_coherence_drive(self):
        """sin(4 theta) vanishes at theta = pi/4, so the 2-1 and 3-1
        quadratures are identically zero and the propagated coherences stay
        at numerical zero."""
        rates = FIG2_RATES[0.005]
        der = derived_rates(Configuration.LAMBDA, rates)
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 0.1,
                                 "static")
        grid = np.linspace(0.0, 0.1, 8001)
        for which in ("dark_R21", "dark_R31"):
            est = quadrature_solution(which, s, der, grid)
            assert np.max(np.abs(est.values)) < 1e-18
        traj = propagate(Configuration.LAMBDA, rates, s, SIG11,
                         TIGHT_DRESSED, samples=201)
        assert np.max(np.abs(traj.R[:, 1, 0])) < 1e-8
        assert np.max(np.abs(traj.R[:, 2, 0])) < 1e-8

    def test_bright_32_coherence_against_numerics(self):
        """The dominant bright-state 3-2 coherence is reproduced by the
        quadrature to a few percent on a short static hold."""
        rates = FIG2_RATES[0.005]
        der = derived_rates(Configuration.LAMBDA, rates)
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 0.1,
                                 "static")
        traj = propagate(Configuration.LAMBDA, rates, s, SIG22,
                         TIGHT_DRESSED, samples=401)
        dev = compare_analytic_numeric("b_R32", traj, s, der)
        grid = np.linspace(0.0, 0.1, 8001)
        scale = np.max(np.abs(quadrature_solution("b_R32", s, der,
                                                  grid).values))
        assert scale > 1e-5
        assert dev < 0.05 * scale

    def test_theta_law_suppresses_21_coherence(self):
        """The schedule built to cancel the 2-1 integrand leaves only a
        second-order residual in the propagated coherence."""
        rates = FIG2_RATES[0.005]
        der = derived_rates(Configuration.LAMBDA, rates)
        s = theta_law_schedule(np.pi / 8, der.gamma_c, 0.5,
                               math.hypot(100.0, 100.0), 1.0, delta=1000.0)
        grid = np.linspace(0.0, 1.0, 8001)
        est = quadrature_solution("dark_R21", s, der, grid)
        assert np.max(np.abs(est.values)) < 1e-18
        traj = propagate(Configuration.LAMBDA, rates, s, SIG11,
                         TIGHT_DRESSED, samples=201)
        assert np.max(np.abs(traj.R[:, 1, 0])) < 1e-3


class TestCompareAnalyticNumeric:
    def test_closed_static_dark_state(self):
        """gamma_c = 0 closed system: both pipelines are constant."""
        rates = RateSet(gamma1=0.5, gamma2=0.5)
        der = derived_rates(Configuration.LAMBDA, rates)
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "static")
        traj = propagate(Configuration.LAMBDA, RateSet(), s, SIG11,
                         TIGHT_DRESSED, samples=201)
        assert compare_analytic_numeric("dark_R11", traj, s, der) < 1e-6

    def test_dark_state_slow_sweep(self):
        """Constant-coupling ground-coherence-law schedule at the standard
        transfer parameters: quadrature within 0.01 of full numerics."""
        rates = FIG2_RATES[0.005]
        der = derived_rates(Configuration.LAMBDA, rates)
        s = theta_law_schedule(np.pi / 8, der.gamma_c, 0.5,
                               math.hypot(100.0, 100.0), 1.0, delta=1000.0)
        traj = propagate(Configuration.LAMBDA, rates, s, SIG11,
                         TIGHT_DRESSED, samples=401)
        assert compare_analytic_numeric("dark_R11", traj, s, der) < 0.01

    def test_bright_state_large_detuning(self):
        """Bright-state hold in the large-detuning stability regime."""
        rates = FIG2_RATES[0.005]
        der = derived_rates(Configuration.LAMBDA, rates)
        s = theta_law_schedule(np.pi / 8, der.gamma_c, 0.5,
                               math.hypot(100.0, 100.0), 1.0, delta=1500.0)
        traj = propagate(Configuration.LAMBDA, rates, s, SIG22,
                         TIGHT_DRESSED, samples=401)
        assert compare_analytic_numeric("b_R22", traj, s, der) < 0.02


class TestMirrorSymmetry:
    def test_dark_and_bright_deficits_agree_under_time_reflection(self):
        """Counterintuitive dark-state runs and intuitive bright-state runs
        are exact mirrors for the coherent dynamics, so the final deficits
        agree far better than either deficit's own size."""
        rates = FIG2_RATES[0.005]
        settings = PropagatorSettings(rel_tol=1e-9, abs_tol=1e-11,
                                      basis="adiabatic")
        ci = make_stirap_schedule(100.0, DetuningSchedule(delta0=5000.0), 1.0,
                                  "counterintuitive")
        it = make_stirap_schedule(100.0, DetuningSchedule(delta0=5000.0), 1.0,
                                  "intuitive")
        dark = propagate(Configuration.LAMBDA, rates, ci, SIG11,
                         settings, samples=101)
        bright = propagate(Configuration.LAMBDA, rates, it, SIG22,
                           settings, samples=101)
        d1 = 1.0 - dark.R[-1, 0, 0].real
        d2 = 1.0 - bright.R[-1, 1, 1].real
        assert abs(d1 - d2) < 1e-3


class TestShapedDetuningSuppression:
    def test_bright_coherence_suppressed(self):
        """The shaped detuning law cancels the dominant 3-2 coherence drive;
        at least a factor two below the equal-mean constant detuning."""
        rates = FIG2_RATES[0.005]
        der = derived_rates(Configuration.LAMBDA, rates)
        omega = math.hypot(100.0, 100.0)
        shaped = DetuningSchedule(kind="shaped", delta0=1000.0 / omega,
                                  gamma1=der.Gamma1, t0=0.0)
        s_shaped = make_stirap_schedule(100.0, shaped, 1.0, "static")
        grid = np.linspace(0.0, 1.0, 2001)
        mean_delta = np.trapezoid(s_shaped.delta(grid)[0], grid)
        const = DetuningSchedule(delta0=float(mean_delta))
        s_const = make_stirap_schedule(100.0, const, 1.0, "static")
        run = lambda sched: propagate(
            Configuration.LAMBDA, rates, sched, SIG22, TIGHT_DRESSED,
            samples=101)
        r32_shaped = abs(run(s_shaped).R[-1, 2, 1])
        r32_const = abs(run(s_const).R[-1, 2, 1])
        assert r32_shaped <= 0.5 * r32_const


class TestBrightStateStability:
    def test_final_transfer_monotone_in_gamma_c(self):
        """Bright-state survival decreases as the ground-coherence decay
        rate grows."""
        finals = []
        for gc_T in (0.005, 0.01, 0.05):
            rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=2 * gc_T)
            s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0),
                                     1.0, "intuitive")
            traj = propagate(Configuration.LAMBDA, rates, s, SIG11,
                             PropagatorSettings(), samples=101)
            finals.append(traj.pops_bare[-1, 1])
        assert finals[0] >= finals[1] >= finals[2]

    def test_transfer_purity_stays_high(self):
        rates = FIG2_RATES[0.005]
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "counterintuitive")
        traj = propagate(Configuration.LAMBDA, rates, s, SIG11,
                         PropagatorSettings(), samples=201)
        assert traj.purity.min() > 0.9
        assert traj.purity[-1] > 0.9


class TestConfigurationHierarchy:
    def test_transfer_quality_orders_lambda_xi_v(self):
        """With identical raw rates the ground-coherence decay grows from
        the lambda scheme (pure dephasing only) through the ladder to the
        vee scheme (sum of both optical widths), and the transfer quality
        drops accordingly."""
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01)
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "counterintuitive")
        finals = {}
        for config in Configuration:
            traj = propagate(config, rates, s, SIG11,
                             PropagatorSettings(), samples=101)
            finals[config] = float(traj.pops_bare[-1, 1])
        gcs = {c: derived_rates(c, rates).gamma_c for c in Configuration}
        assert gcs[Configuration.LAMBDA] < gcs[Configuration.XI] \
            < gcs[Configuration.V]
        assert finals[Configuration.LAMBDA] > finals[Configuration.XI] \
            > finals[Configuration.V]
        assert finals[Configuration.LAMBDA] - finals[Configuration.V] > 0.05


class TestStabilityReport:
    def test_standard_transfer_parameters_pass(self):
        rates = FIG2_RATES[0.005]
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "static")
        report = stability_report(Configuration.LAMBDA, rates, s)
        assert report.gc_T == pytest.approx(0.005)
        omega = math.hypot(100.0, 100.0)
        assert report.adiab1 == pytest.approx(math.hypot(1000.0, 2 * omega))
        assert report.adiab2 == pytest.approx(omega ** 2 / 1000.0)
        assert report.adiab2 == pytest.approx(20.0)
        assert report.gamma1_over_delta == pytest.approx(5e-4)
        assert report.all_pass

    def test_large_gamma_c_fails_first_condition(self):
        rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=1.0)
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "static")
        report = stability_report(Configuration.LAMBDA, rates, s)
        assert report.gc_T == pytest.approx(0.5)
        assert report.verdicts["gc_T_much_less_1"] is False

    def test_weak_drive_fails_second_adiabatic_condition(self):
        rates = FIG2_RATES[0.005]
        s = make_stirap_schedule(math.sqrt(1000.0 / 2.0),
                                 DetuningSchedule(delta0=1000.0), 1.0,
                                 "static")
        report = stability_report(Configuration.LAMBDA, rates, s)
        assert report.adiab2 == pytest.approx(1.0)
        assert report.verdicts["adiab2_much_greater_1"] is False

    def test_zero_detuning_reciprocal_semantics(self):
        rates = FIG2_RATES[0.005]
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=0.0), 1.0,
                                 "static")
        report = stability_report(Configuration.LAMBDA, rates, s)
        assert report.delta_at_peak == 0.0
        assert report.adiab2 == math.inf
        assert report.verdicts["adiab2_much_greater_1"] is True
        assert report.gamma1_over_delta == math.inf
        assert report.verdicts["gamma1_much_less_delta"] is False


class TestHadamardFidelity:
    """At theta = pi/4 the dark state is (|1> - |2>)/sqrt(2), so the
    fidelity of a hold of that superposition is the dressed population
    R11."""

    @staticmethod
    def hold_r11(rates, basis):
        s = make_stirap_schedule(100.0, DetuningSchedule(delta0=1000.0), 1.0,
                                 "static")
        psi = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        u = frame(s, 0.0).U if basis == "adiabatic" else np.eye(3)
        rho0 = u.conj().T @ np.outer(psi, psi.conj()) @ u
        traj = propagate(Configuration.LAMBDA, rates, s, rho0,
                         PropagatorSettings(basis=basis), samples=401)
        return traj.times, traj.pops_adiabatic[:, 0]

    def test_closed_hold_is_exact(self):
        for basis in BASES:
            _, r11 = self.hold_r11(RateSet(), basis)
            np.testing.assert_allclose(r11, 1.0, atol=1e-8, err_msg=basis)

    def test_decay_crossing_time(self):
        """R11 = 1/2 + exp(-gamma_c t)/2 crosses 0.99 near
        gamma_c t = 0.02, in either basis."""
        rates = FIG2_RATES[0.05]
        der = derived_rates(Configuration.LAMBDA, rates)
        for basis in BASES:
            times, r11 = self.hold_r11(rates, basis)
            k = int(np.argmax(r11 < 0.99))
            assert k > 0, basis
            t_cross = np.interp(0.99, r11[[k, k - 1]], times[[k, k - 1]])
            assert 0.01 < der.gamma_c * t_cross < 0.04, basis
            expected = 0.5 + 0.5 * np.exp(-der.gamma_c * times)
            np.testing.assert_allclose(r11, expected, atol=1e-3,
                                       err_msg=basis)
