import math

import numpy as np
import pytest

from threelevel.pulses import (ConstantPulse, DetuningSchedule, GaussianPulse,
                               ThetaLawPulse, make_stirap_schedule,
                               theta_law_schedule)


class TestGaussianPulse:
    def test_peak_point(self):
        p = GaussianPulse(peak=100.0, center=0.5, width=0.1)
        value, deriv = p.value(0.5), p.derivative(0.5)
        assert value == pytest.approx(100.0)
        assert deriv == pytest.approx(0.0)

    def test_one_width_off_peak(self):
        p = GaussianPulse(peak=100.0, center=0.5, width=0.1)
        value = p.value(0.6)
        assert value == pytest.approx(100.0 * math.exp(-1.0))

    def test_zero_peak(self):
        p = GaussianPulse(peak=0.0, center=0.5, width=0.1)
        ts = np.linspace(-1.0, 2.0, 17)
        np.testing.assert_array_equal(p.value(ts), np.zeros_like(ts))

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            GaussianPulse(peak=1.0, center=0.0, width=0.0)


class TestAnalyticDerivatives:
    """Central finite differences validate every envelope's derivative."""

    @pytest.mark.parametrize("pulse", [
        GaussianPulse(peak=100.0, center=0.45, width=0.12),
        ConstantPulse(level=7.0),
        ThetaLawPulse(theta0=np.pi / 8, gamma_c=0.8, t0=0.3, omega=50.0,
                      component="sin"),
        ThetaLawPulse(theta0=np.pi / 8, gamma_c=0.8, t0=0.3, omega=50.0,
                      component="cos"),
    ])
    def test_derivative_matches_finite_difference(self, pulse):
        rng = np.random.default_rng(23)
        h = 1e-6
        for t in rng.uniform(0.0, 1.0, size=100):
            fd = (pulse.value(t + h) - pulse.value(t - h)) / (2 * h)
            exact = pulse.derivative(t)
            scale = max(abs(fd), abs(exact), 1e-9)
            assert abs(fd - exact) / scale < 1e-6


class TestStirapSchedule:
    def test_counterintuitive_ordering(self):
        s = make_stirap_schedule(100.0, 1000.0, 1.0, "counterintuitive")
        assert s.stokes.center < s.pump.center

    def test_intuitive_ordering(self):
        s = make_stirap_schedule(100.0, 1000.0, 1.0, "intuitive")
        assert s.pump.center < s.stokes.center

    def test_static_gives_constant_pi_over_4(self):
        s = make_stirap_schedule(100.0, 1000.0, 1.0, "static")
        for t in np.linspace(0.0, 1.0, 9):
            sample = s.rabi(t)
            theta = np.arctan2(sample.omega_p, sample.omega_c)
            assert theta == pytest.approx(np.pi / 4, abs=1e-15)

    def test_mirrored_envelopes(self):
        # Swapping the ordering exchanges the two envelopes pointwise, and
        # within one schedule time reflection about T/2 exchanges them too.
        ci = make_stirap_schedule(100.0, 1000.0, 1.0, "counterintuitive")
        it = make_stirap_schedule(100.0, 1000.0, 1.0, "intuitive")
        ts = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(ci.pump.value(ts), it.stokes.value(ts),
                                   atol=1e-12)
        np.testing.assert_allclose(ci.pump.value(ts),
                                   ci.stokes.value(1.0 - ts), atol=1e-12)
        np.testing.assert_allclose(ci.pump.value(ts),
                                   it.pump.value(1.0 - ts), atol=1e-12)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            make_stirap_schedule(100.0, 1000.0, 0.0, "counterintuitive")

    def test_invalid_ordering(self):
        with pytest.raises(ValueError):
            make_stirap_schedule(100.0, 1000.0, 1.0, "sideways")

    def test_no_clamping_outside_horizon(self):
        s = make_stirap_schedule(100.0, 0.0, 1.0, "counterintuitive")
        outside = float(s.pump.value(1.3))
        expected = 100.0 * math.exp(-((1.3 - s.pump.center)
                                      / s.pump.width) ** 2)
        assert outside == pytest.approx(expected)


class TestThetaLaw:
    def test_zero_rate_freezes_theta(self):
        s = theta_law_schedule(np.pi / 8, 0.0, 0.0, 100.0, 1.0)
        ts = np.linspace(0.0, 1.0, 33)
        theta = np.arctan2(s.pump.value(ts), s.stokes.value(ts))
        np.testing.assert_allclose(theta, np.pi / 8, atol=1e-14)

    def test_tan_doubling(self):
        """After tan(2 theta) doubles, theta = atan(2)/2."""
        gamma_c = 0.5
        t0 = 0.0
        s = theta_law_schedule(np.pi / 8, gamma_c, t0, 100.0, 2.0)
        t_double = math.log(2.0) / gamma_c
        sample = s.rabi(t_double)
        theta = math.atan2(float(sample.omega_p), float(sample.omega_c))
        assert theta == pytest.approx(0.5 * math.atan(2.0), abs=1e-12)

    def test_total_coupling_identity(self):
        s = theta_law_schedule(np.pi / 8, 0.7, 0.2, 42.0, 1.0)
        ts = np.linspace(0.0, 1.0, 57)
        total = s.pump.value(ts) ** 2 + s.stokes.value(ts) ** 2
        np.testing.assert_allclose(total, 42.0 ** 2, rtol=1e-13)

    def test_theta_dot_cancels_coherence_drive(self):
        # theta' = (gamma_c/4) sin(4 theta) is the defining property
        s = theta_law_schedule(np.pi / 8, 0.3, 0.1, 10.0, 1.0)
        for t in (0.0, 0.4, 0.9):
            sample = s.rabi(t)
            theta = math.atan2(float(sample.omega_p), float(sample.omega_c))
            theta_dot = (float(sample.domega_p) * float(sample.omega_c)
                         - float(sample.omega_p) * float(sample.domega_c)) \
                / float(sample.omega) ** 2
            assert theta_dot == pytest.approx(
                0.25 * 0.3 * math.sin(4 * theta), rel=1e-10)

    def test_invalid_theta0(self):
        with pytest.raises(ValueError):
            theta_law_schedule(np.pi / 2, 0.1, 0.0, 10.0, 1.0)


class TestDetuning:
    def test_shaped_constant_coupling_zero_rate(self):
        d = DetuningSchedule(kind="shaped", delta0=5.0, gamma1=0.0, t0=0.0)
        s = make_stirap_schedule(1.0, 0.0, 1.0, "static", detuning=d)
        value, _ = s.delta(0.7)
        assert float(value) == pytest.approx(5.0 * math.hypot(1.0, 1.0))

    def test_shaped_at_reference_time(self):
        d = DetuningSchedule(kind="shaped", delta0=3.0, gamma1=2.0, t0=0.4)
        s = make_stirap_schedule(1.0, 0.0, 1.0, "static", detuning=d)
        assert float(s.delta(0.4)[0]) == pytest.approx(
            3.0 * math.hypot(1.0, 1.0))

    def test_shaped_log_two_growth(self):
        gamma1 = 1.0
        t = math.log(2.0)
        d = DetuningSchedule(kind="shaped", delta0=4.0, gamma1=gamma1, t0=0.0)
        s = make_stirap_schedule(1.0, 0.0, 2.0, "static", detuning=d)
        omega = math.hypot(1.0, 1.0)
        assert float(s.delta(t)[0]) == pytest.approx(
            2.0 * 4.0 * omega)

    def test_negative_gamma1_rejected(self):
        with pytest.raises(ValueError):
            DetuningSchedule(kind="shaped", delta0=1.0, gamma1=-0.1)

    def test_schedule_delta_derivative(self):
        d = DetuningSchedule(kind="shaped", delta0=2.0, gamma1=0.8, t0=0.1)
        s = make_stirap_schedule(50.0, 0.0, 1.0, "counterintuitive",
                                 detuning=d)
        h = 1e-6
        for t in (0.2, 0.5, 0.8):
            v_plus = float(s.delta(t + h)[0])
            v_minus = float(s.delta(t - h)[0])
            fd = (v_plus - v_minus) / (2 * h)
            assert fd == pytest.approx(float(s.delta(t)[1]), rel=1e-5)


class TestFloor:
    def test_floor_flag_engages(self):
        s = make_stirap_schedule(1.0, 0.0, 1.0, "counterintuitive",
                                 width=0.01, delay=0.004)
        sample = s.rabi(-30.0)   # both envelopes underflow to zero
        assert bool(sample.floor_engaged)
        assert float(sample.omega) == pytest.approx(s.floor_omega)

    def test_zero_coupling_without_floor_raises(self):
        from threelevel.pulses import PulseSchedule
        s = PulseSchedule(ConstantPulse(0.0), ConstantPulse(0.0),
                          DetuningSchedule("constant", 1.0), 1.0, "static",
                          0.0)
        with pytest.raises(ValueError):
            s.rabi(0.5)
