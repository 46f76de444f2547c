"""Drive envelopes and detuning schedules with analytic time derivatives.

All quantities are dimensionless: times in units of the schedule horizon T,
frequencies (Rabi couplings, detunings, rates) in units of 1/T.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Default Gaussian geometry for the two-pulse transfer schedules.  Tuned so
# that at peak coupling 100/T and detuning 1000/T the transfer stays above
# 0.99 and the counterintuitive/intuitive orderings agree to ~0.013 in final
# transfer (see tests); both knobs are overridable per schedule.
DEFAULT_WIDTH_FRACTION = 0.44   # Gaussian width as a fraction of the horizon
DEFAULT_DELAY_FRACTION = 0.38   # center offset from T/2 as a fraction of width

FLOOR_FRACTION = 1e-9           # Rabi floor relative to the peak coupling

ORDERINGS = ("counterintuitive", "intuitive", "static")
DETUNING_KINDS = ("constant", "shaped")


def _check_finite(**values):
    """Raise ValueError naming the first value that is nan or infinite;
    None stands for a default and passes."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian envelope peak*exp(-((t-center)/width)^2)."""

    peak: float
    center: float
    width: float

    def __post_init__(self):
        _check_finite(peak=self.peak, center=self.center, width=self.width)
        if self.peak < 0:
            raise ValueError("Gaussian peak must be nonnegative")
        if self.width <= 0:
            raise ValueError("Gaussian width must be positive")

    def value(self, t):
        u = (np.asarray(t, dtype=float) - self.center) / self.width
        return self.peak * np.exp(-u * u)

    def sample(self, t):
        """Value and derivative, from one exponential."""
        u = (np.asarray(t, dtype=float) - self.center) / self.width
        value = self.peak * np.exp(-u * u)
        return value, value * (-2.0 * u / self.width)


@dataclass(frozen=True)
class ConstantPulse:
    """Flat envelope; derivative is identically zero."""

    level: float

    def __post_init__(self):
        _check_finite(level=self.level)
        if self.level < 0:
            raise ValueError("constant envelope must be nonnegative")

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.level)

    def sample(self, t):
        """Value and derivative."""
        return self.value(t), np.zeros_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ThetaLawPulse:
    """One leg of a constant-total-coupling pair with tan(2*theta) growing
    exponentially at rate gamma_c, i.e. theta' = (gamma_c/4) sin(4*theta).

    component "sin" gives omega*sin(theta(t)) (pump leg), "cos" gives
    omega*cos(theta(t)) (Stokes leg).
    """

    theta0: float
    gamma_c: float
    t0: float
    omega: float
    component: str

    def __post_init__(self):
        _check_finite(gamma_c=self.gamma_c, t0=self.t0, omega=self.omega)
        if not 0.0 < self.theta0 < math.pi / 4:
            raise ValueError("theta0 must lie strictly between 0 and pi/4")
        if self.component not in ("sin", "cos"):
            raise ValueError("component must be 'sin' or 'cos'")

    def theta(self, t):
        t = np.asarray(t, dtype=float)
        tan2 = math.tan(2.0 * self.theta0) * np.exp(self.gamma_c * (t - self.t0))
        return 0.5 * np.arctan(tan2)

    def value(self, t):
        th = self.theta(t)
        return self.omega * (np.sin(th) if self.component == "sin" else np.cos(th))

    def sample(self, t):
        """Value and derivative, from one evaluation of theta."""
        th = self.theta(t)
        dth = 0.25 * self.gamma_c * np.sin(4.0 * th)
        if self.component == "sin":
            return self.omega * np.sin(th), self.omega * np.cos(th) * dth
        return self.omega * np.cos(th), -self.omega * np.sin(th) * dth


@dataclass(frozen=True)
class DetuningSchedule:
    """Single-photon detuning: constant delta0, or the shaped law
    delta(t) = delta0 * Omega(t) * exp(gamma1*(t - t0)) that keeps the
    upper-state mixing angle decaying at rate gamma1."""

    kind: str = "constant"
    delta0: float = 0.0
    gamma1: float = 0.0
    t0: float = 0.0

    def __post_init__(self):
        _check_finite(delta0=self.delta0, gamma1=self.gamma1, t0=self.t0)
        if self.kind not in DETUNING_KINDS:
            raise ValueError(f"unknown detuning kind {self.kind!r} "
                             f"(choose from {DETUNING_KINDS})")
        if self.kind == "shaped" and self.gamma1 < 0:
            raise ValueError("shaped detuning requires gamma1 >= 0")


class PulseSample(NamedTuple):
    omega_p: np.ndarray
    omega_c: np.ndarray
    domega_p: np.ndarray
    domega_c: np.ndarray
    omega: np.ndarray
    domega: np.ndarray
    floor_engaged: np.ndarray


@dataclass(frozen=True)
class PulseSchedule:
    """Pair of drive envelopes plus a detuning law over a finite horizon.

    Envelopes are analytic (value and derivative) and are evaluated as given
    outside [0, horizon] as well; no clamping is applied.  A small floor on
    the total coupling keeps the ground-state mixing angle defined when both
    envelopes underflow; samples where it engages are flagged.
    """

    pump: object
    stokes: object
    detuning: DetuningSchedule
    horizon: float
    floor_omega: float

    def rabi(self, t) -> PulseSample:
        (op, dop), (oc, doc) = self.pump.sample(t), self.stokes.sample(t)
        omega_raw = np.hypot(op, oc)
        if self.floor_omega > 0.0:
            floor_engaged = omega_raw < self.floor_omega
            omega = np.maximum(omega_raw, self.floor_omega)
        else:
            if np.any(omega_raw == 0.0):
                raise ValueError("total coupling vanished and no floor is set")
            floor_engaged = np.zeros_like(omega_raw, dtype=bool)
            omega = omega_raw
        domega = (op * dop + oc * doc) / omega
        return PulseSample(op, oc, dop, doc, omega, domega, floor_engaged)

    def delta(self, t):
        """Detuning value and derivative at time t."""
        d = self.detuning
        if d.kind == "constant":
            t = np.asarray(t, dtype=float)
            return np.full_like(t, d.delta0), np.zeros_like(t)
        sample = self.rabi(t)
        growth = np.exp(d.gamma1 * (np.asarray(t, dtype=float) - d.t0))
        value = d.delta0 * sample.omega * growth
        deriv = d.delta0 * growth * (sample.domega + d.gamma1 * sample.omega)
        return value, deriv

    @property
    def is_static(self) -> bool:
        """True when both envelopes and the detuning are time independent."""
        return (isinstance(self.pump, ConstantPulse)
                and isinstance(self.stokes, ConstantPulse)
                and self.detuning.kind == "constant")


def make_stirap_schedule(peak_omega: float, detuning: DetuningSchedule,
                         horizon: float, ordering: str, width: float = None,
                         delay: float = None) -> PulseSchedule:
    """Two-pulse transfer schedule under the given detuning law.

    "counterintuitive" places the Stokes pulse before the pump,
    "intuitive" reverses them, and "static" uses equal constant envelopes
    (constant mixing angle pi/4).  Each Gaussian has peak peak_omega; width
    and the center offset from T/2 default to the module geometry constants.
    """
    _check_finite(peak_omega=peak_omega, horizon=horizon, width=width,
                  delay=delay)
    if not isinstance(detuning, DetuningSchedule):
        raise TypeError("detuning must be a DetuningSchedule")
    if peak_omega <= 0:
        raise ValueError("peak_omega must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}")

    floor = FLOOR_FRACTION * peak_omega
    if ordering == "static":
        pump = ConstantPulse(peak_omega)
        stokes = ConstantPulse(peak_omega)
        return PulseSchedule(pump, stokes, detuning, horizon, floor)

    if width is None:
        width = DEFAULT_WIDTH_FRACTION * horizon
    if delay is None:
        delay = DEFAULT_DELAY_FRACTION * width
    early = horizon / 2.0 - delay
    late = horizon / 2.0 + delay
    if ordering == "counterintuitive":
        stokes_center, pump_center = early, late
    else:
        pump_center, stokes_center = early, late
    pump = GaussianPulse(peak_omega, pump_center, width)
    stokes = GaussianPulse(peak_omega, stokes_center, width)
    return PulseSchedule(pump, stokes, detuning, horizon, floor)


def theta_law_schedule(theta0: float, gamma_c: float, t0: float, omega: float,
                       horizon: float, delta: float = 0.0) -> PulseSchedule:
    """Constant-total-coupling schedule with tan(2*theta) growing as
    exp(gamma_c*(t-t0)), so theta' exactly cancels the coherence drive term
    (gamma_c/4) sin(4*theta)."""
    _check_finite(gamma_c=gamma_c, t0=t0, omega=omega, horizon=horizon,
                  delta=delta)
    if omega <= 0:
        raise ValueError("omega must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    pump = ThetaLawPulse(theta0, gamma_c, t0, omega, "sin")
    stokes = ThetaLawPulse(theta0, gamma_c, t0, omega, "cos")
    # The principal arctan branch keeps theta below pi/4, but guard against
    # parameter combinations that would flip the Stokes envelope sign.
    t_check = np.linspace(0.0, horizon, 257)
    if np.any(stokes.value(t_check) < 0):
        raise ValueError("mixing angle reached pi/2 inside the horizon")
    detuning = DetuningSchedule(kind="constant", delta0=delta)
    return PulseSchedule(pump, stokes, detuning, horizon,
                         FLOOR_FRACTION * omega)
