"""Observables and analytic approximations for the dressed-state dynamics.

Covers the perturbative quadrature solutions for a system prepared in one
dressed state (populations driven by gamma_c, oscillatory coherence
integrals), the stability metrics

    gamma_c T << 1,   T sqrt(Delta^2 + 4 Omega^2) >> 1,   Omega^2 T / Delta >> 1,

with the extra bright-state condition Gamma1 << Delta.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .adiabatic import frame
from .dissipation import DerivedRates, derived_rates
from .evolution import Trajectory
from .pulses import PulseSchedule

# Order-of-magnitude reading of the stability inequalities.
MUCH_LESS = 0.1
MUCH_GREATER = 10.0

# Required sampling of the fastest oscillation (lam3 - lam2) in the
# quadrature integrals: at least this many grid points per period.
MIN_POINTS_PER_PERIOD = 20

# Trajectory matrix element (row, col) each quadrature approximates; the
# dark_/b_/third_ prefix names the dressed state the run starts in.
_QUADRATURE_TARGET = {
    "dark_R11": (0, 0), "dark_R22": (1, 1), "dark_R21": (1, 0),
    "dark_R31": (2, 0), "dark_R32": (2, 1),
    "b_R11": (0, 0), "b_R22": (1, 1), "b_R12": (0, 1),
    "b_R31": (2, 0), "b_R32": (2, 1),
    "third_R33": (2, 2),
}
QUADRATURE_KINDS = tuple(_QUADRATURE_TARGET)
# kinds with a diagonal target estimate a population, which stays in [0, 1]
_POPULATION_KINDS = tuple(kind for kind, (row, col)
                          in _QUADRATURE_TARGET.items() if row == col)


@dataclass(frozen=True)
class QuadratureEstimate:
    which: str
    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class StabilityReport:
    gc_T: float
    adiab1: float                # T * sqrt(Delta^2 + 4 Omega^2)
    adiab2: float                # Omega^2 T / Delta
    gamma1_over_delta: float
    omega_peak: float
    delta_at_peak: float
    verdicts: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(v for v in self.verdicts.values() if v is not None)


def _cumulative_trapezoid(y, x):
    """Trapezoid-rule integrals of y from x[0] to each x, for 1-d arrays."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1])
                                            / 2.0)))


def _oscillatory(grid, f, rate, conj_phase=False):
    """I(t) = int_0^t f(t') exp(+-i [phase(t) - phase(t')]) dt' with
    phase = cumulative integral of `rate`."""
    phase = _cumulative_trapezoid(rate, grid)
    sign = -1.0 if conj_phase else 1.0
    inner = _cumulative_trapezoid(f * np.exp(-1j * sign * phase), grid)
    return np.exp(1j * sign * phase) * inner


def quadrature_solution(which: str, schedule: PulseSchedule,
                        rates: DerivedRates,
                        grid: np.ndarray) -> QuadratureEstimate:
    """Evaluate one of the perturbative solutions on the given time grid.

    The grid must resolve the fastest phase (lam3 - lam2) with at least
    MIN_POINTS_PER_PERIOD points per period.
    """
    if which not in QUADRATURE_KINDS:
        raise ValueError(f"unknown quadrature {which!r}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array of at least two times")
    fr = frame(schedule, grid)
    theta, phi, theta_dot, phi_dot = fr.theta, fr.phi, fr.theta_dot, fr.phi_dot
    lam2, lam3 = fr.lam[:, 1], fr.lam[:, 2]
    dt = np.diff(grid)
    fastest = np.max(np.abs(lam3 - lam2))
    if fastest > 0 and np.max(dt) > 2.0 * math.pi / (fastest
                                                     * MIN_POINTS_PER_PERIOD):
        raise ValueError(
            f"grid under-resolves the fastest phase: need at least "
            f"{MIN_POINTS_PER_PERIOD} points per period of rate {fastest:.3g}")

    gc = rates.gamma_c
    sin2t = np.sin(2.0 * theta)
    if which == "dark_R11":
        values = 1.0 - 0.5 * gc * _cumulative_trapezoid(sin2t ** 2, grid)
    elif which == "dark_R22":
        values = 0.5 * gc * _cumulative_trapezoid(
            sin2t ** 2 * np.cos(phi) ** 2, grid)
    elif which == "dark_R21":
        f = (0.25 * gc * np.sin(4.0 * theta) - theta_dot) * np.cos(phi)
        values = _oscillatory(grid, f, lam2)
    elif which == "dark_R31":
        f = (0.25 * gc * np.sin(4.0 * theta) - theta_dot) * np.sin(phi)
        values = _oscillatory(grid, f, lam3)
    elif which == "dark_R32":
        f = 0.25 * gc * sin2t ** 2 * np.sin(2.0 * phi)
        values = _oscillatory(grid, f, lam3 - lam2)
    elif which == "b_R11":
        values = 0.5 * gc * _cumulative_trapezoid(sin2t ** 2, grid)
    elif which == "b_R22":
        values = 1.0 - 0.5 * gc * _cumulative_trapezoid(sin2t ** 2, grid)
    elif which == "b_R12":
        f = 0.25 * gc * np.sin(4.0 * theta) - theta_dot
        values = _oscillatory(grid, f, lam2, conj_phase=True)
    elif which == "b_R31":
        f = gc * phi * np.sin(theta) ** 2 * np.cos(theta) ** 2
        values = _oscillatory(grid, f, lam3, conj_phase=True)
    elif which == "b_R32":
        f = rates.Gamma1 * phi + gc * phi * np.cos(theta) ** 4 + phi_dot
        values = _oscillatory(grid, f, lam3 - lam2, conj_phase=True)
    else:  # third_R33
        values = 1.0 - rates.gamma_total * grid

    if which in _POPULATION_KINDS:
        if np.min(values) < -1e-9 or np.max(values) > 1.0 + 1e-9:
            raise ValueError(
                f"{which} left [0, 1]; the perturbative solution is outside "
                "its validity window on this schedule")
    return QuadratureEstimate(which, grid, values)


def compare_analytic_numeric(which: str, traj: Trajectory,
                             schedule: PulseSchedule,
                             rates: DerivedRates) -> float:
    """Max deviation between a quadrature solution and the matching matrix
    element of a propagated trajectory, over the trajectory's time grid.

    The quadrature is evaluated on an internally refined grid so its own
    resolution requirement holds regardless of the trajectory sampling.
    """
    times = traj.times
    dt = times[1] - times[0]
    lam = traj.frame.lam
    fastest = float(np.max(np.abs(lam[:, 2] - lam[:, 1])))
    refine = 1
    if fastest > 0:
        needed = 2.0 * math.pi / (fastest * MIN_POINTS_PER_PERIOD)
        refine = max(1, int(math.ceil(dt / needed)))
    n_fine = (len(times) - 1) * refine + 1
    fine = np.linspace(times[0], times[-1], n_fine)
    estimate = quadrature_solution(which, schedule, rates, fine)
    analytic = estimate.values[::refine]
    row, col = _QUADRATURE_TARGET[which]
    numeric = traj.R[:, row, col]
    if which in _POPULATION_KINDS:
        numeric = numeric.real
    return float(np.max(np.abs(numeric - analytic)))


def stability_report(config, rates,
                     schedule: PulseSchedule) -> StabilityReport:
    """Dimensionless stability metrics evaluated at peak total coupling.

    Verdicts are None for the detuning-dependent metrics when the detuning
    at the evaluation point is not positive.
    """
    derived = derived_rates(config, rates)
    T = schedule.horizon
    probe = np.linspace(0.0, schedule.horizon, 2001)
    sample = schedule.rabi(probe)
    k = int(np.argmax(sample.omega))
    omega_peak = float(sample.omega[k])
    delta_peak = float(schedule.delta(probe[k])[0])

    gc_T = derived.gamma_c * T
    adiab1 = T * math.hypot(delta_peak, 2.0 * omega_peak)
    if delta_peak > 0.0:
        adiab2 = omega_peak ** 2 * T / delta_peak
        g1_over_delta = derived.Gamma1 / delta_peak
    elif delta_peak == 0.0:
        adiab2 = math.inf
        g1_over_delta = math.inf if derived.Gamma1 > 0 else math.nan
    else:
        adiab2 = math.nan
        g1_over_delta = math.nan

    verdicts = {
        "gc_T_much_less_1": gc_T < MUCH_LESS,
        "adiab1_much_greater_1": adiab1 > MUCH_GREATER,
        "adiab2_much_greater_1":
            (adiab2 > MUCH_GREATER) if delta_peak >= 0.0 else None,
        "gamma1_much_less_delta":
            (g1_over_delta < MUCH_LESS) if delta_peak >= 0.0 else None,
    }
    return StabilityReport(gc_T=gc_T, adiab1=adiab1, adiab2=adiab2,
                           gamma1_over_delta=g1_over_delta,
                           omega_peak=omega_peak, delta_at_peak=delta_peak,
                           verdicts=verdicts)
