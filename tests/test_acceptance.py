"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every tolerance is fixed here, not tuned at runtime.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from threelevel.adiabatic import frame
from threelevel.analysis import quadrature_solution
from threelevel.cli import ScenarioConfig, load_config, run_sweep, run_trajectory
from threelevel.dissipation import Configuration, RateSet, derived_rates
from threelevel.evolution import (PropagatorSettings, closed_system_solution,
                                  propagate)
from threelevel.pulses import (ConstantPulse, DetuningSchedule, PulseSchedule,
                               make_stirap_schedule, theta_law_schedule)

SIG11 = np.diag([1.0, 0.0, 0.0]).astype(complex)
SIG22 = np.diag([0.0, 1.0, 0.0]).astype(complex)
SIG33 = np.diag([0.0, 0.0, 1.0]).astype(complex)

# Reference transfer parameters: peak couplings 100/T each, detuning 1000/T,
# transverse widths 0.5/T, with the ground-coherence decay set per scenario.
PEAK = 100.0
DELTA = 1000.0
GC_FAMILY = (0.005, 0.01, 0.05)


def fig_rates(gc_T):
    return RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=2.0 * gc_T)


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_closed_system_exactness():
    """Static closed system follows the free dressed-phase solution to 1e-8
    out to lam3 * t = 1e4."""
    schedule_probe = make_stirap_schedule(PEAK, DetuningSchedule(delta0=DELTA),
                                          1.0, "static")
    lam3 = frame(schedule_probe, 0.0).lam[2]
    horizon = 1e4 / lam3
    schedule = make_stirap_schedule(PEAK, DetuningSchedule(delta0=DELTA),
                                    horizon, "static")
    vec = np.array([0.6, 0.5, 0.4 + 0.3j])
    vec /= np.linalg.norm(vec)
    big_r0 = 0.7 * np.outer(vec, vec.conj()) + 0.3 * np.diag([0.5, 0.3, 0.2])
    settings = PropagatorSettings(rel_tol=1e-12, abs_tol=1e-13,
                                  basis="adiabatic")
    traj = propagate(Configuration.LAMBDA, RateSet(), schedule,
                     big_r0, settings, samples=201)
    exact = closed_system_solution(frame(schedule, 0.0), big_r0, traj.times)
    err = float(np.max(np.abs(traj.R - exact)))
    assert report(1, "closed-system exactness", err < 1e-8,
                  f"max elementwise {err:.3e} vs 1e-8, lam3*T = "
                  f"{lam3 * horizon:.0f}")


def test_criterion_02_basis_equivalence():
    """Bare and dressed propagations agree through U R U^dag to 1e-6 for
    every configuration and both pulse orderings at rel_tol 1e-9."""
    settings = PropagatorSettings(rel_tol=1e-9, abs_tol=1e-11)
    rates = fig_rates(0.005)
    worst = 0.0
    worst_case = ""
    for config in Configuration:
        for ordering in ("counterintuitive", "intuitive"):
            schedule = make_stirap_schedule(PEAK,
                                            DetuningSchedule(delta0=DELTA),
                                            1.0, ordering)
            u0 = frame(schedule, 0.0).U
            big_r0 = u0.conj().T @ SIG11 @ u0
            bare = propagate(config, rates, schedule, SIG11, settings,
                             samples=301)
            adia = propagate(config, rates, schedule, big_r0,
                             replace(settings, basis="adiabatic"),
                             samples=301)
            diff = float(np.max(np.linalg.norm(adia.rho - bare.rho,
                                               axis=(1, 2))))
            if diff > worst:
                worst, worst_case = diff, f"{config.value}/{ordering}"
    assert report(2, "basis equivalence", worst < 1e-6,
                  f"worst Frobenius {worst:.3e} ({worst_case}) vs 1e-6")


def test_criterion_03_oracle_agreement():
    """Adaptive propagation versus the 4000-slice matrix-exponential oracle
    on the counterintuitive transfer scenario, 1e-6 max elementwise.

    The oracle takes fourth-order Magnus steps, and at 4000 slices its own
    error on this scenario is a few 1e-9.  A second-order (exponential
    midpoint) oracle sits at about 1.0e-6 here and fails the bound.
    """
    rates = fig_rates(0.005)
    schedule = make_stirap_schedule(PEAK, DetuningSchedule(delta0=DELTA), 1.0,
                                    "counterintuitive")
    rk = propagate(Configuration.LAMBDA, rates, schedule, SIG11,
                   PropagatorSettings(), samples=1001)
    oracle = propagate(Configuration.LAMBDA, rates, schedule, SIG11,
                       PropagatorSettings(method="expm_oracle",
                                          n_slices=4000), samples=1001)
    np.testing.assert_allclose(rk.times, oracle.times, atol=1e-12)
    err = float(np.max(np.abs(rk.rho - oracle.rho)))
    assert report(3, "oracle agreement", err < 1e-6,
                  f"max elementwise {err:.4e} vs 1e-6 at 4000 slices")


def test_criterion_04_dark_state_law():
    """Measured dark-state deficit matches (gamma_c/2) * integral of
    sin^2(2 theta) within 10 percent on the constant-coupling schedule
    whose mixing angle obeys the ground-coherence law."""
    settings = PropagatorSettings(rel_tol=1e-10, abs_tol=1e-12,
                                  basis="adiabatic")
    results = []
    for gc_T in GC_FAMILY:
        rates = fig_rates(gc_T)
        der = derived_rates(Configuration.LAMBDA, rates)
        schedule = theta_law_schedule(math.pi / 8, der.gamma_c, 0.5,
                                      math.hypot(PEAK, PEAK), 1.0,
                                      delta=DELTA)
        traj = propagate(Configuration.LAMBDA, rates, schedule,
                         SIG11, settings, samples=201)
        measured = 1.0 - traj.R[-1, 0, 0].real
        grid = np.linspace(0.0, 1.0, 8001)
        predicted = 1.0 - quadrature_solution("dark_R11", schedule, der,
                                              grid).values[-1]
        results.append(abs(measured / predicted - 1.0))
    ok = all(r <= 0.10 for r in results)
    detail = ", ".join(f"gcT={g}: {r:.3f}" for g, r in zip(GC_FAMILY,
                                                           results))
    assert report(4, "dark-state law", ok, detail + " vs 0.10 relative")


def test_criterion_05_bright_state_matches_dark():
    """Intuitive-order transfer lands within 0.02 of the counterintuitive
    transfer at gc*T = 0.005 and detuning 1000/T."""
    ci = run_trajectory(load_config("stirap_fig2"))
    it = run_trajectory(load_config("bstirap_fig3"))
    p_ci = float(ci.pops_bare[-1, 1])
    p_it = float(it.pops_bare[-1, 1])
    ok = abs(p_ci - p_it) <= 0.02 and p_ci > 0.9 and p_it > 0.9
    assert report(5, "bright-state stability", ok,
                  f"transfer {p_ci:.4f} vs {p_it:.4f}, "
                  f"|diff| {abs(p_ci - p_it):.4f} vs 0.02")


def test_criterion_06_purity_monotone_in_detuning():
    """Minimum purity of the bright-state trajectory is non-decreasing over
    detunings {100, 300, 1000}/T at gc*T = 0.05, and the final purity gap
    between the extremes is at least 0.05."""
    rates = fig_rates(0.05)
    minima, finals = [], []
    for delta in (100.0, 300.0, 1000.0):
        schedule = make_stirap_schedule(PEAK, DetuningSchedule(delta0=delta),
                                        1.0, "intuitive")
        traj = propagate(Configuration.LAMBDA, rates, schedule, SIG11,
                         PropagatorSettings(), samples=401)
        minima.append(float(traj.purity.min()))
        finals.append(float(traj.purity[-1]))
    ok = minima[0] <= minima[1] <= minima[2] \
        and finals[2] - finals[0] >= 0.05
    assert report(6, "purity vs detuning", ok,
                  f"min purity {minima[0]:.3f} <= {minima[1]:.3f} <= "
                  f"{minima[2]:.3f}; final gap {finals[2] - finals[0]:.3f} "
                  "vs 0.05")


def test_criterion_07_third_state_decay():
    """Uppermost dressed state decays as 1 - gamma_total * t within 5
    percent out to gamma_total * t = 0.1 under static strong drive."""
    rates = RateSet(gamma1=0.5, gamma2=0.5, gamma2_deph=0.01,
                    gamma3_deph=0.2)
    der = derived_rates(Configuration.LAMBDA, rates)
    horizon = 0.1 / der.gamma_total
    schedule = make_stirap_schedule(PEAK, DetuningSchedule(delta0=DELTA),
                                    horizon, "static")
    traj = propagate(Configuration.LAMBDA, rates, schedule, SIG33,
                     PropagatorSettings(rel_tol=1e-10,
                                        abs_tol=1e-12,
                                        basis="adiabatic"),
                     samples=201)
    predicted = 1.0 - der.gamma_total * traj.times
    rel = float(np.max(np.abs(traj.R[:, 2, 2].real - predicted) / predicted))
    assert report(7, "third-state decay", rel <= 0.05,
                  f"max relative deviation {rel:.4f} vs 0.05 "
                  f"(gamma_total = {der.gamma_total})")


def test_criterion_08_rate_bookkeeping():
    """Fitted coherence decay rates reproduce the closed forms within 1
    percent for all three configurations."""
    rates = RateSet(gamma1=0.4, gamma2=0.6, gamma1_deph=0.15,
                    gamma2_deph=0.25, gamma3_deph=0.1)
    settings = PropagatorSettings(rel_tol=1e-10, abs_tol=1e-12)
    worst = 0.0
    details = []
    for config in Configuration:
        der = derived_rates(config, rates)
        for (i, j), target, label in (((0, 1), der.gamma_c, "gamma_c"),
                                      ((2, 0), der.Gamma1, "Gamma1")):
            schedule = PulseSchedule(ConstantPulse(0.0), ConstantPulse(0.0),
                                     DetuningSchedule("constant", 0.0),
                                     1.0 / target, 1e-9)
            rho0 = np.zeros((3, 3), dtype=complex)
            rho0[i, i] = rho0[j, j] = 0.5
            rho0[i, j] = rho0[j, i] = 0.25
            traj = propagate(config, rates, schedule, rho0, settings,
                             samples=101)
            slope = np.polyfit(traj.times,
                               np.log(np.abs(traj.rho[:, i, j])), 1)[0]
            rel = abs(-slope / target - 1.0)
            worst = max(worst, rel)
            details.append(f"{config.value}.{label}={rel:.2e}")
    assert report(8, "rate bookkeeping", worst <= 0.01,
                  "; ".join(details) + " vs 0.01")


def test_criterion_09_shaped_detuning_suppression():
    """The detuning law that keeps the upper-state angle decaying at Gamma1
    suppresses the final 3-2 dressed coherence at least twofold against a
    constant detuning of equal mean."""
    rates = fig_rates(0.005)
    der = derived_rates(Configuration.LAMBDA, rates)
    omega = math.hypot(PEAK, PEAK)
    shaped = DetuningSchedule(kind="shaped", delta0=DELTA / omega,
                              gamma1=der.Gamma1, t0=0.0)
    s_shaped = make_stirap_schedule(PEAK, shaped, 1.0, "static")
    grid = np.linspace(0.0, 1.0, 2001)
    mean_delta = float(np.trapezoid(s_shaped.delta(grid)[0], grid))
    s_const = make_stirap_schedule(PEAK, DetuningSchedule(delta0=mean_delta),
                                   1.0, "static")
    settings = PropagatorSettings(rel_tol=1e-10, abs_tol=1e-12,
                                  basis="adiabatic")
    r32 = {}
    for tag, schedule in (("shaped", s_shaped), ("const", s_const)):
        traj = propagate(Configuration.LAMBDA, rates, schedule,
                         SIG22, settings, samples=101)
        r32[tag] = float(abs(traj.R[-1, 2, 1]))
    ok = r32["shaped"] <= 0.5 * r32["const"]
    assert report(9, "shaped-detuning suppression", ok,
                  f"|R32(T)| {r32['shaped']:.3e} vs 0.5 * {r32['const']:.3e}")


def test_criterion_10_invariants_and_determinism(tmp_path):
    """Trace, Hermiticity, positivity, and purity bounds hold on the builtin
    scenarios, and repeating the detuning sweep reproduces byte-identical
    output tables."""
    problems = []
    for name in ("stirap_fig2", "bstirap_fig3", "hadamard_hold"):
        traj = run_trajectory(load_config(name))
        if traj.trace_err_max > 1e-8:
            problems.append(f"{name}: trace {traj.trace_err_max:.2e}")
        if traj.hermiticity_err_max > 1e-10:
            problems.append(f"{name}: hermiticity "
                            f"{traj.hermiticity_err_max:.2e}")
        if traj.min_eigenvalue < -1e-8:
            problems.append(f"{name}: eigenvalue {traj.min_eigenvalue:.2e}")
        if traj.purity.max() > 1.0 + 1e-10 \
                or traj.purity.min() < 1.0 / 3.0 - 1e-10:
            problems.append(f"{name}: purity bounds")
    cfg = load_config("purity_delta_fig4")
    records_a = run_sweep(cfg, str(tmp_path / "a"))
    records_b = run_sweep(cfg, str(tmp_path / "b"))
    for ra, rb in zip(records_a, records_b):
        if ra.error or rb.error:
            problems.append(f"sweep point failed: {ra.error or rb.error}")
            continue
        with open(ra.table_path, "rb") as fh:
            bytes_a = fh.read()
        with open(rb.table_path, "rb") as fh:
            bytes_b = fh.read()
        if bytes_a != bytes_b:
            problems.append(f"{ra.scenario_id}: tables differ")
    assert report(10, "invariants and determinism", not problems,
                  "; ".join(problems) if problems else
                  "all invariant bounds hold, sweep tables byte-identical")
