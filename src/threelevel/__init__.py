"""Dissipative three-level dynamics in the bare and dressed bases."""

from .adiabatic import AdiabaticFrame, angles, frame, rotation
from .analysis import (QuadratureEstimate, StabilityReport,
                       compare_analytic_numeric, quadrature_solution,
                       stability_report)
from .dissipation import (Configuration, DerivedRates, RateSet,
                          derived_rates, dissipator, ketbra, lindblad_ops)
from .evolution import (PropagationError, PropagatorSettings, Trajectory,
                        closed_system_solution, propagate)
from .pulses import (ConstantPulse, DetuningSchedule, GaussianPulse,
                     PulseSchedule, ThetaLawPulse, make_stirap_schedule,
                     theta_law_schedule)

__version__ = "0.1.0"
