"""Configuration-specific Lindblad dissipators and derived decay rates.

Level numbering is shared by all three coupling topologies so the coherent
part of the dynamics is identical; only the jump operators differ:

    lambda: 3 is the excited state, decaying to 1 (gamma1) and 2 (gamma2);
    xi:     ladder 1 - 3 - 2 with 3 -> 1 (gamma1) and 2 -> 3 (gamma2);
    v:      1 and 2 are excited, both decaying into the shared ground 3.

gamma1_deph/gamma2_deph/gamma3_deph are pure-dephasing rates of the matching
levels.  The derived transverse widths are

    Gamma1: 3-1 coherence decay,  Gamma2: 3-2 coherence decay,
    gamma_c: 1-2 coherence decay (the stability-limiting rate),
    gamma_total: population decay of bare level 3 (lambda: gamma1+gamma2,
                 xi: gamma1, v: 0).

For the xi scheme the gamma2 channel defaults to the lowering operator
|3><2| (population decay 2 -> 3).  Setting xi_appendix_verbatim=True swaps
in the projector form sqrt(gamma2)|2><2| instead, which leaves every
coherence decay rate unchanged and only suppresses the 2 -> 3 population
transfer.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np


def ketbra(i: int, j: int) -> np.ndarray:
    """Transition operator |i><j| on the three-level space, 1-based indices."""
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError(f"level indices must be in 1..3, got ({i}, {j})")
    m = np.zeros((3, 3), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


class Configuration(str, enum.Enum):
    LAMBDA = "lambda"
    XI = "xi"
    V = "v"


@dataclass(frozen=True)
class RateSet:
    """Spontaneous and dephasing rates, all in units of 1/T."""

    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma1_deph: float = 0.0
    gamma2_deph: float = 0.0
    gamma3_deph: float = 0.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "gamma1_deph", "gamma2_deph",
                     "gamma3_deph"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")


@dataclass(frozen=True)
class DerivedRates:
    Gamma1: float
    Gamma2: float
    gamma_c: float
    gamma_total: float


def lindblad_ops(config: Configuration, rates: RateSet,
                 xi_appendix_verbatim: bool = False) -> list:
    """Jump operators for the requested configuration (zero-rate channels
    are dropped)."""
    config = Configuration(config)
    if config is Configuration.LAMBDA:
        raw = [
            (rates.gamma1, ketbra(1, 3)),
            (rates.gamma2, ketbra(2, 3)),
            (rates.gamma3_deph, ketbra(3, 3)),
            (rates.gamma2_deph, ketbra(2, 2)),
        ]
    elif config is Configuration.XI:
        second = ketbra(2, 2) if xi_appendix_verbatim else ketbra(3, 2)
        raw = [
            (rates.gamma1, ketbra(1, 3)),
            (rates.gamma2, second),
            (rates.gamma3_deph, ketbra(3, 3)),
            (rates.gamma2_deph, ketbra(2, 2)),
        ]
    else:
        raw = [
            (rates.gamma1, ketbra(3, 1)),
            (rates.gamma2, ketbra(3, 2)),
            (rates.gamma1_deph, ketbra(1, 1)),
            (rates.gamma2_deph, ketbra(2, 2)),
        ]
    return [np.sqrt(rate) * op for rate, op in raw if rate > 0.0]


def dissipator(ops: list, rho: np.ndarray) -> np.ndarray:
    """(1/2) sum_k (2 L_k rho L_k^dag - L_k^dag L_k rho - rho L_k^dag L_k),
    on a 3x3 rho or a stack of them."""
    out = np.zeros(np.shape(rho), dtype=complex)
    for op in ops:
        opd = op.conj().T
        anti = opd @ op
        out += op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti)
    return out


def derived_rates(config: Configuration, rates: RateSet) -> DerivedRates:
    """Closed-form transverse widths and the 1-2 coherence decay rate."""
    config = Configuration(config)
    if config is Configuration.LAMBDA:
        gamma_sp = rates.gamma1 + rates.gamma2
        g1 = 0.5 * (gamma_sp + rates.gamma3_deph)
        g2 = g1 + 0.5 * rates.gamma2_deph
        return DerivedRates(g1, g2, 0.5 * rates.gamma2_deph, gamma_sp)
    if config is Configuration.XI:
        g1 = 0.5 * (rates.gamma1 + rates.gamma3_deph)
        g2 = 0.5 * (rates.gamma1 + rates.gamma2 + rates.gamma2_deph
                    + rates.gamma3_deph)
        return DerivedRates(g1, g2, 0.5 * (rates.gamma2 + rates.gamma2_deph),
                            rates.gamma1)
    g1 = 0.5 * (rates.gamma1 + rates.gamma1_deph)
    g2 = 0.5 * (rates.gamma2 + rates.gamma2_deph)
    return DerivedRates(g1, g2, g1 + g2, 0.0)
