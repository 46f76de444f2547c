"""Transition operators and the conjugate transpose on three levels."""

import numpy as np


def ketbra(i: int, j: int) -> np.ndarray:
    """Transition operator |i><j| on the three-level space, 1-based indices."""
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError(f"level indices must be in 1..3, got ({i}, {j})")
    m = np.zeros((3, 3), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T
