"""Dense complex 3x3 (and 9x9) linear algebra shared by every other module."""

import numpy as np
import scipy   # scipy.linalg loads on first use

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
EIG_RESIDUAL_TOL = 1e-10


def ketbra(i: int, j: int) -> np.ndarray:
    """Transition operator |i><j| on the three-level space, 1-based indices."""
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError(f"level indices must be in 1..3, got ({i}, {j})")
    m = np.zeros((3, 3), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def trace(a: np.ndarray) -> complex:
    return complex(np.trace(a))


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def require_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    a = np.asarray(a)
    return bool(np.max(np.abs(a - a.conj().T)) < tol)


def is_unitary(a: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    a = np.asarray(a)
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) < tol)


def herm_eig3(a: np.ndarray, tol: float = HERMITIAN_TOL):
    """Eigendecomposition of a Hermitian 3x3 matrix with a fixed phase gauge.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and each
    eigenvector's largest-magnitude component made real and positive, so the
    decomposition is deterministic and continuous along smooth matrix paths.
    """
    a = require_finite(a, "herm_eig3 input")
    if a.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got shape {a.shape}")
    if not is_hermitian(a, tol):
        raise ValueError("herm_eig3 requires a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    for k in range(3):
        idx = int(np.argmax(np.abs(v[:, k])))
        pivot = v[idx, k]
        v[:, k] *= np.conj(pivot) / np.abs(pivot)
    return w, v


def expm(a: np.ndarray, dt: float = 1.0) -> np.ndarray:
    """exp(a*dt) by scaling and squaring; raises on non-finite input/output."""
    a = require_finite(a, "expm input")
    out = scipy.linalg.expm(np.asarray(a, dtype=complex) * dt)
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed")
    return out
