"""Independent reference trajectories for the benchmark's accuracy checks.

Written from the model's formulas, not from threelevel's propagators:

    H(t) = Op(t) (|1><3| + |3><1|) + Oc(t) (|2><3| + |3><2|) + D |3><3|
    drho/dt = -i [H, rho] + sum_k (L_k rho L_k^+ - 1/2 {L_k^+ L_k, rho})

with Gaussian envelopes peak * exp(-((t - center) / width)^2) centred at
T/2 -/+ delay (Stokes first when counterintuitive), equal constant envelopes
for the static hold, and the jump operators of each scheme:

    lambda: sqrt(g1)|1><3|, sqrt(g2)|2><3|, sqrt(g3d)|3><3|, sqrt(g2d)|2><2|
    xi:     sqrt(g1)|1><3|, sqrt(g2)|3><2|, sqrt(g3d)|3><3|, sqrt(g2d)|2><2|
    v:      sqrt(g1)|3><1|, sqrt(g2)|3><2|, sqrt(g1d)|1><1|, sqrt(g2d)|2><2|

The complex 3x3 equation is integrated with DOP853 at rtol 1e-12 and
atol 1e-14, several scenarios side by side in one state vector, and
evaluated at each table's own time column.  Results are cached on disk,
keyed by the scenario, its times and this file's source.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12
ATOL = 1e-14
BATCH = 48         # scenarios integrated side by side in one solve
CACHE_BYTES = 256 * 2**20   # oldest entries beyond this are dropped

_SOURCE = Path(__file__).read_bytes()

_INITIAL = {
    "bare_1": np.diag([1.0, 0.0, 0.0]),
    "superposition_minus": np.array([[0.5, -0.5, 0.0],
                                     [-0.5, 0.5, 0.0],
                                     [0.0, 0.0, 0.0]]),
}


def _ket_bra(i, j):
    m = np.zeros((3, 3))
    m[i - 1, j - 1] = 1.0
    return m


def jump_operators(scheme, rates):
    channels = {
        "lambda": [("gamma1", 1, 3), ("gamma2", 2, 3),
                   ("gamma3_deph", 3, 3), ("gamma2_deph", 2, 2)],
        "xi": [("gamma1", 1, 3), ("gamma2", 3, 2),
               ("gamma3_deph", 3, 3), ("gamma2_deph", 2, 2)],
        "v": [("gamma1", 3, 1), ("gamma2", 3, 2),
              ("gamma1_deph", 1, 1), ("gamma2_deph", 2, 2)],
    }[scheme]
    return [np.sqrt(rates.get(name, 0.0)) * _ket_bra(i, j)
            for name, i, j in channels]


def _envelopes(phys):
    """(peak, centre, width) for pump and Stokes; width inf means constant."""
    peak, horizon = phys["peak_omega"], phys["horizon"]
    if phys["ordering"] == "static":
        return (peak, 0.0, np.inf), (peak, 0.0, np.inf)
    early = horizon / 2 - phys["delay"]
    late = horizon / 2 + phys["delay"]
    width = phys["width"]
    if phys["ordering"] == "counterintuitive":
        return (peak, late, width), (peak, early, width)
    return (peak, early, width), (peak, late, width)


def _superop(apply):
    """Matrix of a linear map on 3x3 matrices, acting on row-major vec."""
    basis = np.eye(9, dtype=complex).reshape(9, 3, 3)
    return np.stack([apply(e).reshape(9) for e in basis], axis=-1)


def _lindblad(scheme, rates, delta):
    """Drive-independent part: -i [D |3><3|, .] plus the dissipator."""
    ops = jump_operators(scheme, rates)
    detuning = delta * _ket_bra(3, 3)

    def apply(rho):
        out = -1j * (detuning @ rho - rho @ detuning)
        for op in ops:
            anti = op.T @ op
            out = out + op @ rho @ op.T - 0.5 * (anti @ rho + rho @ anti)
        return out
    return _superop(apply)


_PUMP = _ket_bra(1, 3) + _ket_bra(3, 1)
_STOKES = _ket_bra(2, 3) + _ket_bra(3, 2)
_PUMP_T = _superop(lambda rho: -1j * (_PUMP @ rho - rho @ _PUMP)).T
_STOKES_T = _superop(lambda rho: -1j * (_STOKES @ rho - rho @ _STOKES)).T


def _solve(physics, times):
    """Integrate scenarios side by side; return rho at each of `times`."""
    n = len(physics)
    pump = np.array([_envelopes(p)[0] for p in physics]).T
    stokes = np.array([_envelopes(p)[1] for p in physics]).T
    fixed = np.array([_lindblad(p["configuration"], p["rates"], p["delta0"])
                      for p in physics])                       # (n, 9, 9)
    rho0 = np.array([_INITIAL[p["initial_state"]] for p in physics],
                    dtype=complex)

    def envelope(params, t):
        peak, centre, width = params
        u = (t - centre) / width
        return (peak * np.exp(-u * u))[:, None]

    def rhs(t, y):
        vec = y.reshape(n, 9)
        out = np.einsum("nij,nj->ni", fixed, vec)
        out += envelope(pump, t) * (vec @ _PUMP_T)
        out += envelope(stokes, t) * (vec @ _STOKES_T)
        return out.reshape(-1)

    sol = solve_ivp(rhs, (0.0, times[-1]), rho0.reshape(-1), method="DOP853",
                    rtol=RTOL, atol=ATOL, t_eval=times)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y.T.reshape(len(times), n, 3, 3)


def _key(phys, times):
    digest = hashlib.sha256(_SOURCE)
    digest.update(json.dumps(phys, sort_keys=True).encode())
    digest.update(np.ascontiguousarray(times, dtype=float).tobytes())
    return digest.hexdigest()


def reference(requests, cache_dir):
    """rho_ref (n, 3, 3) for each (physics, times) request, cached on disk."""
    os.makedirs(cache_dir, exist_ok=True)
    paths = [os.path.join(cache_dir, _key(p, t) + ".npy") for p, t in requests]
    todo = [k for k, path in enumerate(paths) if not os.path.exists(path)]
    for start in range(0, len(todo), BATCH):
        group = todo[start:start + BATCH]
        union = np.unique(np.concatenate([requests[k][1] for k in group]))
        rho = _solve([requests[k][0] for k in group], union)
        for col, k in enumerate(group):
            rows = np.searchsorted(union, requests[k][1])
            np.save(paths[k], rho[rows, col])
    results = [np.load(path) for path in paths]
    _prune(cache_dir)
    return results


def _prune(cache_dir):
    entries = sorted(os.scandir(cache_dir), key=lambda e: e.stat().st_mtime,
                     reverse=True)
    total = 0
    for entry in entries:
        total += entry.stat().st_size
        if total > CACHE_BYTES:
            os.remove(entry.path)
