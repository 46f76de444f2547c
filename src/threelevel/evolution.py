"""Time propagation of the density matrix in the bare and dressed bases.

The bare-basis master equation is

    drho/dt = -i [H(t), rho] + L(rho)

and its dressed-basis counterpart, with R = U^dag rho U and F = U^dag dU/dt,

    dR/dt = -i [H', R] + U^dag L(U R U^dag) U + [R, F],      H' = diag(lam).

Integration state is the real 9-vector (three populations plus real and
imaginary parts of the upper-triangle coherences), so Hermiticity is
structural; the trace is monitored, never renormalized.  Both equations
multiply it by a real 9x9 generator, a weighted sum of fixed blocks: the
bare one is D + Omega_p Bp + Omega_c Bc + Delta Bd, the dressed one
lam2 C2 + lam3 C3 + [., F] + W^-1 D W, with W the superoperator of
R -> U R U^T.  The dressed dissipator is a trigonometric polynomial in the
frame angles, so it enters as a table of harmonic blocks, built once per
propagation and weighted by products of cos/sin(2k theta) and
cos/sin(k phi), which come from the drives as complex powers of
exp(2i theta) and exp(i phi) (`adiabatic.phasors`).  One grid kernel,
`_generator_kernel`, maps an array of times to the stacked generators of
either basis.

One public `propagate` builds the kernel of the basis its settings name
and runs one of two integrators on it: `_dop853`, the Dormand-Prince
8(5,3) embedded pair (DOP853, with the tableau in `_dop853_coefficients`)
run in-house so that each step attempt builds all of its stage generators
in one kernel call, and only accepted steps that contain output times
build the three extra stages and the interpolant, which is evaluated at
all output times after the loop, or `_magnus4`, the matrix-exponential
oracle, which takes fourth-order Magnus steps (two Gauss nodes per slice)
exponentiated by `expm`.  So each integrator runs in either basis, and
the two bases and the two integrators are independent cross-checks of one
another.
"""

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _dop853_coefficients as rk, adiabatic
from .dissipation import (Configuration, RateSet, dissipator, ketbra,
                          lindblad_ops)
from .pulses import PulseSchedule

TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
PURITY_TOL = 1e-10

_DEFAULT_REL_TOL = 1e-9

METHODS = ("adaptive_rk", "expm_oracle")
BASES = ("bare", "adiabatic")
_ORACLE_BLOCK = 128   # slices per batched expm call; bounds peak memory


class PropagationError(RuntimeError):
    """Numerical failure during propagation (step underflow, invariant
    breach beyond 10x tolerance, or solver abort)."""


@dataclass(frozen=True)
class PropagatorSettings:
    """How `propagate` runs: the basis, the method and its tolerances or
    slice count, each checked here."""

    method: str = "adaptive_rk"       # one of METHODS
    rel_tol: float = _DEFAULT_REL_TOL
    abs_tol: float = 1e-11
    n_slices: int = 4000              # expm_oracle slice count
    basis: str = "bare"               # one of BASES

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.rel_tol < 100 * np.finfo(float).eps:
            # scipy's DOP853 would raise it to this floor with a warning
            raise ValueError("rel_tol below 100 machine epsilons "
                             "cannot be met in double precision")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.n_slices < 1:
            raise ValueError("n_slices must be >= 1")

    def check_samples(self, samples: int) -> None:
        """Raise ValueError unless this route can emit `samples` times."""
        if samples < 2:
            raise ValueError("need at least 2 output samples")
        if self.method == "expm_oracle" and samples > self.n_slices + 1:
            raise ValueError("cannot emit more samples than slice boundaries")


@dataclass(frozen=True)
class Trajectory:
    """Sampled density-matrix history with per-sample diagnostics.  The
    dressed frame at the sample times (angles, quasienergies, U, drive
    values, floor flags) is `frame`; `times`, the populations and the
    purity are read off it, `rho` and `R`."""

    rho: np.ndarray              # (n, 3, 3) bare basis
    R: np.ndarray                # (n, 3, 3) dressed basis
    frame: adiabatic.AdiabaticFrame
    trace_err_max: float
    hermiticity_err_max: float
    min_eigenvalue: float

    @property
    def times(self) -> np.ndarray:
        """(n,) sample times, the frame's `t`."""
        return self.frame.t

    @property
    def pops_bare(self) -> np.ndarray:
        """(n, 3) diagonal of `rho`."""
        return np.stack([self.rho[:, k, k].real for k in range(3)], axis=-1)

    @property
    def pops_adiabatic(self) -> np.ndarray:
        """(n, 3) diagonal of `R`."""
        return np.stack([self.R[:, k, k].real for k in range(3)], axis=-1)

    @property
    def purity(self) -> np.ndarray:
        """(n,) Tr(rho^2): 1 for a pure state, 1/3 for the mixed one."""
        return np.einsum("nij,nji->n", self.rho, self.rho).real


# --- real 9-vector representation -----------------------------------------

def pack(rho: np.ndarray) -> np.ndarray:
    """Hermitian 3x3 -> real 9-vector (populations, then Re/Im coherences)."""
    r = np.empty(9)
    r[0], r[1], r[2] = rho[0, 0].real, rho[1, 1].real, rho[2, 2].real
    r[3], r[4] = rho[0, 1].real, rho[0, 1].imag
    r[5], r[6] = rho[0, 2].real, rho[0, 2].imag
    r[7], r[8] = rho[1, 2].real, rho[1, 2].imag
    return r


def unpack(rs: np.ndarray) -> np.ndarray:
    """Real 9-vectors -> Hermitian 3x3 matrices, over any leading axes."""
    rs = np.asarray(rs)
    rho = np.empty(rs.shape[:-1] + (3, 3), dtype=complex)
    rho[..., range(3), range(3)] = rs[..., :3]
    rho[..., 0, 1] = rs[..., 3] + 1j * rs[..., 4]
    rho[..., 0, 2] = rs[..., 5] + 1j * rs[..., 6]
    rho[..., 1, 2] = rs[..., 7] + 1j * rs[..., 8]
    rho[..., 1, 0] = np.conj(rho[..., 0, 1])
    rho[..., 2, 0] = np.conj(rho[..., 0, 2])
    rho[..., 2, 1] = np.conj(rho[..., 1, 2])
    return rho


def real_superop(apply_map) -> np.ndarray:
    """9x9 real matrix of a Hermiticity-preserving linear map on rho."""
    m = np.empty((9, 9))
    for k in range(9):
        e = np.zeros(9)
        e[k] = 1.0
        m[:, k] = pack(apply_map(unpack(e)))
    return m


def _commutator_superop(a: np.ndarray, scale: complex) -> np.ndarray:
    """9x9 real matrix of rho -> scale * [a, rho]."""
    return real_superop(lambda rho: scale * (a @ rho - rho @ a))


# Commutator superoperators for the three Hamiltonian building blocks;
# the drive-dependent generator is their pointwise linear combination.
_BP = _commutator_superop(ketbra(1, 3) + ketbra(3, 1), -1j)
_BC = _commutator_superop(ketbra(2, 3) + ketbra(3, 2), -1j)
_BD = _commutator_superop(ketbra(3, 3), -1j)
_DRIVES = np.stack([_BP, _BC, _BD]).reshape(3, 81)   # for batched assembly

# Dressed blocks, weighted by (lam2, lam3, theta' cos(phi), theta' sin(phi),
# phi'): -i[diag(e_k), R] for k = 2, 3, then [R, E_ij - E_ji] for the
# three antisymmetric generators of the frame rotation F.
_DRESSED = np.stack([
    _commutator_superop(ketbra(2, 2), -1j),
    _BD,
    _commutator_superop(ketbra(1, 2) - ketbra(2, 1), -1.0),
    _commutator_superop(ketbra(1, 3) - ketbra(3, 1), -1.0),
    _commutator_superop(ketbra(2, 3) - ketbra(3, 2), -1.0),
]).reshape(5, 81)

# Frobenius metric of the packed coordinates, tr(A B) = a . (G b).  A real
# orthogonal U preserves it, so W^-1 = G^-1 W^T G.
_G = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])


def _harmonics(x, degree):
    """1, then cos(k x), sin(k x) for k = 1..degree, along a new last axis:
    the real and imaginary parts of exp(i k x), without sin(0)."""
    waves = np.exp(1j * np.multiply.outer(x, np.arange(degree + 1.0)))
    out = waves.view(float)[..., 1:]
    out[..., 0] = 1.0
    return out


_POWERS = np.arange(1.0, 5.0)


def _waves(e_2theta, e_phi):
    """`_harmonics(2 theta, 2)` and `_harmonics(phi, 4)` from exp(2i theta)
    and exp(i phi), by complex powers.  Both are float views of one complex
    array (i, exp(2ik theta) for k = 1, 2, i, exp(ik phi) for k = 1..4),
    whose imaginary unit entries supply the leading 1 of each."""
    waves = np.empty(np.shape(e_phi) + (8,), dtype=complex)
    waves[..., 0:4:3] = 1j
    np.power(e_2theta[..., None], _POWERS[:2], out=waves[..., 1:3])
    np.power(e_phi[..., None], _POWERS, out=waves[..., 4:])
    flat = waves.view(float)
    return flat[..., 1:6], flat[..., 7:]


# W^-1 D W is bilinear in W and W^-1, each quadratic in the entries of
# U = A(theta) B(phi), so it is a trigonometric polynomial of degree 4 in
# theta and in phi.  Every jump operator is a multiple of some |i><j|, so D
# commutes with conjugation by diag(-1, -1, 1) = A(pi) and only even
# harmonics of theta remain: degree 2 in 2 theta (5 functions) times degree
# 4 in phi (9).  The 45 blocks follow from W at a tensor grid of
# equispaced nodes, one period each, through the inverse of the grid's
# harmonic values; W at the nodes does not depend on the rates.
_THETA_NODES, _PHI_NODES = np.meshgrid(np.arange(5) * (np.pi / 5),
                                       np.arange(9) * (2 * np.pi / 9),
                                       indexing="ij")
_HARMONIC_INV = np.linalg.inv(np.kron(_harmonics(2.0 * _THETA_NODES[:, 0], 2),
                                     _harmonics(_PHI_NODES[0], 4)))


def _frame_superops(u: np.ndarray) -> np.ndarray:
    """(n, 9, 9) real matrices of R -> U R U^T for real (n, 3, 3) U.  With
    rho = sum_b r_b B_b over the packed basis B, r_a = tr(B_a rho) / G_a."""
    basis = unpack(np.eye(9))
    return np.einsum("aqp,npi,bij,nqj->nab", basis, u, basis, u,
                     optimize=True).real / _G[:, None]


_NODE_W = _frame_superops(np.stack(np.broadcast_arrays(*adiabatic.rotation(
    _THETA_NODES.ravel(), _PHI_NODES.ravel())), axis=-1).reshape(45, 3, 3))


def _dressed_table(d9: np.ndarray) -> np.ndarray:
    """(50, 81) blocks of the dressed generator: the five `_DRESSED` blocks,
    then the harmonic blocks of W^-1 D W, row-major over the products of
    `_harmonics(2 theta, 2)` and `_harmonics(phi, 4)`."""
    at_nodes = _NODE_W.swapaxes(1, 2) @ (_G[:, None] * d9) @ _NODE_W
    return np.concatenate([_DRESSED, _HARMONIC_INV @ (
        at_nodes / _G[:, None]).reshape(45, 81)])


def dissipator_superop(ops: list) -> np.ndarray:
    return real_superop(lambda rho: dissipator(ops, rho))


def _generator_kernel(schedule: PulseSchedule, d9: np.ndarray, basis: str):
    """The grid generator kernel of one propagation: a function mapping an
    array of times t to the stacked real generators, shape t.shape + (9, 9),
    of the bare (`basis="bare"`) or the dressed (`"adiabatic"`) master
    equation with bare-basis dissipator superoperator `d9`.

    The bare generator is D + Omega_p Bp + Omega_c Bc + Delta Bd, with
    D + Delta Bd summed here for a constant detuning.  The dressed one
    weights `_dressed_table` by the quasienergies, the rotation rates and
    the harmonic products of the frame angles, from `adiabatic.phasors` and
    `_waves`.  A static schedule has one constant generator, which is built
    here and only broadcast over the times.
    """
    if basis == "bare":
        constant = schedule.detuning.kind == "constant"
        base = d9 + schedule.detuning.delta0 * _BD if constant else d9
        drives = _DRIVES[:2] if constant else _DRIVES

        def at(t):
            coef = np.empty(t.shape + (len(drives),))
            coef[..., 0] = schedule.pump.value(t)
            coef[..., 1] = schedule.stokes.value(t)
            if not constant:
                coef[..., 2] = schedule.delta(t)[0]
            return (coef @ drives).reshape(t.shape + (9, 9)) + base
    else:
        table = _dressed_table(d9)

        def at(t):
            e_2theta, e_phi, theta_dot, phi_dot, lam2, lam3 = \
                adiabatic.phasors(*schedule.rabi(t)[:6], *schedule.delta(t))
            theta_waves, phi_waves = _waves(e_2theta, e_phi)
            coef = np.empty(t.shape + (50,))
            coef[..., 0], coef[..., 1], coef[..., 4] = lam2, lam3, phi_dot
            np.multiply(theta_dot[..., None], phi_waves[..., 1:3],
                        out=coef[..., 2:4])
            np.multiply(theta_waves[..., :, None], phi_waves[..., None, :],
                        out=coef[..., 5:].reshape(t.shape + (5, 9)))
            return (coef @ table).reshape(t.shape + (9, 9))

    if not schedule.is_static:
        return lambda t: at(np.asarray(t, dtype=float))
    constant = at(np.zeros(()))
    return lambda t: np.broadcast_to(constant, np.shape(t) + (9, 9))


# --- validation ------------------------------------------------------------

def _validate_initial(rho0: np.ndarray, name: str) -> np.ndarray:
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3")
    if not np.all(np.isfinite(rho0)):
        raise ValueError(f"{name} has non-finite entries")
    if np.max(np.abs(rho0 - rho0.conj().T)) > HERMITICITY_TOL:
        raise ValueError(f"{name} must be Hermitian")
    if abs(np.trace(rho0).real - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} must have unit trace")
    if np.linalg.eigvalsh(rho0).min() < -POSITIVITY_TOL:
        raise ValueError(f"{name} must be positive semidefinite")
    return rho0


def _invariant_margins(settings: PropagatorSettings) -> tuple:
    """How far `_assemble` lets populations go below 0 and purity leave
    [1/3, 1]: ten times POSITIVITY_TOL and PURITY_TOL, scaled by
    rel_tol / 1e-9 where the adaptive method runs above its default
    rel_tol of 1e-9, since its error, and these drifts with it, grow with
    rel_tol.  At the default and tighter tolerances, and for the oracle,
    which has no rel_tol, they are the fixed margins."""
    scale = 1.0
    if settings.method == "adaptive_rk":
        scale = max(1.0, settings.rel_tol / _DEFAULT_REL_TOL)
    return 10 * POSITIVITY_TOL * scale, 10 * PURITY_TOL * scale


def _assemble(rho, fr: adiabatic.AdiabaticFrame,
              margins: tuple) -> Trajectory:
    """Build a Trajectory from bare-basis samples at the frame's times,
    checking invariants; `margins` are `_invariant_margins`."""
    traces = np.einsum("nii->n", rho).real
    trace_err = float(np.max(np.abs(traces - 1.0)))
    herm_err = float(np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))))
    eigmin = float(np.linalg.eigvalsh(rho).min())
    traj = Trajectory(rho=rho, R=fr.U.conj().swapaxes(-1, -2) @ rho @ fr.U,
                      frame=fr, trace_err_max=trace_err,
                      hermiticity_err_max=herm_err, min_eigenvalue=eigmin)
    purity = traj.purity

    if trace_err > 10 * TRACE_TOL:
        raise PropagationError(f"trace drifted by {trace_err:.3e}")
    if herm_err > 10 * HERMITICITY_TOL:
        raise PropagationError(f"hermiticity violated by {herm_err:.3e}")
    positivity, purity_margin = margins
    if eigmin < -positivity:
        raise PropagationError(f"negative population {eigmin:.3e}")
    if purity.max() > 1.0 + purity_margin \
            or purity.min() < 1.0 / 3.0 - purity_margin:
        raise PropagationError("purity left [1/3, 1]")
    return traj


# --- integration backends --------------------------------------------------

@functools.cache
def _dop853_tableau():
    """The DOP853 tableau of `_dop853_coefficients`, built once and laid
    out for `_dop853`, whose buffer holds y in row 0 and stage k in row
    k + 1.  `nodes` are the times, in steps, of the generators an attempt
    needs: stages 1-11, the step end, the dense-output stages.  Row s of
    `h * a`, with 1 in column 0, combines buffer rows 0..s into
    y + h sum_k A[s, k] K[k], the argument of stage s (of the step end,
    from B, for s = 12).  The rows of `dense` are the interpolant's
    coefficients over the 16 stages, in units of h: B, e0 - B,
    2B - e0 - e12 (with y_new - y = h B.K), then D."""
    n = rk.N_STAGES
    a = np.zeros((n + 4, n + 5))
    a[:n, 1:n + 1] = rk.A
    a[n, 1:n + 1] = rk.B
    a[n + 1:, 1:] = rk.A_EXTRA
    b = np.zeros(n + 4)
    b[:n] = rk.B
    e0, e_end = np.eye(n + 4)[[0, n]]
    dense = np.vstack([b, e0 - b, 2 * b - e0 - e_end, rk.D])
    return (np.concatenate([rk.C[1:], [1.0], rk.C_EXTRA]), a,
            np.stack([rk.E5, rk.E3]), dense, n, rk.ERROR_ESTIMATOR_ORDER)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853(kernel, y0, times, rel_tol, abs_tol):
    """States at the ascending `times`, from y0 at times[0], of dy/dt =
    kernel(t) y under the Dormand-Prince 8(5,3) pair, and the number of
    accepted steps.

    This is scipy's DOP853, driven with output times, step for step: its
    initial step selection, the 12-stage first-same-as-last step, the
    combined E5/E3 error norm, step control with safety 0.9, factors in
    [0.2, 10] and exponent -1/8, and the 7th-order dense output (Hairer,
    Norsett & Wanner, Solving ODEs I, II.6).  Only the grouping of the sums
    differs.  Each attempt makes one kernel call for all of its stage
    generators.  The three extra stages and the interpolant's seven rows
    are computed only on accepted steps that contain output times; each
    such step keeps its start, width, state and rows, and every output is
    evaluated from them in one batched pass after the last step.  A step
    below ten spacings of the floating-point numbers at t raises
    PropagationError.
    """
    nodes, a, errors, dense, n, order = _dop853_tableau()
    exponent = -1 / (order + 1)
    buf = np.empty((len(a) + 1, y0.size))     # y, then stages 0..15
    weights = np.ones_like(a)                 # h * a, with 1 in column 0
    # stage s: its argument's buffer rows and weights, and its output row
    chain = [(buf[:s + 1].T, weights[s, :s + 1], buf[s + 1])
             for s in range(len(a))]
    t, t_bound = float(times[0]), float(times[-1])
    y = y0
    buf[1] = f = kernel(t) @ y

    abs_y = np.abs(y)
    scale = abs_tol + abs_y * rel_tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t)
    d2 = _rms((kernel(t + h0) @ (y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -exponent
    h_abs = min(100 * h0, h1, t_bound - t)

    # the dense store: per accepted step holding outputs, its start, width,
    # state and interpolant rows, and for each output the step it lies in
    grid = times.tolist()
    starts, widths = np.empty(len(grid)), np.empty(len(grid))
    states = np.empty((len(grid), y0.size))
    interp = np.empty((len(grid), len(dense), y0.size))
    owner = np.empty(len(grid), dtype=int)
    done = stored = steps = 0
    while t < t_bound:
        buf[0] = y
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise PropagationError(
                    f"adaptive integration failed near t={t:.6g}: required "
                    f"step size is less than spacing between numbers")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            gens = kernel(t + nodes * h)
            np.multiply(a[:, 1:], h, out=weights[:, 1:])
            for gen, (rows_t, w, out) in zip(gens[:n - 1], chain[1:n]):
                np.dot(gen, np.dot(rows_t, w), out=out)
            y_new = np.dot(chain[n][0], chain[n][1])
            np.dot(gens[n - 1], y_new, out=buf[n + 1])
            abs_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_new)
            scale *= rel_tol
            scale += abs_tol
            err = np.dot(errors, buf[1:n + 2])
            err /= scale
            err5_2, err3_2 = np.dot(err, err.T).diagonal().tolist()
            if err5_2 == 0 and err3_2 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5_2 / math.sqrt(
                    (err5_2 + 0.01 * err3_2) * y.size)
            if error_norm < 1:
                factor = 10.0 if error_norm == 0 else min(
                    10.0, 0.9 * error_norm ** exponent)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** exponent)
            rejected = True

        end = bisect.bisect_right(grid, t_new)
        if end > done:
            for gen, (rows_t, w, out) in zip(gens[n:], chain[n + 1:]):
                np.dot(gen, np.dot(rows_t, w), out=out)
            np.dot(dense, buf[1:], out=interp[stored])
            starts[stored], widths[stored] = t, h
            states[stored] = y
            owner[done:end] = stored
            stored += 1
            done = end
        t, y, abs_y = t_new, y_new, abs_new
        buf[1] = buf[n + 1]
        steps += 1

    # y + h sum_k w_k(x) F_k, w_k the running products of x, 1 - x, x, ...:
    # scipy's nested evaluation of the interpolant, expanded
    h = widths[owner]
    x = (times - starts[owner]) / h
    w = np.cumprod(np.stack([x, 1 - x] * 3 + [x], axis=-1), axis=-1)
    return (states[owner] + h[:, None] * np.einsum("ok,okj->oj", w,
                                                   interp[owner]), steps)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each real square matrix in a stack.

    Each matrix is scaled by 2^-s, with s the smallest power that brings
    its 1-norm to at most 1, exponentiated by its Taylor series of degree
    18, whose remainder is then below 1e-17 in 1-norm, and squared s times.
    """
    a = np.asarray(a, dtype=float)
    _, s = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))
    s = np.maximum(s, 0)
    x = np.ldexp(a, -s[..., None, None])
    eye = np.eye(a.shape[-1])
    out = eye + x / 18.0
    for k in range(17, 0, -1):
        out = eye + (x @ out) / k
    for k in range(s.max(initial=0)):
        out = np.where((s > k)[..., None, None], out @ out, out)
    return out


def _magnus4(kernel, y0, horizon, n_slices, samples):
    """States of dy/dt = kernel(t) y, from y0 at t = 0, at the slice
    boundaries nearest `samples` uniform times, and those boundaries' times,
    under fourth-order Magnus steps (the verification oracle).

    On each of `n_slices` uniform slices of width h the generator is sampled
    at the two Gauss-Legendre nodes, A1 and A2, and the slice propagator is
    the exact exponential of

        Omega = h/2 (A1 + A2) + (sqrt(3)/12) h^2 [A2, A1],

    which is fourth order in slice width.  Slices are exponentiated in
    batched blocks by `expm`, and no Runge-Kutta code is involved, so the
    result is an independent check of the adaptive integrator.  The
    commutator term does not keep a step completely positive, so slices far
    too coarse for the drive can give negative populations, which
    `_assemble` rejects.
    """
    boundaries = np.linspace(0.0, horizon, n_slices + 1)
    keep = np.rint(np.linspace(0, n_slices, samples)).astype(int)
    h = boundaries[1] - boundaries[0]
    mids = 0.5 * (boundaries[:-1] + boundaries[1:])
    gauss = np.array([-1.0, 1.0]) * h / (2.0 * math.sqrt(3.0))

    out = np.empty((samples, y0.size))
    out[0] = r = y0
    j = 1
    for start in range(0, n_slices, _ORACLE_BLOCK):
        a = kernel(mids[start:start + _ORACLE_BLOCK, None] + gauss)
        a1, a2 = a[:, 0], a[:, 1]                 # (block, 9, 9) each
        omega = (a2 @ a1 - a1 @ a2) * (math.sqrt(3.0) / 12.0 * h * h)
        omega += (0.5 * h) * (a1 + a2)
        for k, prop in enumerate(expm(omega), start + 1):
            r = prop @ r
            if j < samples and k == keep[j]:      # boundary k is a sample
                out[j] = r
                j += 1
    return out, boundaries[keep]


# --- public propagator -----------------------------------------------------

def propagate(config: Configuration, rates: RateSet, schedule: PulseSchedule,
              rho0: np.ndarray, settings: PropagatorSettings = None,
              samples: int = 1000,
              xi_appendix_verbatim: bool = False) -> Trajectory:
    """Propagate the master equation from rho0 over the horizon.

    `settings.basis` picks the equation and the meaning of rho0: the bare
    density matrix, or the dressed one, R(0) = U(0)^dag rho(0) U(0).
    `settings.method` picks the integrator: `_dop853` at `samples` uniform
    times, or `_magnus4` on `settings.n_slices` slices.  Either way the
    Trajectory carries the bare and the dressed density matrices and the
    frame diagnostics.
    """
    settings = settings or PropagatorSettings()
    settings.check_samples(samples)
    y0 = pack(_validate_initial(rho0, "rho0"))
    kernel = _generator_kernel(schedule, dissipator_superop(
        lindblad_ops(config, rates, xi_appendix_verbatim)), settings.basis)
    if settings.method == "expm_oracle":
        ys, times = _magnus4(kernel, y0, schedule.horizon, settings.n_slices,
                             samples)
    else:
        times = np.linspace(0.0, schedule.horizon, samples)
        ys, _ = _dop853(kernel, y0, times, settings.rel_tol, settings.abs_tol)
    fr = adiabatic.frame(schedule, times)
    rho = unpack(ys)
    if settings.basis == "adiabatic":
        rho = fr.U @ rho @ fr.U.conj().swapaxes(-1, -2)
    return _assemble(rho, fr, _invariant_margins(settings))


def closed_system_solution(frame: adiabatic.AdiabaticFrame, R0: np.ndarray,
                           t) -> np.ndarray:
    """Dressed-basis free evolution R_ij(t) = R_ij(0) exp(-i(lam_i-lam_j)t)
    for a static frame without dissipation."""
    lam = np.asarray(frame.lam)
    diff = lam[:, None] - lam[None, :]
    t = np.asarray(t, dtype=float)
    return np.exp(-1j * diff * t[..., None, None]) \
        * np.asarray(R0, dtype=complex)
