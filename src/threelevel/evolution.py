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
cos/sin(k phi).  One grid kernel, `_generator_kernel`, maps an array of
times to the stacked generators of either basis.

Two propagation routes call it: `_dop853`, the Dormand-Prince 8(5,3)
embedded pair of scipy's DOP853 run in-house so that each step attempt
builds all of its stage generators in one kernel call, and a
matrix-exponential oracle that takes fourth-order Magnus steps (two Gauss
nodes per slice) on the bare generator, exponentiated by `expm`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy   # submodules load on first use, keeping `import threelevel` light

from . import adiabatic
from .dissipation import Configuration, RateSet, dissipator, lindblad_ops
from .matops import ketbra
from .pulses import PulseSchedule

TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
PURITY_TOL = 1e-10

METHODS = ("adaptive_rk", "expm_oracle")
_ORACLE_BLOCK = 128   # slices per batched expm call; bounds peak memory


class PropagationError(RuntimeError):
    """Numerical failure during propagation (step underflow, invariant
    breach beyond 10x tolerance, or solver abort)."""


@dataclass(frozen=True)
class PropagatorSettings:
    method: str = "adaptive_rk"       # one of METHODS
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    n_slices: int = 4000              # expm_oracle slice count

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.rel_tol < 100 * np.finfo(float).eps:
            # scipy's DOP853 would raise it to this floor with a warning
            raise ValueError("rel_tol below 100 machine epsilons "
                             "cannot be met in double precision")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
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
    """Sampled density-matrix history with per-sample diagnostics."""

    times: np.ndarray            # (n,)
    rho: np.ndarray              # (n, 3, 3) bare basis
    R: np.ndarray                # (n, 3, 3) dressed basis
    purity: np.ndarray           # (n,)
    pops_bare: np.ndarray        # (n, 3)
    pops_adiabatic: np.ndarray   # (n, 3)
    theta: np.ndarray            # (n,)
    phi: np.ndarray              # (n,)
    lam: np.ndarray              # (n, 3)
    omega_p: np.ndarray          # (n,)
    omega_c: np.ndarray          # (n,)
    delta: np.ndarray            # (n,)
    floor_engaged: np.ndarray    # (n,) bool
    trace_err_max: float
    hermiticity_err_max: float
    min_eigenvalue: float


# --- real 9-vector representation -----------------------------------------

def pack(rho: np.ndarray) -> np.ndarray:
    """Hermitian 3x3 -> real 9-vector (populations, then Re/Im coherences)."""
    r = np.empty(9)
    r[0], r[1], r[2] = rho[0, 0].real, rho[1, 1].real, rho[2, 2].real
    r[3], r[4] = rho[0, 1].real, rho[0, 1].imag
    r[5], r[6] = rho[0, 2].real, rho[0, 2].imag
    r[7], r[8] = rho[1, 2].real, rho[1, 2].imag
    return r


def unpack(r: np.ndarray) -> np.ndarray:
    """Real 9-vector -> Hermitian 3x3."""
    rho = np.empty((3, 3), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2] = r[0], r[1], r[2]
    rho[0, 1] = r[3] + 1j * r[4]
    rho[0, 2] = r[5] + 1j * r[6]
    rho[1, 2] = r[7] + 1j * r[8]
    rho[1, 0] = np.conj(rho[0, 1])
    rho[2, 0] = np.conj(rho[0, 2])
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def unpack_many(rs: np.ndarray) -> np.ndarray:
    rs = np.asarray(rs)
    rho = np.empty(rs.shape[:-1] + (3, 3), dtype=complex)
    rho[..., 0, 0], rho[..., 1, 1], rho[..., 2, 2] = rs[..., 0], rs[..., 1], rs[..., 2]
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
    basis = unpack_many(np.eye(9))
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

    The bare generator is D + Omega_p Bp + Omega_c Bc + Delta Bd.  The
    dressed one weights `_dressed_table` by the quasienergies, the rotation
    rates and the harmonic products of the frame angles from
    `adiabatic.angles`.  A static schedule has one constant generator, which
    is built here and only broadcast over the times.
    """
    if basis == "bare":
        def at(t):
            delta, _ = schedule.delta(t)
            coef = np.stack([schedule.pump.value(t), schedule.stokes.value(t),
                             delta], axis=-1)
            return (coef @ _DRIVES).reshape(t.shape + (9, 9)) + d9
    else:
        table = _dressed_table(d9)

        def at(t):
            theta, phi, theta_dot, phi_dot, lam2, lam3 = adiabatic.angles(
                *schedule.rabi(t)[:6], *schedule.delta(t))
            waves = _harmonics(phi, 4)        # [..., 1:3]: cos, sin(phi)
            products = _harmonics(2.0 * theta, 2)[..., None] \
                * waves[..., None, :]
            coef = np.concatenate([
                np.stack([lam2, lam3, theta_dot * waves[..., 1],
                          theta_dot * waves[..., 2], phi_dot], axis=-1),
                products.reshape(t.shape + (45,))], axis=-1)
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


def _assemble(rho, fr: adiabatic.AdiabaticFrame) -> Trajectory:
    """Build a Trajectory from bare-basis samples at the frame's times,
    checking invariants."""
    u = fr.U
    ud = u.conj().swapaxes(-1, -2)
    big_r = ud @ rho @ u
    traces = np.einsum("nii->n", rho).real
    herm_err = np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)))
    eigmin = float(np.linalg.eigvalsh(rho).min())
    purity = np.einsum("nij,nji->n", rho, rho).real
    trace_err = float(np.max(np.abs(traces - 1.0)))

    if trace_err > 10 * TRACE_TOL:
        raise PropagationError(f"trace drifted by {trace_err:.3e}")
    if herm_err > 10 * HERMITICITY_TOL:
        raise PropagationError(f"hermiticity violated by {herm_err:.3e}")
    if eigmin < -10 * POSITIVITY_TOL:
        raise PropagationError(f"negative population {eigmin:.3e}")
    if purity.max() > 1.0 + 10 * PURITY_TOL \
            or purity.min() < 1.0 / 3.0 - 10 * PURITY_TOL:
        raise PropagationError("purity left [1/3, 1]")

    return Trajectory(
        times=fr.t,
        rho=rho,
        R=big_r,
        purity=purity,
        pops_bare=np.stack([rho[:, k, k].real for k in range(3)], axis=-1),
        pops_adiabatic=np.stack([big_r[:, k, k].real for k in range(3)],
                                axis=-1),
        theta=fr.theta,
        phi=fr.phi,
        lam=fr.lam,
        omega_p=fr.omega_p,
        omega_c=fr.omega_c,
        delta=fr.delta,
        floor_engaged=fr.floor_engaged,
        trace_err_max=trace_err,
        hermiticity_err_max=float(herm_err),
        min_eigenvalue=eigmin,
    )


# --- integration backends --------------------------------------------------

@functools.cache
def _dop853_tableau():
    """The DOP853 tableau, read once from the public class attributes of
    `scipy.integrate.DOP853` (loading `scipy.integrate` on first use), laid
    out for `_dop853`, whose buffer holds y in row 0 and stage k in row
    k + 1.  `nodes` are the times, in steps, of the generators an attempt
    needs: stages 1-11, the step end, the dense-output stages.  Row s of
    `h * a`, with 1 in column 0, combines buffer rows 0..s into
    y + h sum_k A[s, k] K[k], the argument of stage s (of the step end,
    from B, for s = 12).  The rows of `dense` are the interpolant's
    coefficients over the 16 stages, in units of h: B, e0 - B,
    2B - e0 - e12 (with y_new - y = h B.K), then D."""
    rk = scipy.integrate.DOP853
    n = rk.n_stages
    a = np.zeros((n + 4, n + 5))
    a[:n, 1:n + 1] = rk.A
    a[n, 1:n + 1] = rk.B
    a[n + 1:, 1:] = rk.A_EXTRA
    b = np.zeros(n + 4)
    b[:n] = rk.B
    e0, e_end = np.eye(n + 4)[[0, n]]
    dense = np.vstack([b, e0 - b, 2 * b - e0 - e_end, rk.D])
    return (np.concatenate([rk.C[1:], [1.0], rk.C_EXTRA]), a,
            np.stack([rk.E5, rk.E3]), dense, n, rk.error_estimator_order)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853(kernel, y0, times, rel_tol, abs_tol):
    """States at the ascending `times`, from y0 at times[0], of dy/dt =
    kernel(t) y under the Dormand-Prince 8(5,3) pair, and the number of
    accepted steps.

    This is scipy's DOP853, driven with output times, step for step: its
    initial step selection, the 12-stage first-same-as-last step, the
    combined E5/E3 error norm, step control with safety 0.9, factors in
    [0.2, 10] and exponent -1/8, and the 7th-order dense output, whose three
    extra stages are built only on steps that contain output times.  Only
    the grouping of the sums differs.  Each attempt makes one kernel call
    for all of its stage generators.  A step below ten spacings of the
    floating-point numbers at t raises PropagationError.
    """
    nodes, a, errors, dense, n, order = _dop853_tableau()
    exponent = -1 / (order + 1)
    buf = np.empty((len(a) + 1, y0.size))     # y, then stages 0..15
    views = [buf[:s + 1].T for s in range(len(a))]
    t, t_bound = float(times[0]), float(times[-1])
    y = y0
    buf[1] = f = kernel(t) @ y

    scale = abs_tol + np.abs(y) * rel_tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t)
    d2 = _rms((kernel(t + h0) @ (y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -exponent
    h_abs = min(100 * h0, h1, t_bound - t)

    out = np.empty((len(times), y0.size))
    done = steps = 0
    while t < t_bound:
        buf[0] = y
        min_step = 10 * abs(np.nextafter(t, np.inf) - t)
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
            weights = h * a
            weights[:, 0] = 1.0
            for s in range(1, n):
                np.matmul(gens[s - 1], views[s] @ weights[s, :s + 1],
                          out=buf[s + 1])
            y_new = views[n] @ weights[n, :n + 1]
            np.matmul(gens[n - 1], y_new, out=buf[n + 1])
            scale = abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * rel_tol
            err = errors @ buf[1:n + 2] / scale
            err5_2, err3_2 = (err * err).sum(axis=1)
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

        end = np.searchsorted(times, t_new, side="right")
        if end > done:
            for s in range(n + 1, len(a)):
                np.matmul(gens[s - 1], views[s] @ weights[s, :s + 1],
                          out=buf[s + 1])
            # y + sum_k w_k(x) F_k, w_k the running products of x, 1 - x,
            # x, ...: scipy's nested evaluation of the interpolant, expanded
            x = (times[done:end] - t) / h
            w = np.cumprod(np.stack([x, 1 - x] * 3 + [x], axis=-1), axis=-1)
            out[done:end] = y + h * (w @ dense @ buf[1:])
            done = end
        t, y = t_new, y_new
        buf[1] = buf[n + 1]
        steps += 1
    return out, steps


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


# --- public propagators ----------------------------------------------------

def propagate_bare(config: Configuration, rates: RateSet,
                   schedule: PulseSchedule, rho0: np.ndarray,
                   settings: PropagatorSettings = None, samples: int = 1000,
                   xi_appendix_verbatim: bool = False) -> Trajectory:
    """Propagate the bare-basis master equation from rho0 over the horizon.

    Returns a Trajectory sampled on `samples` uniform times, carrying both
    the bare and dressed density matrices plus frame diagnostics.
    """
    settings = settings or PropagatorSettings()
    settings.check_samples(samples)
    rho0 = _validate_initial(rho0, "rho0")
    if settings.method == "expm_oracle":
        return propagate_expm_oracle(config, rates, schedule, rho0,
                                     settings.n_slices, samples=samples,
                                     xi_appendix_verbatim=xi_appendix_verbatim)
    d9 = dissipator_superop(lindblad_ops(config, rates, xi_appendix_verbatim))
    times = np.linspace(0.0, schedule.horizon, samples)
    ys, _ = _dop853(_generator_kernel(schedule, d9, "bare"), pack(rho0),
                    times, settings.rel_tol, settings.abs_tol)
    return _assemble(unpack_many(ys), adiabatic.frame(schedule, times))


def propagate_adiabatic(config: Configuration, rates: RateSet,
                        schedule: PulseSchedule, R0: np.ndarray,
                        settings: PropagatorSettings = None,
                        samples: int = 1000,
                        xi_appendix_verbatim: bool = False) -> Trajectory:
    """Propagate the dressed-basis master equation from R0 over the horizon.

    The generator is one fixed table of real 9x9 blocks, built once per
    propagation by `_dressed_table`: the quasienergy and frame-rotation
    blocks, then the harmonic blocks of the bare-basis dissipator conjugated
    into the frame, W^-1 D W, which keeps the two propagators consistent by
    construction.  The grid kernel weights it at the stage times of every
    step attempt, from `adiabatic.angles` on numpy arrays.
    """
    settings = settings or PropagatorSettings()
    settings.check_samples(samples)
    R0 = _validate_initial(R0, "R0")
    if settings.method == "expm_oracle":
        raise ValueError("the expm oracle propagates the bare basis; "
                         "use propagate_expm_oracle")
    d9 = dissipator_superop(lindblad_ops(config, rates, xi_appendix_verbatim))
    times = np.linspace(0.0, schedule.horizon, samples)
    ys, _ = _dop853(_generator_kernel(schedule, d9, "adiabatic"), pack(R0),
                    times, settings.rel_tol, settings.abs_tol)
    fr = adiabatic.frame(schedule, times)
    rho = fr.U @ unpack_many(ys) @ fr.U.conj().swapaxes(-1, -2)
    return _assemble(rho, fr)


def propagate_expm_oracle(config: Configuration, rates: RateSet,
                          schedule: PulseSchedule, rho0: np.ndarray,
                          n_slices: int, samples: int = 1000,
                          xi_appendix_verbatim: bool = False) -> Trajectory:
    """Fourth-order Magnus matrix-exponential propagation (verification
    oracle).

    On each of `n_slices` uniform slices of width h the real 9x9 generator
    A(t) = D + Omega_p(t) Bp + Omega_c(t) Bc + Delta(t) Bd is sampled at the
    two Gauss-Legendre nodes, A1 and A2, and the slice propagator is the
    exact exponential of

        Omega = h/2 (A1 + A2) + (sqrt(3)/12) h^2 [A2, A1],

    which is fourth order in slice width.  Slices are exponentiated in
    batched blocks by `expm`, and no Runge-Kutta code is involved, so the
    result is an independent check of the adaptive integrator.  Samples are
    taken at the slice boundaries nearest `samples` uniform times.  The
    commutator term does not keep a step completely positive, so slices far
    too coarse for the drive can give negative populations, which raise
    PropagationError.
    """
    PropagatorSettings(method="expm_oracle",
                       n_slices=n_slices).check_samples(samples)
    rho0 = _validate_initial(rho0, "rho0")
    kernel = _generator_kernel(schedule, dissipator_superop(
        lindblad_ops(config, rates, xi_appendix_verbatim)), "bare")
    boundaries = np.linspace(0.0, schedule.horizon, n_slices + 1)
    keep = np.rint(np.linspace(0, n_slices, samples)).astype(int)
    h = boundaries[1] - boundaries[0]
    mids = 0.5 * (boundaries[:-1] + boundaries[1:])
    gauss = np.array([-1.0, 1.0]) * h / (2.0 * math.sqrt(3.0))

    out = np.empty((samples, 9))
    out[0] = r = pack(rho0)
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
    return _assemble(unpack_many(out), adiabatic.frame(schedule,
                                                       boundaries[keep]))


def closed_system_solution(frame: adiabatic.AdiabaticFrame, R0: np.ndarray,
                           t) -> np.ndarray:
    """Dressed-basis free evolution R_ij(t) = R_ij(0) exp(-i(lam_i-lam_j)t)
    for a static frame without dissipation."""
    lam = np.asarray(frame.lam)
    diff = lam[:, None] - lam[None, :]
    t = np.asarray(t, dtype=float)
    phase = np.exp(-1j * diff * t[..., None, None]) if t.ndim else \
        np.exp(-1j * diff * t)
    return phase * np.asarray(R0, dtype=complex)
