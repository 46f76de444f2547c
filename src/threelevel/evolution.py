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
lam2 C2 + lam3 C3 + [., F] + W^-1 D W, with W and W^-1 the superoperators
of R -> U R U^T and R -> U^T R U.  One builder, `real_superop`, makes
each superoperator by one call of its map on the nine basis matrices.  The
dressed dissipator is a trigonometric polynomial in the frame angles,
invariant under (theta, phi) -> (-theta, phi + pi), so it enters as a
table of 23 harmonic blocks, built once per propagation and weighted by
the products of cos(2k theta) with even and of sin(2k theta) with odd
harmonics cos/sin(k phi).  `_harmonic_weights` writes those 23 products,
in table order, as products of exp(i theta) and exp(i phi), which come
from the drives (`adiabatic.phasors`); the table is fitted through the
same function at its nodes.  One grid kernel, `_generator_kernel`, maps
an array of times to the stacked generators of either basis, on every
schedule, by one formula: a row of weights times the basis's block
table, [D; Bp; Bc; Bd] weighted by (1, Omega_p, Omega_c, Delta) when bare.

One public `propagate` builds the kernel of the basis its settings name,
turns it into one map per interval between ascending edges, and hands the
maps to `_chain`, which checks each against the trace and applies them;
so every route is trace-checked between samples.  The default method,
`_segmented`, uses that the generator does not depend on the state: it
cuts the horizon into `_SEGMENTS` equal time segments, fixed in time
whatever the output times, and `_dop853`, the Dormand-Prince 8(5,3)
embedded pair (DOP853, with the tableau in `_dop853_coefficients`) run
in-house, integrates the propagator of every segment from the identity,
all segments in lockstep.  Each pass makes one kernel call for the 14
stage generators of every active segment, and step control holds each
column of each propagator to the tolerances.  The segment-end propagators
go to `_chain`, and each output is its segment's interpolated propagator
applied to its start state.  The oracle, `_magnus4`, takes fourth-order
Magnus steps (two Gauss nodes per slice) exponentiated by `expm` in
blocks of `_ORACLE_BLOCK` slices: seven batched matrix products per block
evaluate the Taylor polynomial (Paterson-Stockmeyer), and one more per
halving squares the slices whose exponent has a 1-norm of 1 or more; its
slice maps go to `_chain`, and the samples are the slice boundaries
nearest the uniform output times.  So each integrator runs in either
basis, and the two bases and the two integrators are independent
cross-checks of one another.  A static schedule (constant drives and
detuning) has one constant generator G, and the default method then
integrates nothing: one Magnus slice over one sample interval is the exact
step map exp(G dt), and `_chain` checks it once and applies it once per
sample, so rel_tol and abs_tol do not apply to it.  The oracle keeps its
`n_slices` slices on static schedules too.
"""

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
_ORACLE_BLOCK = 128   # slices per batched expm call; bounds its temporaries
_SEGMENTS = 64        # time segments `_dop853` steps in lockstep


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

    @functools.cached_property
    def purity(self) -> np.ndarray:
        """(n,) Tr(rho^2): 1 for a pure state, 1/3 for the mixed one,
        evaluated once."""
        return np.einsum("nij,nji->n", self.rho, self.rho).real


# --- real 9-vector representation -----------------------------------------

_UPPER = ([0, 0, 1], [1, 2, 2])    # upper-triangle indices, packed order


def pack(rho: np.ndarray) -> np.ndarray:
    """Hermitian 3x3 matrices -> real 9-vectors (populations, then Re, Im
    of each upper-triangle coherence), over any leading axes."""
    rho = np.asarray(rho)
    upper = rho[..., _UPPER[0], _UPPER[1]]
    r = np.empty(rho.shape[:-2] + (9,))
    r[..., :3] = np.diagonal(rho, axis1=-2, axis2=-1).real
    r[..., 3::2], r[..., 4::2] = upper.real, upper.imag
    return r


def unpack(rs: np.ndarray) -> np.ndarray:
    """Real 9-vectors -> Hermitian 3x3 matrices, over any leading axes."""
    rs = np.asarray(rs)
    rho = np.empty(rs.shape[:-1] + (3, 3), dtype=complex)
    rho[..., range(3), range(3)] = rs[..., :3]
    upper = rs[..., 3::2] + 1j * rs[..., 4::2]
    rho[..., _UPPER[0], _UPPER[1]] = upper
    rho[..., _UPPER[1], _UPPER[0]] = np.conj(upper)
    return rho


_BASIS = unpack(np.eye(9))    # the B_k of rho = sum_k r_k B_k


def real_superop(apply_map) -> np.ndarray:
    """Real matrices, shape s + (9, 9), of a stack s of Hermiticity-
    preserving linear maps on rho (s = () for one), from one call of
    `apply_map` on the stack of the nine B_k: column k packs B_k's image."""
    return pack(apply_map(_BASIS)).swapaxes(-1, -2)


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

# The trace row: tr(rho) = _TRACE . pack(rho), and _TRACE G = 0 for the
# generator G of either basis, since both equations keep the trace.
_TRACE = pack(np.eye(3))


def _harmonic_weights(e_theta, e_phi, out):
    """The 23 harmonic products of the frame angles that the dressed table
    keeps, from exp(i theta) and exp(i phi) of shape s, written into `out`
    of shape s + (23,) and returned, in table order: (1, cos 2theta,
    cos 4theta) times the even harmonics (1, cos 2phi, sin 2phi, cos 4phi,
    sin 4phi), then (sin 2theta, sin 4theta) times the odd ones (cos phi,
    sin phi, cos 3phi, sin 3phi), row-major.  The factors are float views
    of one complex array (1, exp(2i theta), exp(4i theta), i, exp(2i phi),
    exp(4i phi), exp(i phi), exp(3i phi)), whose 1 and i supply the leading
    1 of the cosines of theta and of the even harmonics of phi."""
    shape = np.shape(e_phi)
    waves = np.empty(shape + (8,), dtype=complex)
    waves[..., 0:4:3] = (1.0, 1j)
    waves[..., 6] = e_phi
    np.multiply(e_theta, e_theta, out=waves[..., 1])
    np.multiply(waves[..., 1], waves[..., 1], out=waves[..., 2])
    np.multiply(e_phi, e_phi, out=waves[..., 4])
    np.multiply(waves[..., 4], waves[..., 4], out=waves[..., 5])
    np.multiply(waves[..., 4], e_phi, out=waves[..., 7])
    flat = waves.view(float)
    np.multiply(flat[..., 0:6:2, None], flat[..., None, 7:12],
                out=out[..., :15].reshape(shape + (3, 5)))
    np.multiply(flat[..., 3:6:2, None], flat[..., None, 12:],
                out=out[..., 15:].reshape(shape + (2, 4)))
    return out


# W^-1 D W is bilinear in W and W^-1, each quadratic in the entries of
# U = A(theta) B(phi), so it is a trigonometric polynomial of degree 4 in
# theta and in phi.  Every jump operator is a multiple of some |i><j|, so D
# commutes with conjugation by any diagonal sign matrix S: W_S^-1 D W_S = D,
# and W^-1 D W does not change when U becomes S U.  With S = A(pi) =
# diag(-1, -1, 1), U(theta + pi, phi) = S U(theta, phi), so only even
# harmonics of theta remain: degree 2 in 2 theta (5 functions) times degree
# 4 in phi (9).  With S = diag(1, -1, -1), U(-theta, phi + pi) =
# S U(theta, phi), so W^-1 D W is also unchanged by (theta, phi) ->
# (-theta, phi + pi), which keeps cos(2k theta) and flips sin(2k theta),
# and keeps the even harmonics of phi and flips the odd ones.  So the
# cosines of 2 theta pair only with even harmonics of phi (3 x 5 blocks)
# and the sines only with odd ones (2 x 4), 23 of the 45 products.  The
# blocks follow from W^-1 D W at a tensor grid of equispaced nodes, one
# period each: exp(i theta) runs over exp(i pi k / 5) and exp(i phi) over
# the ninth roots of unity.  The 45 harmonics are orthogonal over that
# grid, so the pseudo-inverse of the 23 kept products there gives the
# blocks (the other 22 give zero up to rounding).  W and W^-1 at the
# nodes, the superoperators of R -> U R U^T and of R -> U^T R U, do not
# depend on the rates and are built here once.
_NODES = (np.repeat(np.exp(1j * np.pi / 5 * np.arange(5)), 9),
          np.tile(np.exp(2j * np.pi / 9 * np.arange(9)), 5))
_HARMONIC_INV = np.linalg.pinv(_harmonic_weights(*_NODES, np.empty((45, 23))))
_NODE_U = adiabatic.rotation(*_NODES)[:, None]           # (45, 1, 3, 3)
_NODE_W = real_superop(lambda r: _NODE_U @ r @ _NODE_U.mT)
_NODE_W_INV = real_superop(lambda r: _NODE_U.mT @ r @ _NODE_U)


def _dressed_table(d9: np.ndarray) -> np.ndarray:
    """(28, 81) blocks of the dressed generator: the five `_DRESSED` blocks,
    then the 23 harmonic blocks of W^-1 D W, fitted through its values at
    the 45 nodes, row-major over the products of (1, cos 2theta,
    cos 4theta) with the even harmonics of phi, then of (sin 2theta,
    sin 4theta) with the odd ones, as `_harmonic_weights` orders them."""
    return np.concatenate([_DRESSED, _HARMONIC_INV @ (
        _NODE_W_INV @ d9 @ _NODE_W).reshape(45, 81)])


def dissipator_superop(ops: list) -> np.ndarray:
    return real_superop(lambda rho: dissipator(ops, rho))


def _generator_kernel(schedule: PulseSchedule, d9: np.ndarray, basis: str):
    """The grid generator kernel of one propagation: a function mapping an
    array of times t to the stacked real generators, shape t.shape + (9, 9),
    written into `out` if one is given, of the bare (`basis="bare"`) or the
    dressed (`"adiabatic"`) master equation with bare-basis dissipator
    superoperator `d9`.

    In both bases the generator is a weight row times a table of fixed
    blocks, built here once per propagation: one matmul per call.  The bare
    table is [D; Bp; Bc; Bd], weighted by (1, Omega_p, Omega_c, Delta), on
    any schedule; each of the 81 entries is nonzero in at most one of the
    four blocks, so the sum is exact.  The dressed table is
    `_dressed_table`, weighted by the quasienergies, the rotation rates and
    the 23 harmonic products of the frame angles that its parity keeps,
    from `adiabatic.phasors` and `_harmonic_weights`.  A static schedule
    gets no formula of its own: both methods read its kernel at Magnus
    Gauss nodes (`_magnus4`), as on any schedule.
    """
    if basis == "bare":
        table = np.concatenate([d9.reshape(1, 81), _DRIVES])

        def weigh(t, w):
            w[..., 0] = 1.0
            w[..., 1] = schedule.pump.value(t)
            w[..., 2] = schedule.stokes.value(t)
            w[..., 3] = schedule.delta(t)[0]
    else:
        table = _dressed_table(d9)

        def weigh(t, w):
            e_theta, e_phi, theta_dot, phi_dot, lam2, lam3 = \
                adiabatic.phasors(*schedule.rabi(t)[:8])
            w[..., 0], w[..., 1], w[..., 4] = lam2, lam3, phi_dot
            np.multiply(theta_dot[..., None], e_phi[..., None].view(float),
                        out=w[..., 2:4])
            _harmonic_weights(e_theta, e_phi, w[..., 5:])

    def kernel(t, out=None):
        t = np.asarray(t, dtype=float)
        if out is None:
            out = np.empty(t.shape + (9, 9))
        weights = np.empty(t.shape + (len(table),))
        weigh(t, weights)
        np.matmul(weights, table, out=out.reshape(t.shape + (81,)))
        return out
    return kernel


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


def _invariant_margins(settings: PropagatorSettings, static: bool) -> tuple:
    """How far `_assemble` lets populations go below 0 and purity leave
    [1/3, 1]: ten times POSITIVITY_TOL and PURITY_TOL, scaled by
    rel_tol / 1e-9 where the adaptive method integrates a time-dependent
    (not `static`) generator above its default rel_tol of 1e-9, since its
    error, and these drifts with it, grow with rel_tol.  At the default and
    tighter tolerances, for a static schedule, whose exact step map has no
    tolerance-driven error, and for the oracle, which has no rel_tol, they
    are the fixed margins."""
    scale = 1.0
    if settings.method == "adaptive_rk" and not static:
        scale = max(1.0, settings.rel_tol / _DEFAULT_REL_TOL)
    return 10 * POSITIVITY_TOL * scale, 10 * PURITY_TOL * scale


def _assemble(rho, fr: adiabatic.AdiabaticFrame,
              margins: tuple) -> Trajectory:
    """Build a Trajectory from bare-basis samples at the frame's times,
    checking invariants; `margins` are `_invariant_margins`.  A sample
    with a non-finite entry raises PropagationError naming its time."""
    finite = np.isfinite(rho).all(axis=(-2, -1))
    if not finite.all():
        raise PropagationError(
            f"non-finite state at t={fr.t[np.argmin(finite)]:.6g}")
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
    out for `_dop853`, whose stage buffer holds y in row 0 and h times
    stage k in row k + 1.  `nodes` are the times, in steps, of the 14
    generators an attempt needs: stages 1-11, the last of which, at c = 1,
    is also the step end's (the first-same-as-last derivative), then the
    three dense-output stages.  Row s of `a`, with 1 in column 0, combines
    buffer rows 0..s into y + h sum_k A[s, k] K[k], the argument of stage s
    (of the step end, from B, for s = 12).  The rows of `dense` are the
    interpolant's coefficients over the 16 scaled stages: B, e0 - B,
    2B - e0 - e12 (with y_new - y = h B.K), then D."""
    n = rk.N_STAGES
    a = np.zeros((n + 4, n + 5))
    a[:, 0] = 1.0
    a[:n, 1:n + 1] = rk.A
    a[n, 1:n + 1] = rk.B
    a[n + 1:, 1:] = rk.A_EXTRA
    b = np.zeros(n + 4)
    b[:n] = rk.B
    e0, e_end = np.eye(n + 4)[[0, n]]
    dense = np.vstack([b, e0 - b, 2 * b - e0 - e_end, rk.D])
    return (np.concatenate([rk.C[1:], rk.C_EXTRA]), a,
            np.stack([rk.E5, rk.E3]), dense, n, rk.ERROR_ESTIMATOR_ORDER)


def _column_rms(x):
    """RMS over axis 1 of (segments, 9, columns): scipy's norm of each
    column."""
    return np.sqrt(np.sum(x * x, axis=1)) / x.shape[1] ** 0.5


def _dop853(kernel, block, edges, times, rel_tol, abs_tol):
    """Solutions of dY/dt = kernel(t) Y on the time segments between the
    ascending `edges`, segment k from `block[k]` at edges[k], under the
    Dormand-Prince 8(5,3) pair, with `block` of shape (segments, 9, c).
    Returns, for each of the ascending `times`, the solution on the segment
    that owns it (the last segment whose start it has reached), shape
    (len(times), 9, c); the value at each segment's end, shape
    (segments, 9, c); and the accepted steps summed over segments.

    On each segment this is scipy's DOP853, step for step, with each
    column of Y held to the tolerances as scipy holds one state vector:
    its initial step selection (the smallest over the columns), the
    12-stage first-same-as-last step, the combined E5/E3 error norm of each
    column, step control with safety 0.9, factors in [0.2, 10] and
    exponent -1/8 on the largest column norm, so a step is accepted only
    when every column passes, and the 7th-order dense output (Hairer,
    Norsett & Wanner, Solving ODEs I, II.6).  With one segment and one
    column it is scipy's DOP853; only the grouping of the sums differs.

    The segments advance in lockstep, one attempt each per pass: one
    kernel call builds the stage generators of every active segment, at
    the 14 `nodes` of `_dop853_tableau` (stage 11 and the step end share
    t + h), which are scaled by their step in place, and each stage is one
    `np.dot` of a tableau row with the stage buffer (h K, stage-major) and
    one batched matmul.  On a pass where some accepted step holds output
    times, the three extra stages and the interpolant's seven rows are
    computed for every active segment, and those outputs are evaluated at
    once.  A
    segment leaves the pass when it reaches its end.  A step below ten
    spacings of the floating-point numbers at t raises PropagationError.
    """
    nodes, a, errors, dense, n, order = _dop853_tableau()
    exponent = -1 / (order + 1)
    segments, dim, cols = block.shape
    width = dim * cols

    # per active segment, in this order: its index, time, end, step, last
    # attempt rejected, state, derivative, next and past-last output
    ids = np.arange(segments)
    t, bound = edges[:-1].copy(), edges[1:].copy()
    y = np.array(block, dtype=float)
    f = np.matmul(kernel(t), y)
    done = np.searchsorted(times, t)
    last = np.append(done[1:], len(times))

    scale = abs_tol + np.abs(y) * rel_tol
    d0, d1 = _column_rms(y / scale), _column_rms(f / scale)
    span = (bound - t)[:, None]
    # each np.maximum below only keeps the branch np.where drops finite
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6,
                  0.01 * d0 / np.maximum(d1, 1e-5))
    h0 = np.minimum(h0, span)
    f1 = np.einsum("scij,sjc->sic", kernel(t[:, None] + h0),
                   y + h0[:, None] * f)
    d2 = _column_rms((f1 - f) / scale) / h0
    peak = np.maximum(d1, d2)
    h1 = np.where(peak <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(peak, 1e-15)) ** -exponent)
    h_abs = np.minimum(np.minimum(100 * h0, h1), span).min(axis=1)
    y, f = y.reshape(segments, width), f.reshape(segments, width)
    rejected = np.zeros(segments, dtype=bool)

    gen_buf = np.empty(segments * len(nodes) * dim * dim)
    stage_buf = np.empty((len(a) + 1) * segments * width)
    arg_buf = np.empty(segments * width)
    interp_buf = np.empty(len(dense) * segments * width)
    outputs = np.empty((len(times), width))
    ends = np.empty((segments, width))
    steps = 0
    while ids.size:
        active = ids.size
        size = active * width
        stages = stage_buf[:(len(a) + 1) * size].reshape(len(a) + 1, size)
        gens = gen_buf[:active * len(nodes) * dim * dim].reshape(
            active, len(nodes), dim, dim)
        min_step = 10 * np.spacing(t)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        small = h_abs < min_step
        if small.any():
            raise PropagationError(
                f"adaptive integration failed near t={t[small][0]:.6g}: "
                f"required step size is less than spacing between numbers")
        t_new = np.minimum(t + h_abs, bound)
        h = t_new - t
        kernel(t[:, None] + nodes * h[:, None], out=gens)
        gens *= h[:, None, None, None]
        stages[0] = y.reshape(size)
        np.multiply(f, h[:, None], out=stages[1].reshape(active, width))
        arg = arg_buf[:size]
        for s in range(1, n):
            np.dot(a[s, :s + 1], stages[:s + 1], out=arg)
            np.matmul(gens[:, s - 1], arg.reshape(active, dim, cols),
                      out=stages[s + 1].reshape(active, dim, cols))
        y_new = np.dot(a[n, :n + 1], stages[:n + 1])
        # the step end reuses stage 11's generator, at t + h; so from here
        # on, stage s takes generator s - 2
        np.matmul(gens[:, n - 2], y_new.reshape(active, dim, cols),
                  out=stages[n + 1].reshape(active, dim, cols))

        scale = np.maximum(np.abs(stages[0]), np.abs(y_new))
        scale *= rel_tol
        scale += abs_tol
        err = np.dot(errors, stages[1:n + 2])
        err /= scale
        err = err.reshape(2, active, dim, cols)
        err5_2, err3_2 = np.einsum("nsic,nsic->nsc", err, err)
        denom = np.sqrt((err5_2 + 0.01 * err3_2) * dim)
        error_norm = np.divide(err5_2, denom, out=np.zeros_like(denom),
                               where=denom != 0).max(axis=1)
        # the factor from a zero norm, clipped to 10 below, stays 10
        factor = 0.9 * np.maximum(error_norm, 1e-300) ** exponent
        ok = error_norm < 1
        grow = np.minimum(10.0, factor)
        h_abs = h * np.where(ok, np.where(rejected, np.minimum(1.0, grow),
                                          grow), np.fmax(0.2, factor))
        y_new = y_new.reshape(active, width)

        end = np.minimum(np.searchsorted(times, t_new, side="right"), last)
        owns = ok & (end > done)
        if owns.any():
            for s in range(n + 1, len(a)):
                np.dot(a[s, :s + 1], stages[:s + 1], out=arg)
                np.matmul(gens[:, s - 2], arg.reshape(active, dim, cols),
                          out=stages[s + 1].reshape(active, dim, cols))
            interp = interp_buf[:len(dense) * size].reshape(len(dense),
                                                            size)
            np.dot(dense, stages[1:], out=interp)
            interp = interp.reshape(len(dense), active, width)
            pos = np.flatnonzero(owns)
            count = end[pos] - done[pos]
            seg = np.repeat(pos, count)
            out = np.arange(count.sum()) + np.repeat(
                done[pos] - np.cumsum(count) + count, count)
            # y + sum_k w_k(x) F_k, w_k the running products of x, 1 - x,
            # x, ...: scipy's nested evaluation of the interpolant, expanded
            x = (times[out] - t[seg]) / h[seg]
            w = np.cumprod(np.stack([x, 1 - x] * 3 + [x], axis=-1), axis=-1)
            outputs[out] = y[seg] + np.matmul(
                w[:, None], interp[:, seg].swapaxes(0, 1))[:, 0]
            done[pos] = end[pos]

        steps += int(np.count_nonzero(ok))
        y[ok] = y_new[ok]
        f[ok] = stages[n + 1].reshape(active, width)[ok] / h[ok, None]
        t = np.where(ok, t_new, t)
        rejected = ~ok
        finished = ok & (t_new == bound)
        if finished.any():
            ends[ids[finished]] = y_new[finished]
            keep = ~finished
            ids, t, bound, h_abs, rejected, y, f, done, last = (
                v[keep] for v in (ids, t, bound, h_abs, rejected, y, f,
                                  done, last))
    return (outputs.reshape(len(times), dim, cols),
            ends.reshape(block.shape), steps)


def _chain(maps, edges, y0):
    """States at the ascending `edges`, y_{k+1} = maps[k] y_k from y0, after
    checking that each interval map keeps the trace, tau Phi_k = tau with
    tau = pack(I), to 10 x TRACE_TOL; else PropagationError names the worst
    interval, and a non-finite map fails too.  `maps` holds one map per
    interval, or one map, shape (1, 9, 9), that every interval shares; each
    distinct map is checked once, and a leaking shared map is named as the
    first interval.  Every map of every method passes here: the segment
    propagators of `_segmented`, the oracle's slice maps and a static
    schedule's step map, so the trace holds between samples too."""
    drift = np.abs(_TRACE @ maps - _TRACE).max(axis=-1)
    if not drift.max() <= 10 * TRACE_TOL:
        k = int(np.argmax(drift))          # a nan drift counts as the largest
        raise PropagationError(
            f"trace drifted by {drift[k]:.3e} over [{edges[k]:.6g}, "
            f"{edges[k + 1]:.6g}]")
    ys = np.empty((len(edges), y0.size))
    ys[0] = y0
    for phi, y, y_next in zip(np.broadcast_to(
            maps, (len(edges) - 1,) + maps.shape[1:]), ys, ys[1:]):
        np.matmul(phi, y, out=y_next)
    return ys


def _segmented(kernel, y0, times, rel_tol, abs_tol):
    """States at the ascending `times`, from y0 at times[0], of
    dy/dt = kernel(t) y, from the propagators of `_SEGMENTS` equal time
    segments.

    The generator does not depend on the state, so `_dop853` integrates
    each segment's propagator, Y' = kernel(t) Y with Y = I at the segment's
    start, for all segments at once.  `_chain` checks the segment-end
    propagators Phi_k and chains them into the segment starts,
    y_{k+1} = Phi_k y_k, and each output is Phi(t) y_k on its segment.
    """
    edges = np.linspace(times[0], times[-1], _SEGMENTS + 1)
    eye = np.broadcast_to(np.eye(y0.size), (_SEGMENTS, y0.size, y0.size))
    phis, ends, _ = _dop853(kernel, eye, edges, times, rel_tol, abs_tol)
    starts = _chain(ends, edges, y0)
    owner = np.searchsorted(edges[1:-1], times, side="right")
    return np.matmul(phis, starts[owner, :, None])[..., 0]


# Row j holds the coefficients 1/(4j + i)!, i = 0..3, of
# B_j = sum_i X^i / (4j + i)!, the blocks of the degree-18 Taylor polynomial
# sum_j Y^j B_j in Y = X^4 (B_4 stops at X^2).
_TAYLOR_BLOCKS = np.array([[1.0 / math.factorial(4 * j + i)
                            if 4 * j + i <= 18 else 0.0 for i in range(4)]
                           for j in range(5)])


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each real square matrix in a stack.

    Each matrix A is scaled to X = 2^-s A, with s >= 0 the smallest power
    that brings its 1-norm below 1, exponentiated by its Taylor series of
    degree 18, whose remainder is then below 1e-17 in 1-norm, and squared s
    times.  The series is evaluated by Paterson and Stockmeyer's scheme
    (SIAM J. Comput. 2, 60 (1973)) as B0 + Y(B1 + Y(B2 + Y(B3 + Y B4)))
    with Y = X^4 and each B_j a combination of I, X, X^2 and X^3: seven
    matrix products per stack (X^2, X^3, X^4 and four Horner steps) where
    Horner's rule in X takes seventeen.
    """
    a = np.asarray(a, dtype=float)
    _, s = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))
    s = np.maximum(s, 0)
    powers = np.empty((4,) + a.shape)        # I, X, X^2, X^3
    powers[0] = np.eye(a.shape[-1])
    # a power of two: the scaling is exact
    np.multiply(a, np.ldexp(1.0, -s)[..., None, None], out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    y = powers[2] @ powers[2]
    blocks = (_TAYLOR_BLOCKS @ powers.reshape(4, -1)).reshape(
        (5,) + a.shape)
    out = blocks[4]
    for block in blocks[3::-1]:
        out = y @ out
        out += block
    for k in range(s.max(initial=0)):
        out = np.where((s > k)[..., None, None], out @ out, out)
    return out


def _magnus4(kernel, edges):
    """Fourth-order Magnus maps of dy/dt = kernel(t) y over the uniform
    slices between `edges`, shape (len(edges) - 1, 9, 9): the verification
    oracle's slice propagators, and a static schedule's one step map.

    On each slice of width h the generator is sampled at the two
    Gauss-Legendre nodes, A1 and A2, and the slice map is the exact
    exponential of

        Omega = h/2 (A1 + A2) + (sqrt(3)/12) h^2 [A2, A1],

    which is fourth order in slice width.  Slices are exponentiated in
    blocks of `_ORACLE_BLOCK` by `expm`, and no Runge-Kutta code is
    involved, so the oracle is an independent check of the adaptive
    integrator.  The commutator term does not keep a step completely
    positive, so slices far too coarse for the drive can give negative
    populations, which `_assemble` rejects.  On a constant generator G the
    two nodes give the same G, bit for bit, so the commutator is exactly 0
    and the map is exp(G h), exact up to rounding.
    """
    h = edges[1] - edges[0]
    mids = 0.5 * (edges[:-1] + edges[1:])
    gauss = np.array([-1.0, 1.0]) * h / (2.0 * math.sqrt(3.0))
    maps = np.empty((len(mids), 9, 9))
    for start in range(0, len(mids), _ORACLE_BLOCK):
        a = kernel(mids[start:start + _ORACLE_BLOCK, None] + gauss)
        a1, a2 = a[:, 0], a[:, 1]                 # (block, 9, 9) each
        omega = (a2 @ a1 - a1 @ a2) * (math.sqrt(3.0) / 12.0 * h * h)
        omega += (0.5 * h) * (a1 + a2)
        maps[start:start + _ORACLE_BLOCK] = expm(omega)
    return maps


# --- public propagator -----------------------------------------------------

def propagate(config: Configuration, rates: RateSet, schedule: PulseSchedule,
              rho0: np.ndarray, settings: PropagatorSettings = None,
              samples: int = 1000,
              xi_appendix_verbatim: bool = False) -> Trajectory:
    """Propagate the master equation from rho0 over the horizon.

    `settings.basis` picks the equation and the meaning of rho0: the bare
    density matrix, or the dressed one, R(0) = U(0)^dag rho(0) U(0).
    `settings.method` picks the integrator: for "adaptive_rk", `_segmented`
    at `samples` uniform times, held to `rel_tol` and `abs_tol`, or, when
    `schedule.is_static`, one `_magnus4` slice over the first sample
    interval, the exact step map that every interval shares, to which the
    tolerances do not apply; for "expm_oracle", `_magnus4` on
    `settings.n_slices` slices, static or not, sampled at the slice
    boundaries nearest `samples` uniform times.  Every route's maps go
    through `_chain`.  Either way the Trajectory carries the bare and the
    dressed density matrices and the frame diagnostics.
    """
    settings = settings or PropagatorSettings()
    settings.check_samples(samples)
    y0 = pack(_validate_initial(rho0, "rho0"))
    kernel = _generator_kernel(schedule, dissipator_superop(
        lindblad_ops(config, rates, xi_appendix_verbatim)), settings.basis)
    if settings.method == "expm_oracle":
        edges = np.linspace(0.0, schedule.horizon, settings.n_slices + 1)
        keep = np.rint(np.linspace(0, settings.n_slices, samples)).astype(int)
        ys = _chain(_magnus4(kernel, edges), edges, y0)[keep]
        times = edges[keep]
    else:
        times = np.linspace(0.0, schedule.horizon, samples)
        if schedule.is_static:
            ys = _chain(_magnus4(kernel, times[:2]), times, y0)
        else:
            ys = _segmented(kernel, y0, times, settings.rel_tol,
                            settings.abs_tol)
    fr = adiabatic.frame(schedule, times)
    rho = unpack(ys)
    if settings.basis == "adiabatic":
        rho = fr.U @ rho @ fr.U.conj().swapaxes(-1, -2)
    return _assemble(rho, fr, _invariant_margins(settings,
                                                 schedule.is_static))


def closed_system_solution(frame: adiabatic.AdiabaticFrame, R0: np.ndarray,
                           t) -> np.ndarray:
    """Dressed-basis free evolution R_ij(t) = R_ij(0) exp(-i(lam_i-lam_j)t)
    for a static frame without dissipation."""
    lam = np.asarray(frame.lam)
    diff = lam[:, None] - lam[None, :]
    t = np.asarray(t, dtype=float)
    return np.exp(-1j * diff * t[..., None, None]) \
        * np.asarray(R0, dtype=complex)
