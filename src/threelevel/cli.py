"""Scenario runner and sweep engine.

Scenarios are described by flat dotted-key text files (``key = value`` lines,
``#`` comments); all physical quantities are dimensionless in units of the
scenario horizon.  Four builtin scenarios reproduce the standard experiments:
counterintuitive and intuitive transfer, the purity-versus-detuning sweep,
and the Hadamard-type hold at theta = pi/4.  The ``rates.*``, ``detuning.*``
and ``propagator.*`` keys fill one `RateSet`, `DetuningSchedule` and
`PropagatorSettings`, which check them; a number that is not finite is
rejected under its key.  A config is a grid of points (one point without
``sweep.*`` axes): `_points` builds and checks each, and `run_sweep` runs
each as one `evolution.propagate` call, for `run` and `sweep` alike.

Command line:

    threelevel [flags] run <config-or-builtin>
    threelevel [flags] sweep <config-or-builtin>
    threelevel list-builtins
    threelevel [flags] validate <config-or-builtin>

with flags, given before the subcommand, --out-dir (default from
THREELEVEL_OUT_DIR or cwd), --workers, and --samples, --method, --tol,
which are shorthand for config keys (`_flag_keys`), so a config is built
and checked once.  `run` refuses a config with sweep axes.  Exit codes:
0 success, 2 config error (a config file that cannot be read included),
3 failure of any point, numerical or in writing its table, which is
reported as ``[id] FAILED: <message>``.
"""

import argparse
import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .adiabatic import frame
from .analysis import StabilityReport, stability_report
from .dissipation import Configuration, RateSet
from .evolution import (METHODS, PropagationError, PropagatorSettings,
                        Trajectory, propagate)
from .pulses import DetuningSchedule, make_stirap_schedule

OUT_DIR_ENV = "THREELEVEL_OUT_DIR"

_INITIAL_STATES = {
    "bare_1": np.diag([1.0, 0.0, 0.0]),
    "bare_2": np.diag([0.0, 1.0, 0.0]),
    "bare_3": np.diag([0.0, 0.0, 1.0]),
    "superposition_minus": np.array([[0.5, -0.5, 0.0],
                                     [-0.5, 0.5, 0.0],
                                     [0.0, 0.0, 0.0]]),
    "superposition_plus": np.array([[0.5, 0.5, 0.0],
                                    [0.5, 0.5, 0.0],
                                    [0.0, 0.0, 0.0]]),
    "adiabatic_1": None,  # dressed sigma_nn, converted at t = 0
    "adiabatic_2": None,
    "adiabatic_3": None,
}


class ConfigError(ValueError):
    """Invalid scenario configuration; carries the offending keys."""

    def __init__(self, problems):
        self.problems = dict(problems)
        lines = "; ".join(f"{k}: {v}" for k, v in self.problems.items())
        super().__init__(f"invalid configuration ({lines})")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "custom"
    configuration: Configuration = Configuration.LAMBDA
    horizon: float = 1.0
    initial_state: str = "bare_1"
    rates: RateSet = field(default_factory=RateSet)
    xi_appendix_verbatim: bool = False
    peak_omega: float = 100.0
    width: float = None
    delay: float = None
    ordering: str = "counterintuitive"
    detuning: DetuningSchedule = field(default_factory=DetuningSchedule)
    settings: PropagatorSettings = field(default_factory=PropagatorSettings)
    samples: int = 1000
    sweep: tuple = ()   # ((dotted key, (values...)), ...)


@dataclass(frozen=True)
class RunRecord:
    scenario_id: str
    params: dict
    table_path: str
    stability: StabilityReport
    summary: dict
    error: str = None


# --- flat dotted-key config format -----------------------------------------

def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text):
    """The one numeric converter: a finite float, else ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# key -> (attribute path on ScenarioConfig, converter)
_KEY_TABLE = {
    "scenario": ("scenario", str),
    "configuration": ("configuration", Configuration),
    "horizon": ("horizon", _parse_float),
    "initial_state": ("initial_state", str),
    "rates.gamma1": ("rates.gamma1", _parse_float),
    "rates.gamma2": ("rates.gamma2", _parse_float),
    "rates.gamma1_deph": ("rates.gamma1_deph", _parse_float),
    "rates.gamma2_deph": ("rates.gamma2_deph", _parse_float),
    "rates.gamma3_deph": ("rates.gamma3_deph", _parse_float),
    "dissipation.xi_appendix_verbatim": ("xi_appendix_verbatim", _parse_bool),
    "pulses.peak_omega": ("peak_omega", _parse_float),
    "pulses.width": ("width", _parse_float),
    "pulses.delay": ("delay", _parse_float),
    "pulses.ordering": ("ordering", str),
    "detuning.kind": ("detuning.kind", str),
    "detuning.delta0": ("detuning.delta0", _parse_float),
    "detuning.gamma1": ("detuning.gamma1", _parse_float),
    "detuning.t0": ("detuning.t0", _parse_float),
    "propagator.method": ("settings.method", str),
    "propagator.rel_tol": ("settings.rel_tol", _parse_float),
    "propagator.abs_tol": ("settings.abs_tol", _parse_float),
    "propagator.n_slices": ("settings.n_slices", int),
    "propagator.basis": ("settings.basis", str),
    "output.samples": ("samples", int),
}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into an ordered mapping of strings."""
    mapping = {}
    problems = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems[f"line {lineno}"] = f"not a key = value pair: {raw.strip()!r}"
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            problems[f"line {lineno}"] = "empty key"
            continue
        if key in mapping:
            problems[key] = "duplicate key"
            continue
        mapping[key] = value
    if problems:
        raise ConfigError(problems)
    return mapping


def _set_field(cfg: ScenarioConfig, path: str, value) -> ScenarioConfig:
    """cfg with the field at `path` set; `member.name` sets a field of the
    member (`rates`, `detuning`, `settings`), whose own checks then run."""
    member, _, name = path.rpartition(".")
    if member:
        value, name = replace(getattr(cfg, member), **{name: value}), member
    return replace(cfg, **{name: value})


def build_config(mapping: dict) -> ScenarioConfig:
    """Assemble and validate a ScenarioConfig from a flat key mapping."""
    cfg = ScenarioConfig()
    problems = {}
    sweeps = []
    for key, raw in mapping.items():
        if key.startswith("sweep."):
            target = key[len("sweep."):]
            if target not in _KEY_TABLE:
                problems[key] = "unknown sweep target"
                continue
            if _KEY_TABLE[target][1] not in (_parse_float, int):
                problems[key] = "only numeric keys can be swept"
                continue
            try:
                values = tuple(_parse_float(tok) for tok in raw.split(","))
            except ValueError as exc:
                problems[key] = str(exc)
                continue
            if _KEY_TABLE[target][1] is int:
                if not all(v.is_integer() for v in values):
                    problems[key] = "integer key swept with non-integral values"
                    continue
                values = tuple(int(v) for v in values)
            sweeps.append((target, values))
            continue
        if key not in _KEY_TABLE:
            problems[key] = "unknown key"
            continue
        path, convert = _KEY_TABLE[key]
        try:
            cfg = _set_field(cfg, path, convert(raw))
        except (ValueError, TypeError) as exc:
            problems[key] = str(exc)
    if problems:
        raise ConfigError(problems)
    cfg = replace(cfg, sweep=tuple(sweeps))
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ScenarioConfig):
    """Collect the problems of a config: its initial state, and those of
    its points, which `_points` builds, before any work."""
    problems = {}
    if cfg.initial_state not in _INITIAL_STATES:
        problems["initial_state"] = \
            f"unknown state (choose from {sorted(_INITIAL_STATES)})"
    try:
        _points(cfg)
    except ConfigError as exc:
        problems.update(exc.problems)
    if problems:
        raise ConfigError(problems)


def load_config(source: str, keys: dict = None) -> ScenarioConfig:
    """Load a config from a file path or a builtin name.  `keys`, a flat
    key mapping like the parsed text's, replaces the entries it names."""
    if os.path.exists(source) and source in BUILTINS:
        raise ConfigError({"config": f"{source!r} is both a file and a "
                           f"builtin; write './{source}' for the file"})
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError({"config": f"cannot read {source!r}: {exc}"}) \
                from exc
    elif source in BUILTINS:
        text = BUILTINS[source]
    else:
        raise ConfigError({"config": f"{source!r} is neither a file nor a "
                           f"builtin (builtins: {sorted(BUILTINS)})"})
    return build_config({**parse_config_text(text), **(keys or {})})


# --- builtin scenarios ------------------------------------------------------

BUILTINS = {
    "stirap_fig2": """\
# Counterintuitive (Stokes-first) transfer, lambda scheme.
# Peak couplings 100/T each, detuning 1000/T, transverse widths 0.5/T,
# ground-coherence decay 0.005/T.
scenario = stirap_fig2
configuration = lambda
initial_state = bare_1
rates.gamma1 = 0.5
rates.gamma2 = 0.5
rates.gamma2_deph = 0.01
pulses.peak_omega = 100.0
pulses.ordering = counterintuitive
detuning.delta0 = 1000.0
""",
    "bstirap_fig3": """\
# Intuitive (pump-first) transfer through the bright dressed state.
scenario = bstirap_fig3
configuration = lambda
initial_state = bare_1
rates.gamma1 = 0.5
rates.gamma2 = 0.5
rates.gamma2_deph = 0.01
pulses.peak_omega = 100.0
pulses.ordering = intuitive
detuning.delta0 = 1000.0
""",
    "purity_delta_fig4": """\
# Purity of the bright-state trajectory versus single-photon detuning at
# gamma_c T = 0.05.  The detuning grid spans a decade; the source figure
# does not state its grid, so this is a reconstruction.
scenario = purity_delta_fig4
configuration = lambda
initial_state = bare_1
rates.gamma1 = 0.5
rates.gamma2 = 0.5
rates.gamma2_deph = 0.1
pulses.peak_omega = 100.0
pulses.ordering = intuitive
sweep.detuning.delta0 = 100, 300, 1000
""",
    "hadamard_hold": """\
# Hold the (|1> - |2>)/sqrt(2) superposition under equal static drives
# (theta = pi/4); its fidelity decays at the ground-coherence rate.
scenario = hadamard_hold
configuration = lambda
initial_state = superposition_minus
rates.gamma1 = 0.5
rates.gamma2 = 0.5
rates.gamma2_deph = 0.1
pulses.peak_omega = 100.0
pulses.ordering = static
detuning.delta0 = 1000.0
""",
}

_BUILTIN_BLURBS = {
    "stirap_fig2": "counterintuitive transfer, lambda scheme, gc*T = 0.005",
    "bstirap_fig3": "intuitive (bright-state) transfer, gc*T = 0.005",
    "purity_delta_fig4": "bright-state purity vs detuning sweep, gc*T = 0.05",
    "hadamard_hold": "theta = pi/4 hold of (|1> - |2>)/sqrt(2), gc*T = 0.05",
}


# --- execution ---------------------------------------------------------------

def build_schedule(cfg: ScenarioConfig):
    return make_stirap_schedule(cfg.peak_omega, cfg.detuning, cfg.horizon,
                                cfg.ordering, width=cfg.width, delay=cfg.delay)


def run_trajectory(cfg: ScenarioConfig, schedule=None) -> Trajectory:
    """Propagate the configured scenario and return its Trajectory.  A
    caller that has already built the config's schedule passes it.  The
    frame at t = 0 is evaluated once, if a dressed initial state or the
    dressed basis needs it."""
    if schedule is None:
        schedule = build_schedule(cfg)
    state = cfg.initial_state
    dressed = cfg.settings.basis == "adiabatic"
    if state.startswith("adiabatic_") or dressed:
        u = frame(schedule, 0.0).U
    if state.startswith("adiabatic_"):
        vec = u[:, int(state[-1]) - 1]
        rho0 = np.outer(vec, vec.conj())
    else:
        rho0 = _INITIAL_STATES[state].astype(complex)
    if dressed:
        rho0 = u.conj().T @ rho0 @ u
    return propagate(cfg.configuration, cfg.rates, schedule, rho0,
                     cfg.settings, samples=cfg.samples,
                     xi_appendix_verbatim=cfg.xi_appendix_verbatim)


def _flat_params(cfg: ScenarioConfig) -> dict:
    out = {}
    for key, (path, _) in _KEY_TABLE.items():
        value = operator.attrgetter(path)(cfg)
        out[key] = value.value if isinstance(value, Configuration) else value
    return out


def summarize(traj: Trajectory) -> dict:
    bare = traj.pops_bare[-1].tolist()
    dressed = traj.pops_adiabatic[-1].tolist()
    purity = traj.purity
    return {
        **{f"final_pop_bare_{k + 1}": bare[k] for k in range(3)},
        **{f"final_pop_adiabatic_{k + 1}": dressed[k] for k in range(3)},
        "purity_min": float(purity.min()),
        "purity_final": float(purity[-1]),
        "transfer_efficiency": bare[1],
    }


def run_scenario(cfg: ScenarioConfig, out_dir: str, scenario_id: str = None,
                 schedule=None) -> RunRecord:
    """Execute one scenario, write its time-series table, return the record.
    A caller that has already built the config's schedule passes it."""
    scenario_id = scenario_id or cfg.scenario
    if schedule is None:
        schedule = build_schedule(cfg)
    traj = run_trajectory(cfg, schedule)
    table_path = os.path.join(out_dir, f"{scenario_id}.csv")
    os.makedirs(out_dir, exist_ok=True)   # only once there is a table
    emit_table(traj, table_path)
    report = stability_report(cfg.configuration, cfg.rates, schedule)
    return RunRecord(scenario_id=scenario_id, params=_flat_params(cfg),
                     table_path=table_path, stability=report,
                     summary=summarize(traj))


def _points(cfg: ScenarioConfig) -> list:
    """(scenario ID, point config, schedule) per grid point, in grid order;
    a config without sweep axes is the one point named `cfg.scenario`.  IDs
    tag each axis with the repr of its value.  Each point's swept values,
    schedule and sample count are checked here, the one place a point is
    built.  A point they reject, or two points with one ID (which would
    write one table), raise ConfigError: a sweep point's problem under its
    ID, a plain config's under `schedule` or `propagator`."""
    keys = [key for key, _ in cfg.sweep]
    points = []
    problems = {}
    for combo in itertools.product(*(values for _, values in cfg.sweep)):
        tags = [f"{key.split('.')[-1]}={value!r}"
                for key, value in zip(keys, combo)]
        scenario_id = "__".join([cfg.scenario] + tags)
        point, schedule, stage = replace(cfg, sweep=()), None, "schedule"
        try:
            for key, value in zip(keys, combo):
                point = _set_field(point, _KEY_TABLE[key][0], value)
            schedule = build_schedule(point)
            stage = "propagator"
            point.settings.check_samples(point.samples)
        except ValueError as exc:
            problems[scenario_id if cfg.sweep else stage] = str(exc)
        points.append((scenario_id, point, schedule))
    if len({scenario_id for scenario_id, _, _ in points}) < len(points):
        problems["sweep"] = ("two points share a scenario ID "
                             "(a value is repeated)")
    if problems:
        raise ConfigError(problems)
    return points


def run_sweep(cfg: ScenarioConfig, out_dir: str, workers: int = 1) -> list:
    """Run every point of the config (one, without sweep axes); records are
    ordered by grid index, and a point that fails numerically, or whose
    table cannot be written, is recorded without aborting the others.
    numpy's overflow and invalid-value warnings are kept off stderr; a
    non-finite state fails the invariant checks, and the point's record
    says why."""
    points = _points(cfg)

    def one(item):
        scenario_id, point, schedule = item
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return run_scenario(point, out_dir, scenario_id, schedule)
        except (PropagationError, ValueError, OverflowError, OSError) as exc:
            return RunRecord(scenario_id=scenario_id,
                             params=_flat_params(point), table_path="",
                             stability=None, summary={}, error=str(exc))

    if workers <= 1:
        return [one(item) for item in points]
    # imported here: it pulls in logging, which a one-worker run never needs
    import concurrent.futures
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, points))


# --- tabular output ----------------------------------------------------------

_RHO_COLUMNS = [f"rho{i + 1}{j + 1}_{part}"
                for i in range(3) for j in range(3) for part in ("re", "im")]
TABLE_COLUMNS = (["t"] + _RHO_COLUMNS
                 + ["R11", "R22", "R33", "purity", "theta", "phi",
                    "lam2", "lam3", "omega_p", "omega_c", "delta",
                    "floor_flag"])


_BLOCK_ROWS = 64        # rows formatted per pass (see emit_table)


def emit_table(traj: Trajectory, path: str) -> None:
    """Write the trajectory as comma-separated values, one header row;
    columns are fixed by TABLE_COLUMNS.  Each value is written as C's
    ``%.17g`` writes it, so every double reads back exactly; the 0/1 flag
    column gives the same bytes as ``%d``.

    The digits are made in numpy, `_BLOCK_ROWS` rows at a time
    (`_format_rows`): the 17 significant digits of |x| are the integer
    round(|x| 10^(16-k)), k = floor(log10 |x|), and the product is formed
    exactly enough by Dekker's two-product with 10^(16-k) held as a
    double-double.  A value is formatted by Python's ``'%.17g'`` instead
    where that rounding is not certain, that is, where the discarded
    fraction lies within 1e-6 of one half (exact ties included), and
    where the value is not finite or |x| lies outside [1e-280, 1e290].
    Rows go in blocks so that each pass's arrays stay small: the writer's
    memory does not grow with the table.

    The table is written to a temporary file beside `path` and renamed over
    it, so an interrupted write leaves any previous table whole."""
    n = len(traj.times)
    fr = traj.frame
    rho = np.ascontiguousarray(traj.rho, dtype=complex).view(float)
    parts = [traj.times[:, None], rho.reshape(n, 18), traj.pops_adiabatic,
             traj.purity[:, None], fr.theta[:, None], fr.phi[:, None],
             fr.lam[:, 1:], fr.omega_p[:, None], fr.omega_c[:, None],
             fr.delta[:, None], fr.floor_engaged[:, None]]
    block = np.empty((_BLOCK_ROWS, len(TABLE_COLUMNS)))
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as fh:
            fh.write((",".join(TABLE_COLUMNS) + "\n").encode("utf-8"))
            for start in range(0, n, _BLOCK_ROWS):
                rows = block[:min(_BLOCK_ROWS, n - start)]
                np.concatenate([part[start:start + len(rows)]
                                for part in parts], axis=1, out=rows)
                fh.write(_format_rows(rows))
        os.replace(partial, path)
    except OSError as exc:
        raise OSError(f"failed to write trajectory table {path!r}: {exc}") \
            from exc
    finally:
        if os.path.exists(partial):
            os.remove(partial)


# Each value is laid out in a 48-byte field, six uint64 words:
#   byte 0 sign, 1-2 "0.", 3-5 "000", then d0 and a point, then
#   d1 . d2 . ... d16 . (a candidate point after every digit),
#   40 "e", 41 exponent sign, 42-44 exponent digits, 45 delimiter, 46-47 pad.
# A keep-mask per (sign, layout, digits kept) zeroes the bytes the %g form
# drops, and the zero bytes are then deleted.  Layouts 0-20 are the fixed
# forms of exponents -4..16, 21 and 22 the e-forms with two and three
# exponent digits.  "Digits kept" is 0 for a value left to the per-value
# path, which keeps only its delimiter.
_K_MIN, _K_MAX = -282, 292   # decimal exponents with a power-of-ten entry
_TABLES = None               # _DigitTables, built with the first table


class _DigitTables:
    """The lookup tables of `_format_rows`."""

    def __init__(self):
        ks = np.arange(_K_MIN, _K_MAX + 1)
        # 10^(16-k) as hi + lo, and hi split in halves for Dekker's product
        powers = np.empty((ks.size, 4))
        for row, k in zip(powers, ks.tolist()):
            num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
            hi = num / den                      # correctly rounded
            n, d = hi.as_integer_ratio()
            lo = (num * d - n * den) / (den * d)
            c = 134217729.0 * hi
            row[:] = hi, lo, c - (c - hi), hi - (c - (c - hi))
        self.powers = tuple(np.ascontiguousarray(powers.T))
        # 4-digit groups as "d.d.d.d.", and, for group j = 0..3 of the 16
        # digits after d0, the digits kept up to its last nonzero one
        # (0 for a zero group)
        groups = np.arange(10000)
        digits = groups[:, None] // np.array([1000, 100, 10, 1]) % 10
        text = np.full((10000, 8), ord("."), np.uint8)
        text[:, ::2] = digits + ord("0")
        self.groups = text.view(np.uint64).ravel()
        last = 4 - np.argmax(digits[:, ::-1] != 0, axis=1)
        self.counts = np.where(groups > 0,
                               last + 1 + 4 * np.arange(4)[:, None],
                               0).astype(np.uint8).ravel()
        self.leads = np.frombuffer(
            b"".join(b"-0.000%d." % d for d in range(10)), np.uint64)
        mag = np.abs(ks)
        expo = np.zeros((ks.size, 8), np.uint8)
        expo[:, :5] = np.column_stack([
            np.full(ks.size, ord("e")), np.where(ks < 0, ord("-"), ord("+")),
            mag // 100 + 48, mag // 10 % 10 + 48, mag % 10 + 48])
        self.exponents = expo.view(np.uint64).ravel()
        layout = np.where((ks >= -4) & (ks <= 16), ks + 4,
                          np.where(mag < 100, 21, 22))
        self.layout_base = layout * 18
        # keep-masks, indexed by (sign * 23 + layout) * 18 + digits kept
        lay = np.arange(23)[:, None, None]
        count = np.arange(18)[:, None]
        pos = np.arange(48)
        k = lay - 4
        whole = np.where((lay >= 4) & (lay <= 20), k + 1, 1)  # integer digits
        keep = ((pos >= 6) & (pos % 2 == 0)
                & (pos < 6 + 2 * np.maximum(count, whole)))
        keep |= (lay >= 4) & (pos == 5 + 2 * whole) & (count > whole)
        keep |= (lay < 4) & (pos >= 1) & (pos < 2 - k)
        keep |= (lay >= 21) & (pos >= 40) & (pos <= 44) \
            & ((pos != 42) | (lay == 22))
        keep &= count > 0
        keep = np.stack([keep, keep | ((pos == 0) & (count > 0))])
        keep |= pos == 45
        self.masks = (keep * np.uint8(255)).view(np.uint64).reshape(-1, 6)
        delim = np.zeros((2, 8), np.uint8)
        delim[:, 5] = ord(","), ord("\n")
        self.comma, self.newline = delim.view(np.uint64).ravel()


def _scaled(ax, k, powers):
    """round(ax * 10^(16-k)) as int64, and ax * 10^(16-k) minus it."""
    hi, lo, hi_h, hi_l = (col.take(k - _K_MIN) for col in powers)
    c = 134217729.0 * ax                       # Veltkamp split of ax
    ax_h = c - (c - ax)
    ax_l = ax - ax_h
    p = ax * hi                                # p + e = ax * (hi + lo)
    e = ((ax_h * hi_h - p) + ax_h * hi_l + ax_l * hi_h) + ax_l * hi_l
    e += ax * lo
    r = np.rint(e)
    return p.astype(np.int64) + r.astype(np.int64), e - r


def _format_rows(rows: np.ndarray) -> bytes:
    """Bytes of a 2-D float block as ``'%.17g'`` writes each value, values
    of a row joined by commas, each row ended by a newline."""
    global _TABLES
    if _TABLES is None:
        _TABLES = _DigitTables()
    tab = _TABLES
    x = rows.ravel()
    ax = np.abs(x)
    fast = (ax >= 1e-280) & (ax <= 1e290)
    k = np.floor(np.log10(np.where(fast, ax, 1.0))).astype(np.int64)
    ax = np.where(fast, ax, 0.0)                # zeros give digits 0
    digits, rest = _scaled(ax, k, tab.powers)
    slow = np.abs(rest) > 0.5 - 1e-6
    # floor(log10) can miss by one, and rounding can carry to 10^17
    off = fast & ((digits < 10 ** 16) | (digits >= 10 ** 17)
                  | ((digits == 10 ** 16) & (rest < 0)))
    if off.any():
        i = np.flatnonzero(off)
        k[i] += np.where(digits[i] >= 10 ** 17, 1, -1)
        digits[i], rest = _scaled(ax[i], k[i], tab.powers)
        slow[i] |= ((np.abs(rest) > 0.5 - 1e-6) | (digits[i] < 10 ** 16)
                    | (digits[i] >= 10 ** 17))
    slow |= ~fast & (x != 0)
    digits[slow] = 0
    d0, r = np.divmod(digits, 10 ** 16)
    g1, r = np.divmod(r, 10 ** 12)
    g2, r = np.divmod(r, 10 ** 8)
    g3, g4 = np.divmod(r, 10 ** 4)
    count = np.maximum(tab.counts[g1], tab.counts[g2 + 10000])
    np.maximum(count, tab.counts[g3 + 20000], out=count)
    np.maximum(count, tab.counts[g4 + 30000], out=count)
    np.maximum(count, 1, out=count)
    count[slow] = 0
    k -= _K_MIN
    index = tab.layout_base[k] + count + np.signbit(x) * (23 * 18)
    words = tab.masks.take(index, axis=0)
    words[:, 0] &= tab.leads[d0]
    for j, g in enumerate((g1, g2, g3, g4), start=1):
        words[:, j] &= tab.groups[g]
    delim = np.full(rows.shape[1], tab.comma)
    delim[-1] = tab.newline
    tail = words.reshape(rows.shape + (6,))[..., 5]
    tail &= tab.exponents[k].reshape(rows.shape) | delim
    text = words.tobytes().translate(None, b"\0")
    if not slow.any():
        return text
    ends = np.cumsum(np.count_nonzero(words.view(np.uint8).reshape(-1, 48),
                                      axis=1))
    pieces, done = [], 0
    for i in np.flatnonzero(slow).tolist():
        start = int(ends[i]) - 1                # the value's delimiter
        pieces += [text[done:start], b"%.17g" % x[i]]
        done = start
    return b"".join(pieces + [text[done:]])


# --- command line ------------------------------------------------------------

def _print_record(record: RunRecord):
    if record.error is not None:
        print(f"[{record.scenario_id}] FAILED: {record.error}")
        return
    s = record.summary
    print(f"[{record.scenario_id}] table: {record.table_path}")
    print(f"  final populations (bare): "
          f"{s['final_pop_bare_1']:.6f} {s['final_pop_bare_2']:.6f} "
          f"{s['final_pop_bare_3']:.6f}")
    print(f"  purity: min {s['purity_min']:.6f}, final {s['purity_final']:.6f}"
          f"; transfer {s['transfer_efficiency']:.6f}")
    verdicts = ", ".join(
        f"{name}={'pass' if ok else 'FAIL' if ok is not None else 'n/a'}"
        for name, ok in record.stability.verdicts.items())
    print(f"  stability: {verdicts}")


def _flag_keys(args) -> dict:
    """The config keys that --samples, --method and --tol stand for, as
    text: --tol X sets the relative tolerance X and the absolute X * 1e-2."""
    keys = {}
    if args.samples is not None:
        keys["output.samples"] = str(args.samples)
    if args.method is not None:
        keys["propagator.method"] = args.method
    if args.tol is not None:
        keys["propagator.rel_tol"] = repr(args.tol)
        keys["propagator.abs_tol"] = repr(args.tol * 1e-2)
    return keys


def _build_parser() -> argparse.ArgumentParser:
    """Global flags come before the subcommand:
    ``threelevel --out-dir tables run stirap_fig2``."""
    parser = argparse.ArgumentParser(
        prog="threelevel",
        description="dissipative three-level scenario runner")
    parser.add_argument("--out-dir",
                        default=os.environ.get(OUT_DIR_ENV, "."),
                        help="output directory for trajectory tables")
    parser.add_argument("--workers", type=int, default=1,
                        help="concurrent sweep workers")
    parser.add_argument("--samples", type=int, default=None,
                        help="sets output.samples")
    parser.add_argument("--method", default=None, choices=METHODS,
                        help="sets propagator.method")
    parser.add_argument("--tol", type=float, default=None,
                        help="sets propagator.rel_tol, and "
                             "propagator.abs_tol to 1e-2 times it; a "
                             "static schedule, stepped by its exact "
                             "exponential, does not use them")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in ("run", "sweep", "validate"):
        p = sub.add_parser(verb)
        p.add_argument("config", help="config file path or builtin name")
    sub.add_parser("list-builtins")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-builtins":
        for name in sorted(BUILTINS):
            print(f"{name:20s} {_BUILTIN_BLURBS[name]}")
        return 0

    try:
        cfg = load_config(args.config, _flag_keys(args))
        if args.command == "run" and cfg.sweep:
            raise ConfigError({"sweep": "the config has sweep axes; "
                               "run it with the sweep command"})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"{args.config}: OK (scenario {cfg.scenario!r})")
        return 0

    records = run_sweep(cfg, args.out_dir, workers=args.workers)
    for record in records:
        _print_record(record)
    return 3 if any(r.error for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
