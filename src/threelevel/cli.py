"""Scenario runner and sweep engine.

Scenarios are described by flat dotted-key text files (``key = value`` lines,
``#`` comments); all physical quantities are dimensionless in units of the
scenario horizon.  Four builtin scenarios reproduce the standard experiments:
counterintuitive and intuitive transfer, the purity-versus-detuning sweep,
and the Hadamard-type hold at theta = pi/4.

Command line:

    threelevel [flags] run <config-or-builtin>
    threelevel [flags] sweep <config-or-builtin>
    threelevel list-builtins
    threelevel [flags] validate <config-or-builtin>

with flags, given before the subcommand, --out-dir (default from
THREELEVEL_OUT_DIR or cwd), --workers, --samples, --method, --tol.  Exit
codes: 0 success, 2 config error, 3 numerical failure.
"""

import argparse
import concurrent.futures
import itertools
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .adiabatic import frame
from .analysis import StabilityReport, stability_report
from .dissipation import Configuration, RateSet
from .evolution import (METHODS, PropagationError, PropagatorSettings,
                        Trajectory, propagate_adiabatic, propagate_bare,
                        propagate_expm_oracle)
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
    detuning_kind: str = "constant"
    delta0: float = 0.0
    detuning_gamma1: float = 0.0
    detuning_t0: float = 0.0
    method: str = "adaptive_rk"
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    n_slices: int = 4000
    basis: str = "bare"
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


def _parse_float_list(text):
    return tuple(float(tok) for tok in text.split(","))


# key -> (attribute path on ScenarioConfig, converter)
_KEY_TABLE = {
    "scenario": ("scenario", str),
    "configuration": ("configuration", Configuration),
    "horizon": ("horizon", float),
    "initial_state": ("initial_state", str),
    "rates.gamma1": ("rates.gamma1", float),
    "rates.gamma2": ("rates.gamma2", float),
    "rates.gamma1_deph": ("rates.gamma1_deph", float),
    "rates.gamma2_deph": ("rates.gamma2_deph", float),
    "rates.gamma3_deph": ("rates.gamma3_deph", float),
    "dissipation.xi_appendix_verbatim": ("xi_appendix_verbatim", _parse_bool),
    "pulses.peak_omega": ("peak_omega", float),
    "pulses.width": ("width", float),
    "pulses.delay": ("delay", float),
    "pulses.ordering": ("ordering", str),
    "detuning.kind": ("detuning_kind", str),
    "detuning.delta0": ("delta0", float),
    "detuning.gamma1": ("detuning_gamma1", float),
    "detuning.t0": ("detuning_t0", float),
    "propagator.method": ("method", str),
    "propagator.rel_tol": ("rel_tol", float),
    "propagator.abs_tol": ("abs_tol", float),
    "propagator.n_slices": ("n_slices", int),
    "propagator.basis": ("basis", str),
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
    if path.startswith("rates."):
        return replace(cfg, rates=replace(cfg.rates, **{path[6:]: value}))
    return replace(cfg, **{path: value})


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
            if _KEY_TABLE[target][1] not in (float, int):
                problems[key] = "only numeric keys can be swept"
                continue
            try:
                values = _parse_float_list(raw)
            except ValueError as exc:
                problems[key] = str(exc)
                continue
            if not values:
                problems[key] = "empty sweep values"
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
    """Collect every problem of a config.  The schedule and the propagator
    settings are built here, so their own checks run before any work."""
    problems = {}
    if cfg.initial_state not in _INITIAL_STATES:
        problems["initial_state"] = \
            f"unknown state (choose from {sorted(_INITIAL_STATES)})"
    if cfg.basis not in ("bare", "adiabatic"):
        problems["propagator.basis"] = f"unknown basis {cfg.basis!r}"
    try:
        build_schedule(cfg)
    except ValueError as exc:
        problems["schedule"] = str(exc)
    try:
        _settings(cfg).check_samples(cfg.samples)
    except ValueError as exc:
        problems["propagator"] = str(exc)
    if cfg.sweep:
        try:
            _sweep_points(cfg)
        except ConfigError as exc:
            problems.update(exc.problems)
    if problems:
        raise ConfigError(problems)


def load_config(source: str) -> ScenarioConfig:
    """Load a config from a file path or a builtin name."""
    if os.path.exists(source) and source in BUILTINS:
        raise ConfigError({"config": f"{source!r} is both a file and a "
                           f"builtin; write './{source}' for the file"})
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    elif source in BUILTINS:
        text = BUILTINS[source]
    else:
        raise ConfigError({"config": f"{source!r} is neither a file nor a "
                           f"builtin (builtins: {sorted(BUILTINS)})"})
    return build_config(parse_config_text(text))


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
    detuning = DetuningSchedule(kind=cfg.detuning_kind, delta0=cfg.delta0,
                                gamma1=cfg.detuning_gamma1, t0=cfg.detuning_t0)
    return make_stirap_schedule(cfg.peak_omega, cfg.delta0, cfg.horizon,
                                cfg.ordering, width=cfg.width,
                                delay=cfg.delay, detuning=detuning)


def initial_density(cfg: ScenarioConfig, schedule) -> np.ndarray:
    state = cfg.initial_state
    if state.startswith("adiabatic_"):
        n = int(state[-1]) - 1
        u = frame(schedule, 0.0).U
        vec = u[:, n]
        return np.outer(vec, vec.conj())
    return _INITIAL_STATES[state].astype(complex)


def _settings(cfg: ScenarioConfig) -> PropagatorSettings:
    return PropagatorSettings(method=cfg.method, rel_tol=cfg.rel_tol,
                              abs_tol=cfg.abs_tol, n_slices=cfg.n_slices)


def run_trajectory(cfg: ScenarioConfig, schedule=None) -> Trajectory:
    """Propagate the configured scenario and return its Trajectory.  A
    caller that has already built the config's schedule passes it."""
    if schedule is None:
        schedule = build_schedule(cfg)
    rho0 = initial_density(cfg, schedule)
    settings = _settings(cfg)
    if cfg.method == "expm_oracle":
        return propagate_expm_oracle(
            cfg.configuration, cfg.rates, schedule, rho0, cfg.n_slices,
            samples=cfg.samples, xi_appendix_verbatim=cfg.xi_appendix_verbatim)
    if cfg.basis == "adiabatic":
        u = frame(schedule, 0.0).U
        big_r0 = u.conj().T @ rho0 @ u
        return propagate_adiabatic(
            cfg.configuration, cfg.rates, schedule, big_r0, settings,
            samples=cfg.samples, xi_appendix_verbatim=cfg.xi_appendix_verbatim)
    return propagate_bare(
        cfg.configuration, cfg.rates, schedule, rho0, settings,
        samples=cfg.samples, xi_appendix_verbatim=cfg.xi_appendix_verbatim)


def _flat_params(cfg: ScenarioConfig) -> dict:
    out = {}
    for key, (path, _) in _KEY_TABLE.items():
        if path.startswith("rates."):
            out[key] = getattr(cfg.rates, path[6:])
        else:
            value = getattr(cfg, path)
            out[key] = value.value if isinstance(value, Configuration) else value
    return out


def summarize(traj: Trajectory) -> dict:
    return {
        "final_pop_bare_1": float(traj.pops_bare[-1, 0]),
        "final_pop_bare_2": float(traj.pops_bare[-1, 1]),
        "final_pop_bare_3": float(traj.pops_bare[-1, 2]),
        "final_pop_adiabatic_1": float(traj.pops_adiabatic[-1, 0]),
        "final_pop_adiabatic_2": float(traj.pops_adiabatic[-1, 1]),
        "final_pop_adiabatic_3": float(traj.pops_adiabatic[-1, 2]),
        "purity_min": float(traj.purity.min()),
        "purity_final": float(traj.purity[-1]),
        "transfer_efficiency": float(traj.pops_bare[-1, 1]),
    }


def run_scenario(cfg: ScenarioConfig, out_dir: str,
                 scenario_id: str = None) -> RunRecord:
    """Execute one scenario, write its time-series table, return the record."""
    scenario_id = scenario_id or cfg.scenario
    os.makedirs(out_dir, exist_ok=True)
    schedule = build_schedule(cfg)
    traj = run_trajectory(cfg, schedule)
    table_path = os.path.join(out_dir, f"{scenario_id}.csv")
    emit_table(traj, table_path)
    report = stability_report(cfg.configuration, cfg.rates, schedule)
    return RunRecord(scenario_id=scenario_id, params=_flat_params(cfg),
                     table_path=table_path, stability=report,
                     summary=summarize(traj))


def _sweep_points(cfg: ScenarioConfig) -> list:
    """(scenario ID, point config) per grid point, in grid order.  IDs tag
    each axis with the repr of its value.  Each point's rates, schedule and
    propagator settings are built here, like a base config's, and a point
    they reject, or two points with one ID (which would write one table),
    raise ConfigError."""
    keys = [key for key, _ in cfg.sweep]
    points = []
    problems = {}
    for combo in itertools.product(*(values for _, values in cfg.sweep)):
        tags = [f"{key.split('.')[-1]}={value!r}"
                for key, value in zip(keys, combo)]
        scenario_id = "__".join([cfg.scenario] + tags)
        point = replace(cfg, sweep=())
        try:
            for key, value in zip(keys, combo):
                point = _set_field(point, _KEY_TABLE[key][0], value)
            build_schedule(point)
            _settings(point).check_samples(point.samples)
        except ValueError as exc:
            problems[scenario_id] = str(exc)
        points.append((scenario_id, point))
    if len({scenario_id for scenario_id, _ in points}) < len(points):
        problems["sweep"] = ("two points share a scenario ID "
                             "(a value is repeated)")
    if problems:
        raise ConfigError(problems)
    return points


def run_sweep(cfg: ScenarioConfig, out_dir: str, workers: int = 1) -> list:
    """Run the cross product of the sweep axes; records are ordered by grid
    index and per-point failures are recorded without aborting the sweep."""
    if not cfg.sweep:
        return [run_scenario(cfg, out_dir)]
    points = _sweep_points(cfg)

    def one(item):
        scenario_id, point = item
        try:
            return run_scenario(point, out_dir, scenario_id=scenario_id)
        except (PropagationError, ValueError) as exc:
            return RunRecord(scenario_id=scenario_id,
                             params=_flat_params(point), table_path="",
                             stability=None, summary={}, error=str(exc))

    if workers <= 1:
        return [one(item) for item in points]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, points))


# --- tabular output ----------------------------------------------------------

_RHO_COLUMNS = [f"rho{i + 1}{j + 1}_{part}"
                for i in range(3) for j in range(3) for part in ("re", "im")]
TABLE_COLUMNS = (["t"] + _RHO_COLUMNS
                 + ["R11", "R22", "R33", "purity", "theta", "phi",
                    "lam2", "lam3", "omega_p", "omega_c", "delta",
                    "floor_flag"])


def emit_table(traj: Trajectory, path: str) -> None:
    """Write the trajectory as delimiter-separated values, 17 significant
    digits, one header row; columns are fixed by TABLE_COLUMNS.

    The table is written to a temporary file beside `path` and renamed over
    it, so an interrupted write leaves any previous table whole."""
    n = len(traj.times)
    data = np.column_stack([
        traj.times,
        np.stack([traj.rho.real, traj.rho.imag], axis=-1).reshape(n, 18),
        traj.pops_adiabatic, traj.purity, traj.theta, traj.phi,
        traj.lam[:, 1:], traj.omega_p, traj.omega_c, traj.delta,
        traj.floor_engaged])
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        np.savetxt(partial, data, fmt=["%.17g"] * 30 + ["%d"], delimiter=",",
                   header=",".join(TABLE_COLUMNS), comments="",
                   encoding="utf-8")
        os.replace(partial, path)
    except OSError as exc:
        raise OSError(f"failed to write trajectory table {path!r}: {exc}") \
            from exc
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def load_table(path: str) -> dict:
    """Read a table written by emit_table; returns column-name -> array."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
    return {name: data[:, k] for k, name in enumerate(names)}


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


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    """The config with the command-line flags applied, validated again
    only when a flag changed it."""
    given = cfg
    if args.samples is not None:
        cfg = replace(cfg, samples=args.samples)
    if args.method is not None:
        cfg = replace(cfg, method=args.method)
    if args.tol is not None:
        cfg = replace(cfg, rel_tol=args.tol, abs_tol=args.tol * 1e-2)
    if cfg != given:
        _validate_config(cfg)
    return cfg


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
                        help="override output sample count")
    parser.add_argument("--method", default=None,
                        choices=METHODS,
                        help="override propagation method")
    parser.add_argument("--tol", type=float, default=None,
                        help="override relative tolerance")
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
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"{args.config}: OK (scenario {cfg.scenario!r})")
        return 0

    try:
        if args.command == "run":
            record = run_scenario(cfg, args.out_dir)
            _print_record(record)
            return 0
        records = run_sweep(cfg, args.out_dir, workers=args.workers)
        for record in records:
            _print_record(record)
        return 3 if any(r.error for r in records) else 0
    except (PropagationError, ValueError, OverflowError) as exc:
        print(f"numerical failure in scenario {cfg.scenario!r}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
