"""Seeded scenario generators for the three benchmark workloads.

A workload is a stream of units; a unit is the calls the bench times
together (one `run`, a dressed/oracle pair, or one `sweep`).  Each call
carries the config text handed to the program and, for every table the call
should write, the physics the reference solver needs.  Draws are continuous,
so no two points of a stream have identical inputs.
"""

import itertools
import math

import numpy as np

SCHEMES = ("lambda", "xi", "v")
ORDERINGS = ("counterintuitive", "intuitive")
SAMPLES = 1000
SWEEP_SAMPLES = 4001
ORACLE_SLICES = 4000
# sweep axes: the fig-4 detunings and the paper's two gamma_c T values,
# each jittered by a seeded factor.  The jitter is small so that every
# sweep costs about the same; the cost grows with the largest detuning.
SWEEP_DELTAS = (100.0, 300.0, 1000.0)
SWEEP_GAMMA_CS = (0.005, 0.05)
SWEEP_JITTER = 0.05


class Call:
    """One `cli.main` invocation and the tables it should write."""

    def __init__(self, name, verb, text, points, kind):
        self.name = name            # scenario name, unique in the stream
        self.verb = verb            # run | sweep
        self.text = text            # config file contents
        self.points = points        # physics dicts, in grid order
        self.kind = kind            # bare | dressed | oracle
        self.rows = SWEEP_SAMPLES if verb == "sweep" else SAMPLES

    def argv(self, config_path, out_dir):
        flags = ["--workers", "1"] if self.verb == "sweep" else []
        return ["--out-dir", out_dir, *flags, self.verb, config_path]


def _rates(rng, scheme, gamma_c):
    """Rates whose 1-2 coherence decay is gamma_c, excited decay ~0.5/T."""
    if scheme == "lambda":
        return {"gamma1": rng.uniform(0.4, 0.6), "gamma2": rng.uniform(0.4, 0.6),
                "gamma3_deph": rng.uniform(0.0, 0.1),
                "gamma2_deph": 2.0 * gamma_c}
    if scheme == "xi":
        return {"gamma1": rng.uniform(0.4, 0.6), "gamma2": gamma_c,
                "gamma3_deph": rng.uniform(0.0, 0.1), "gamma2_deph": gamma_c}
    return {"gamma1": 0.5 * gamma_c, "gamma2": 0.5 * gamma_c,
            "gamma1_deph": 0.5 * gamma_c, "gamma2_deph": 0.5 * gamma_c}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _scenario(rng, scheme, ordering):
    gamma_c = _log_uniform(rng, 0.005, 0.05)
    phys = {"configuration": scheme, "horizon": 1.0,
            "rates": _rates(rng, scheme, gamma_c),
            "peak_omega": rng.uniform(95.0, 105.0),
            "delta0": rng.uniform(950.0, 1050.0), "ordering": ordering}
    if ordering == "static":
        phys["initial_state"] = "superposition_minus"
    else:
        phys["initial_state"] = "bare_1"
        phys["width"] = 0.44 * rng.uniform(0.95, 1.05)
        phys["delay"] = 0.38 * phys["width"] * rng.uniform(0.95, 1.05)
    return phys


def _config_text(name, phys, extra=(), skip=()):
    lines = [f"scenario = {name}",
             f"configuration = {phys['configuration']}",
             f"horizon = {phys['horizon']!r}",
             f"initial_state = {phys['initial_state']}"]
    lines += [f"rates.{key} = {value!r}"
              for key, value in sorted(phys["rates"].items())
              if f"rates.{key}" not in skip]
    lines += [f"pulses.peak_omega = {phys['peak_omega']!r}",
              f"pulses.ordering = {phys['ordering']}"]
    if phys["ordering"] != "static":
        lines += [f"pulses.width = {phys['width']!r}",
                  f"pulses.delay = {phys['delay']!r}"]
    if "detuning.delta0" not in skip:
        lines.append(f"detuning.delta0 = {phys['delta0']!r}")
    return "\n".join(lines + list(extra)) + "\n"


def _scenarios(rng):
    """Rounds of one static theta = pi/4 hold (its scheme rotating) and the
    six Gaussian scheme/ordering pairs, orderings alternating.  The order is
    the same for every seed, so a run's mix of cheap and costly points does
    not depend on it."""
    gaussian = [(s, ORDERINGS[k % 2]) for k, s in enumerate(SCHEMES * 2)]
    for round_no in itertools.count():
        static = (SCHEMES[round_no % len(SCHEMES)], "static")
        for scheme, ordering in [static] + gaussian:
            yield _scenario(rng, scheme, ordering)


def transfer(seed):
    rng = np.random.default_rng([seed, 1])
    for k, phys in enumerate(_scenarios(rng)):
        name = f"t{k:05d}"
        yield [Call(name, "run", _config_text(name, phys), [phys], "bare")]


def crosscheck(seed):
    rng = np.random.default_rng([seed, 2])
    for k, phys in enumerate(_scenarios(rng)):
        dressed, oracle = f"c{k:05d}d", f"c{k:05d}o"
        yield [
            Call(dressed, "run",
                 _config_text(dressed, phys, ["propagator.basis = adiabatic"]),
                 [phys], "dressed"),
            Call(oracle, "run",
                 _config_text(oracle, phys, [
                     "propagator.method = expm_oracle",
                     f"propagator.n_slices = {ORACLE_SLICES}"]),
                 [phys], "oracle"),
        ]


def sweep(seed):
    """Fig-4 purity study: a jittered 3 x 2 detuning x gamma_c grid per
    sweep, intuitive order, 4001 rows per table."""
    rng = np.random.default_rng([seed, 3])
    for k in itertools.count():
        name = f"s{k:05d}"
        base = _scenario(rng, "lambda", "intuitive")
        jitter = (1.0 - SWEEP_JITTER, 1.0 + SWEEP_JITTER)
        deltas = [d * rng.uniform(*jitter) for d in SWEEP_DELTAS]
        dephs = [2.0 * g * rng.uniform(*jitter) for g in SWEEP_GAMMA_CS]
        points = [dict(base, delta0=d, rates=dict(base["rates"], gamma2_deph=g))
                  for d, g in itertools.product(deltas, dephs)]
        extra = [f"output.samples = {SWEEP_SAMPLES}",
                 "sweep.detuning.delta0 = " + ", ".join(map(repr, deltas)),
                 "sweep.rates.gamma2_deph = " + ", ".join(map(repr, dephs))]
        text = _config_text(name, base, extra,
                            skip=("detuning.delta0", "rates.gamma2_deph"))
        yield [Call(name, "sweep", text, points, "bare")]


WORKLOADS = {"transfer": transfer, "crosscheck": crosscheck, "sweep": sweep}
