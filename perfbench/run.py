"""threelevel benchmark: time-to-verified-trajectory on three workloads.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 20 --trace 0

Drives `threelevel.cli.main` in-process, closed loop with one client and one
thread, on config files generated from the seed.  Every table is re-read and
checked, then compared with an independent reference solution.  The last
line of standard output is one JSON object: end-to-end metrics with
`--trace 0`, per-layer metrics from a traced run with `--trace 1`.  See
NOTES.md in this directory for the workloads and the metric map.
"""

import os

# one client, one thread: keep BLAS from spinning up its own pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import io
import json
import math
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache" / "reference"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5          # fresh-interpreter imports per run (median)
IMPORT_REPEATS = 3         # -X importtime runs per traced run (median)
TRACE_UNITS = {"transfer": 7, "crosscheck": 3, "sweep": 2}

# A point whose error against the reference exceeds this gate is a wrong
# answer and fails.  It sits well above the expm oracle's known ~2e-6 floor,
# so that floor shows in err_max rather than as failures.
ERR_GATE = 1e-4
# invariant gates re-read from each table: ten times the program's own
# trace, Hermiticity and purity tolerances
TRACE_GATE = 1e-7
HERMITICITY_GATE = 1e-9
PURITY_GATE = 1e-9

COLUMNS = (["t"] + [f"rho{i}{j}_{part}" for i in (1, 2, 3) for j in (1, 2, 3)
                    for part in ("re", "im")]
           + ["R11", "R22", "R33", "purity", "theta", "phi", "lam2", "lam3",
              "omega_p", "omega_c", "delta", "floor_flag"])

# Host-speed probe.  On a shared VM the CPUs can switch between a fast and
# a slow state, often several times a second; on the 2-vCPU Xeon VM the
# bench was written on they are up to 2x apart, and raw times of identical
# work spread by 15 to 40% between runs.  The probe is fixed work owned by
# the bench and of the program's kind: ten steps of a Python-driven RK4
# loop of small numpy matrix-vector products, about 0.3 ms on that host.
# It is run every TICK_S during a call, each stretch of work is scaled by
# PROBE_REF_S over the probe just before it, and probe time is left out,
# which cancels the host's state.  Scaled values read as seconds on that
# host.
PROBE_REF_S = 2.5e-4
PROBE_STEPS = 10
TICK_S = 0.02
_PROBE_A = np.random.default_rng(0).standard_normal((9, 9))
_PROBE_A = 40.0 * (_PROBE_A - _PROBE_A.T)


def probe():
    """Wall time of the fixed host-speed probe."""
    y, h = np.ones(9), 1e-3
    start = time.perf_counter()
    for k in range(PROBE_STEPS):
        t = k * h
        k1 = _PROBE_A @ y * math.cos(t)
        k2 = _PROBE_A @ (y + 0.5 * h * k1) * math.cos(t + 0.5 * h)
        k3 = _PROBE_A @ (y + 0.5 * h * k2) * math.cos(t + 0.5 * h)
        k4 = _PROBE_A @ (y + h * k3) * math.cos(t + h)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return time.perf_counter() - start


class HostClock:
    """Samples host speed while work runs, from a SIGALRM every TICK_S.

    Each tick runs the probe and records its start, its end, the speed it
    gives and its CPU time.  `spans(a, b)` turns the marks into the raw and
    scaled seconds of work in [a, b], probe time left out.  The handler
    only appends, so main code that reads the marks after the clock has
    stopped sees them whole."""

    def __enter__(self):
        self.marks = []
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _tick(self, *_):
        start, cpu = time.perf_counter(), time.process_time()
        seconds = probe()
        self.marks.append((start, start + seconds, PROBE_REF_S / seconds,
                           time.process_time() - cpu))

    def spans(self, a, b):
        """Raw and scaled seconds of work in [a, b], and the probes' CPU
        seconds in it."""
        raw = scaled = probe_cpu = 0.0
        closes = [mark[0] for mark in self.marks[1:]] + [math.inf]
        for (start, opened, speed, cpu), closed in zip(self.marks, closes):
            span = min(b, closed) - max(a, opened)
            if span > 0:
                raw += span
                scaled += span * speed
            if a <= start < b:
                probe_cpu += cpu
        return raw, scaled, probe_cpu


KINDS = ("bare", "dressed", "oracle")
RECORD = re.compile(r"^\[(.+?)\] (?:table: (.*)|FAILED: .*)$", re.M)


class Point:
    """One expected table: its inputs, where it went and how it checked."""

    def __init__(self, kind, phys, rows):
        self.kind, self.phys, self.rows = kind, phys, rows
        self.path = None
        self.times = None
        self.rho_path = None    # parsed rho, kept on disk out of peak RSS
        self.error = None       # max |rho - rho_ref|
        self.reason = None      # why the point failed, None if it passed


def read_table(point, work):
    """Load the point's table and check structure and invariants."""
    with open(point.path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    if header != COLUMNS:
        return "wrong columns"
    data = np.loadtxt(point.path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (point.rows, len(COLUMNS)):
        return f"wrong shape {data.shape}"
    t = data[:, 0]
    rho = (data[:, 1:19:2] + 1j * data[:, 2:19:2]).reshape(-1, 3, 3)
    purity = np.einsum("nij,nji->n", rho, rho).real
    if t[0] != 0.0 or np.any(np.diff(t) <= 0) \
            or abs(t[-1] - point.phys["horizon"]) > 1e-12:
        return "bad time column"
    if np.max(np.abs(np.einsum("nii->n", rho) - 1.0)) > TRACE_GATE:
        return "trace breach"
    if np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) > HERMITICITY_GATE:
        return "hermiticity breach"
    column = data[:, COLUMNS.index("purity")]
    if np.max(np.abs(column - purity)) > PURITY_GATE \
            or purity.min() < 1 / 3 - PURITY_GATE \
            or purity.max() > 1 + PURITY_GATE:
        return "purity breach"
    point.times = t.copy()   # a view would keep the whole table alive
    point.rho_path = work / f"rho{id(point)}.npy"
    np.save(point.rho_path, rho)
    return None


def run_call(cli, call, work):
    """Run one `cli.main` call, then check every table it should write.

    Returns the call's start and end on `time.perf_counter` and its points."""
    config = work / f"{call.name}.cfg"
    config.write_text(call.text, encoding="utf-8")
    tables = work / "tables"
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(call.argv(str(config), str(tables)))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed point, not a bench error
            code = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()

    points = [Point(call.kind, phys, call.rows) for phys in call.points]
    records = RECORD.findall(captured.getvalue())
    for k, point in enumerate(points):
        if code != 0:
            point.reason = f"exit code {code}"
        elif k >= len(records) or not records[k][1] \
                or not os.path.exists(records[k][1]):
            point.reason = "missing table"
        else:
            point.path = records[k][1]
            point.reason = read_table(point, work)
    for path in {p.path for p in points if p.path}:
        os.remove(path)
    return (start, end), points


def run_units(cli, units, work, seconds=None):
    """Run units closed loop, until `seconds` have passed or units run out.

    Returns per-unit `cli.main` times (the sum over the unit's calls) and
    the loop's wall and CPU time, both raw and scaled to host speed by a
    HostClock around each call; probe time is left out of all of them."""
    raw, scaled, points = [], [], []
    unit_raw, unit_scaled = [], []
    start = time.perf_counter()
    for unit in units:
        first = len(raw)
        for call in unit:
            with HostClock() as clock:
                wall, cpu = time.perf_counter(), time.process_time()
                main, done = run_call(cli, call, work)
                wall = (wall, time.perf_counter())
                cpu = time.process_time() - cpu
            elapsed, elapsed_scaled, _ = clock.spans(*main)
            wall, wall_scaled, probe_cpu = clock.spans(*wall)
            cpu -= probe_cpu
            raw.append((elapsed, wall, cpu))
            scaled.append((elapsed_scaled, wall_scaled,
                           cpu * wall_scaled / wall))
            points += done
        unit_raw.append(sum(row[0] for row in raw[first:]))
        unit_scaled.append(sum(row[0] for row in scaled[first:]))
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return {"points": points, "units": unit_scaled, "raw_units": unit_raw,
            "walls": [row[1] for row in scaled],
            "cpus": [row[2] for row in scaled],
            "raw_wall": sum(row[1] for row in raw),
            "raw_cpu": sum(row[2] for row in raw)}


def verify(points):
    """Fail duplicated table paths; compare the rest with the reference."""
    import reference   # after the timed loop: it imports scipy.integrate

    paths = collections.Counter(p.path for p in points if p.path)
    for point in points:
        if point.path and paths[point.path] > 1:
            point.reason = "duplicated table path"
    good = [p for p in points if p.reason is None]
    refs = reference.reference([(p.phys, p.times) for p in good], str(CACHE))
    for point, ref in zip(good, refs):
        point.error = float(np.max(np.abs(np.load(point.rho_path) - ref)))
        if not point.error <= ERR_GATE:
            point.reason = f"error {point.error:.3e} above gate"


def err_max(points, kinds):
    errors = [p.error for p in points if p.kind in kinds and p.error is not None]
    return max(errors) if errors else 0.0


def fresh_python(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=120)


# The import is timed in a fresh interpreter, which may sit on the other
# vCPU, so it probes itself.  A finder placed first on `sys.meta_path` runs
# a pure-Python probe (about 0.13 ms on the VM above) at every module
# lookup and then finds nothing, so the normal finders still do the import.
# The import is cut into the spans between lookups, and each span is scaled
# by SETUP_PROBE_REF_S over the probe that opens it.  `import
# threelevel.cli` makes about 730 lookups; the probes add about 0.1 s per
# import, outside the measured time.  The probe imports nothing, so it does
# not shorten the import it measures.
SETUP_PROBE_REF_S = 1.25e-4
SETUP_CODE = """
import sys
import time

def probe():
    start = time.perf_counter()
    x = 0.0
    for k in range(1000):
        x = x * 0.999 + (k & 7) * 0.5
    return time.perf_counter() - start

marks = []   # (end of a probe, its seconds), one per module lookup

class Mark:
    @staticmethod
    def find_spec(name, path=None, target=None):
        seconds = probe()
        marks.append((time.perf_counter(), seconds))
        return None

sys.meta_path.insert(0, Mark)
Mark.find_spec("")
import threelevel.cli
end = time.perf_counter()
starts = [t - seconds for t, seconds in marks[1:]] + [end]
spans = [(s - t, seconds) for (t, seconds), s in zip(marks, starts)]
print(sum(span for span, _ in spans),
      sum(span / seconds for span, seconds in spans))
"""


def setup_seconds(repeats):
    """Wall times of `import threelevel.cli` in fresh interpreters, probe
    time left out: raw, and scaled span by span to host speed."""
    raw, scaled = [], []
    for _ in range(repeats):
        elapsed, probe_units = map(
            float, fresh_python(["-c", SETUP_CODE]).stdout.split())
        raw.append(elapsed)
        scaled.append(probe_units * SETUP_PROBE_REF_S)
    return raw, scaled


def import_split(repeats):
    """Cumulative `-X importtime` seconds of threelevel.cli and of scipy's
    integrate and linalg; 0 for a module the import no longer loads."""
    runs = []
    for _ in range(repeats):
        log = fresh_python(["-X", "importtime", "-c",
                            "import threelevel.cli"]).stderr
        found = {"import.threelevel_cli_s": 0.0,
                 "import.scipy_integrate_s": 0.0,
                 "import.scipy_linalg_s": 0.0}
        for line in log.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            seconds = int(parts[1]) * 1e-6
            top_level = parts[2].startswith(" ") and parts[2][1] != " "
            if top_level and name.split(".")[0] == "threelevel":
                found["import.threelevel_cli_s"] += seconds
            elif name in ("scipy.integrate", "scipy.linalg"):
                found["import." + name.replace(".", "_") + "_s"] = seconds
        runs.append(found)
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cli, stream, work, seconds):
    setup_raw, setup = setup_seconds(SETUP_REPEATS)
    run = run_units(cli, stream, work, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    points = run["points"]
    verify(points)
    passed = sum(p.reason is None for p in points)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "points_per_s": metric(passed / sum(run["walls"]), "1/s"),
        "call_s_p50": metric(statistics.median(run["units"]), "s"),
        "cpu_s_per_point": metric(sum(run["cpus"]) / len(points), "s"),
        "err_max": metric(err_max(points, KINDS), "1"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    print(f"units {len(run['units'])}, calls {len(run['walls'])}, "
          f"points {len(points)}; "
          f"raw: setup_s {statistics.median(setup_raw):.6g}, "
          f"points_per_s {passed / run['raw_wall']:.6g}, "
          f"call_s_p50 {statistics.median(run['raw_units']):.6g}, "
          f"cpu_s_per_point {run['raw_cpu'] / len(points):.6g}")
    return metrics, points


def per_layer(cli, stream, work, workload, seed):
    import tracing

    units = [next(stream) for _ in range(TRACE_UNITS[workload])]
    imports = import_split(IMPORT_REPEATS)
    # untraced passes before and after the traced one, so first-call costs
    # and drift do not land on one side of trace.overhead_frac
    before = run_units(cli, units, work)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_units(cli, units, work)
    finally:
        tracer.uninstall()
    after = run_units(cli, units, work)
    for run in (before, traced, after):
        verify(run["points"])
    points = before["points"] + traced["points"] + after["points"]
    plain_wall = 0.5 * (sum(before["walls"]) + sum(after["walls"]))

    metrics = {name: metric(value, "s" if name.endswith("_s") else
                            "bytes" if name.endswith("_bytes") else "count")
               for name, value in {**imports, **tracer.metrics()}.items()}
    for kind in KINDS:
        metrics[f"evolution.err_max_{kind}"] = metric(
            err_max(points, (kind,)), "1")
    metrics["trace.overhead_frac"] = metric(
        sum(traced["walls"]) / plain_wall - 1.0, "1")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace_{workload}_{seed}.json"
    tracer.write(trace_path, {"workload": workload, "seed": seed,
                              "wall_untraced_s": plain_wall,
                              "wall_traced_s": sum(traced["walls"])})
    print(f"trace written to {trace_path.relative_to(ROOT)}; "
          f"absent wrap points: {', '.join(tracer.absent) or 'none'}")
    return metrics, points


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "threelevel" / "cli.py").is_file():
        print(f"no threelevel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import threelevel.cli as cli   # also writes the bytecode cache

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stream = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            metrics, points = per_layer(cli, stream, work, args.workload,
                                        args.seed)
        else:
            metrics, points = end_to_end(cli, stream, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [p for p in points if p.reason is not None]
    for reason, count in collections.Counter(p.reason for p in failed).items():
        print(f"FAILED {count} point(s): {reason}")
    print(f"fail_frac {len(failed) / len(points):.6g} "
          f"({len(failed)} of {len(points)})")
    for kind in KINDS:
        if any(p.kind == kind for p in points):
            print(f"err_max_{kind} {err_max(points, (kind,)):.6e}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(points),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
