"""Per-layer tracing by wrapping the program's entry points from outside.

Each wrap point is patched where its caller looks it up (a module global,
a class attribute, or `scipy.*` reached through the calling module), so the
program itself is not edited.  Spans (name, start, end, parent) stay in
memory until `write`; hot inner functions are aggregated as counts, and the
time of the wrapped right-hand side is charged to its enclosing span so that
self times remain exact.  A wrap point the program no longer has is reported
as absent.
"""

import functools
import json
import os
import sys
import time

# (metric, kind, alternative bindings as (module, attribute path)); a span
# records every call, a count only increments.  Bindings are resolved with
# getattr alone, so tracing imports nothing the program did not.
WRAP_POINTS = [
    ("cli.main", "span", [("threelevel.cli", "main")]),
    ("cli.load_config", "span", [("threelevel.cli", "load_config")]),
    ("cli.run_scenario", "span", [("threelevel.cli", "run_scenario")]),
    ("cli.run_sweep", "span", [("threelevel.cli", "run_sweep")]),
    ("cli.run_trajectory", "span", [("threelevel.cli", "run_trajectory")]),
    ("cli.build_schedule", "span", [("threelevel.cli", "build_schedule")]),
    ("cli.emit_table", "span", [("threelevel.cli", "emit_table")]),
    ("pulses.make_stirap_schedule", "span",
     [("threelevel.cli", "make_stirap_schedule")]),
    ("pulses.rabi", "span", [("threelevel.pulses", "PulseSchedule.rabi")]),
    ("pulses.sample", "count",
     [("threelevel.pulses", "GaussianPulse.sample"),
      ("threelevel.pulses", "ConstantPulse.sample"),
      ("threelevel.pulses", "ThetaLawPulse.sample")]),
    ("pulses.rabi_scalar", "count",
     [("threelevel.pulses", "PulseSchedule.rabi_scalar")]),
    ("pulses.delta_scalar", "count",
     [("threelevel.pulses", "PulseSchedule.delta_scalar")]),
    ("adiabatic.frame", "span",
     [("threelevel.adiabatic", "frame"), ("threelevel.cli", "frame")]),
    ("adiabatic.frame_arrays", "span",
     [("threelevel.adiabatic", "frame_arrays")]),
    ("adiabatic.hamiltonian", "span", [("threelevel.adiabatic", "hamiltonian")]),
    ("dissipation.lindblad_ops", "span",
     [("threelevel.dissipation", "lindblad_ops"),
      ("threelevel.evolution", "lindblad_ops")]),
    ("dissipation.dissipator", "span", [("threelevel.evolution", "dissipator")]),
    ("evolution.propagate_bare", "span", [("threelevel.cli", "propagate_bare")]),
    ("evolution.propagate_adiabatic", "span",
     [("threelevel.cli", "propagate_adiabatic")]),
    ("evolution.propagate_expm_oracle", "span",
     [("threelevel.cli", "propagate_expm_oracle")]),
    ("evolution.dissipator_superop", "span",
     [("threelevel.evolution", "dissipator_superop")]),
    ("evolution.liouvillian_matrix", "span",
     [("threelevel.evolution", "liouvillian_matrix")]),
    ("evolution.solve_ivp", "solver",
     [("threelevel.evolution", "solve_ivp"),
      ("threelevel.evolution", "scipy.integrate.solve_ivp")]),
    ("evolution.expm", "span",
     [("threelevel.evolution", "expm"),
      ("threelevel.evolution", "scipy.linalg.expm")]),
    ("evolution.assemble", "span", [("threelevel.evolution", "_assemble")]),
    ("analysis.stability_report", "span",
     [("threelevel.cli", "stability_report")]),
]
RHS = "evolution.rhs"


def _resolve(module_name, path):
    """(owner, attribute) for a dotted path inside a loaded module, or None."""
    owner = sys.modules.get(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Installs the wrappers, records spans and counts, restores on exit."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        # one-element tallies: counts and "evolution.rhs_s" by metric name,
        # and ("charged", span index) for right-hand-side time in that span
        self._cells = {}
        self.absent = []
        self._stack = []
        self._patched = []

    # -- recording -------------------------------------------------------
    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _add(self, name, amount):
        self._cells.setdefault(name, [0])[0] += amount

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapped

    # counts and the right-hand-side timer run on every integrator step, so
    # they tally into closure cells rather than through method calls
    def _count(self, name, fn):
        cell = self._cells.setdefault(name + "_calls", [0])

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _timed_rhs(self, fn, owner):
        calls = self._cells.setdefault(RHS + "_calls", [0])
        busy = self._cells.setdefault(RHS + "_s", [0.0])
        charged = self._cells.setdefault(("charged", owner), [0.0])
        clock = time.perf_counter

        def rhs(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                calls[0] += 1
                busy[0] += elapsed
                charged[0] += elapsed
        return rhs

    def _solver(self, name, fn):
        @functools.wraps(fn)
        def wrapped(fun, *args, **kwargs):
            index = self._open(name)
            try:
                return fn(self._timed_rhs(fun, index), *args, **kwargs)
            finally:
                self._close(index)
        return wrapped

    def _table(self, fn):
        """emit_table(traj, path): also count the rows and bytes written."""
        @functools.wraps(fn)
        def wrapped(traj, path, *args, **kwargs):
            result = fn(traj, path, *args, **kwargs)
            self._add("cli.table_rows", len(traj.times))
            self._add("cli.table_bytes", os.path.getsize(path))
            return result
        return wrapped

    # -- installation ----------------------------------------------------
    def install(self):
        seen = set()
        for metric, kind, bindings in WRAP_POINTS:
            found = False
            for module_name, path in bindings:
                target = _resolve(module_name, path)
                if target is None:
                    continue
                found = True
                owner, attr = target
                if (id(owner), attr) in seen:
                    continue
                seen.add((id(owner), attr))
                original = getattr(owner, attr)
                wrapper = {"span": self._span, "count": self._count,
                           "solver": self._solver}[kind](metric, original)
                if metric == "cli.emit_table":
                    wrapper = self._table(wrapper)
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))
            if not found:
                self.absent.append(metric)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting -------------------------------------------------------
    def self_times(self):
        own = [(end - start) - self._cells.get(("charged", k), [0.0])[0]
               for k, (_, start, end, _) in enumerate(self.spans)]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self):
        """Per wrap point: `_calls` and busy `_s` (outermost spans only)."""
        out = {}
        for metric, kind, _ in WRAP_POINTS:
            out[metric + "_calls"] = 0
            if kind != "count":
                out[metric + "_s"] = 0.0
        for name, start, end, parent in self.spans:
            out[name + "_calls"] += 1
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name + "_s"] += end - start
        out.update({"cli.table_bytes": 0, "cli.table_rows": 0,
                    RHS + "_calls": 0, RHS + "_s": 0.0})
        out.update({name: cell[0] for name, cell in self._cells.items()
                    if isinstance(name, str)})
        return out

    def write(self, path, extra):
        own = self.self_times()
        spans = [{"name": name, "start": start, "end": end, "parent": parent,
                  "self": own[k]}
                 for k, (name, start, end, parent) in enumerate(self.spans)]
        self_by_name = {}
        for span in spans:
            self_by_name[span["name"]] = \
                self_by_name.get(span["name"], 0.0) + span["self"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "self_s": self_by_name,
                       "metrics": self.metrics(), **extra, "spans": spans},
                      fh)
