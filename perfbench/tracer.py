"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: each boundary below names a
module attribute that the calling module looks up at call time (a
function it defines or imports), and `SpanRecorder.install` rebinds that
name to a wrapper for the duration of a traced iteration.  Nothing in the
package itself changes.

A span holds (name, start, end, parent span, operation id).  Spans stay
in memory and are written out once, at the end of the run.  Self time is
a span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Boundary:
    module: str          # module whose global name is rebound
    attr: str            # the name the module calls through
    metric: str          # metric prefix, "<layer>.<function>"
    self_layer: str | None  # layer whose self time this span counts toward


# Layer boundaries.  lu_factor / lu_solve are SciPy calls made by the grid
# step; they get their own metrics and do not count toward grid self time.
BOUNDARIES = (
    Boundary("lelsim.grid", "penetration_sweep", "grid.penetration_sweep", "grid"),
    Boundary("lelsim.grid", "run_simulation", "grid.run_simulation", "grid"),
    Boundary("lelsim.grid", "power_flow", "grid.power_flow", "grid"),
    Boundary("lelsim.grid", "init_dynamics", "grid.init_dynamics", "grid"),
    Boundary("lelsim.grid", "lu_factor", "grid.lu_factor", None),
    Boundary("lelsim.grid", "lu_solve", "grid.lu_solve", None),
    Boundary("lelsim.grid", "ou_step", "workload.ou_step", "workload"),
    Boundary("lelsim.grid", "protection_step", "protection.protection_step",
             "protection"),
    Boundary("lelsim.grid", "stall_update", "thermal_aux.stall_update",
             "thermal_aux"),
    Boundary("lelsim.thermal_aux", "init_for_torque",
             "thermal_aux.init_for_torque", "thermal_aux"),
    Boundary("lelsim.calibration", "init_for_torque",
             "thermal_aux.init_for_torque", "thermal_aux"),
    Boundary("lelsim.calibration", "calibrate", "calibration.calibrate",
             "calibration"),
    Boundary("lelsim.calibration", "model_pattern", "calibration.model_pattern",
             "calibration"),
    Boundary("lelsim.calibration", "simulate_subsystem",
             "calibration.simulate_subsystem", "calibration"),
    Boundary("lelsim.calibration", "simulate_workload",
             "workload.simulate_workload", "workload"),
    Boundary("lelsim.workload", "simulate_workload",
             "workload.simulate_workload", "workload"),
    Boundary("lelsim.calibration", "train_encoder", "tcl.train_encoder", "tcl"),
    Boundary("lelsim.calibration", "segment_windows", "tcl.segment_windows", "tcl"),
    Boundary("lelsim.calibration", "encode_windows", "tcl.encode_windows", "tcl"),
    Boundary("lelsim.calibration", "pattern_vector", "tcl.pattern_vector", "tcl"),
    Boundary("lelsim.metrics", "dtw_distance", "metrics.dtw_distance", "metrics"),
)


def _run_simulation_hook(counts, result, exc):
    if exc is not None:
        # a collapse that carries a partial result still integrated its steps
        result = getattr(exc, "partial", None)
    if result is not None:
        counts["grid.steps"] += len(result.time) - 1
        counts["grid.collapsed_runs"] += int(bool(result.collapsed))


def _segment_windows_hook(counts, result, exc):
    if exc is None:
        counts["tcl.windows"] += len(result)


def _calibrate_hook(counts, result, exc):
    if exc is not None:
        return
    counts["calibration.evals"] += result.n_evals
    best = float("inf")
    for value in result.objective_trace:
        if value < best:
            counts["calibration.improving_evals"] += 1
            best = value


# counters derived from a boundary's return value (or its exception)
HOOKS = {
    "grid.run_simulation": _run_simulation_hook,
    "tcl.segment_windows": _segment_windows_hook,
    "calibration.calibrate": _calibrate_hook,
}

COUNTERS = ("grid.steps", "grid.collapsed_runs", "tcl.windows",
            "calibration.evals", "calibration.improving_evals")


class SpanRecorder:
    """In-memory span store plus the counters measured at the boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.child_time: list[float] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def new_op(self) -> None:
        """Start a new top-level operation; later spans carry its id."""
        self.op_id += 1

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.child_time.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        t1 = time.perf_counter()
        self.end[sid] = t1
        self._stack.pop()
        parent = self.parent[sid]
        if parent >= 0:
            self.child_time[parent] += t1 - self.start[sid]

    def wrap(self, fn, metric: str):
        rec = self
        nid = self._intern(metric)
        hook = HOOKS.get(metric)
        counts = self.counts

        def traced(*args, **kwargs):
            sid = rec._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(counts, None, exc)
                raise
            else:
                if hook is not None:
                    hook(counts, result, None)
            finally:
                rec._close(sid)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every boundary that exists; record the ones that do not."""
        for b in BOUNDARIES:
            mod = importlib.import_module(b.module)
            fn = getattr(mod, b.attr, None)
            if fn is None:
                self.missing.append(f"{b.module}.{b.attr}")
                continue
            self._saved.append((mod, b.attr, fn))
            setattr(mod, b.attr, self.wrap(fn, b.metric))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # -- summaries ---------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds for every span name."""
        nid = np.asarray(self.name_id, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        self_t = dur - np.asarray(self.child_time)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_t, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def layer_self(self, layer: str, per_name) -> float:
        metrics = {b.metric for b in BOUNDARIES if b.self_layer == layer}
        return sum(v["self_s"] for name, v in per_name.items() if name in metrics)

    def save(self, path) -> None:
        """Write the spans as arrays (names are indexed by `name_id`)."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            op=np.asarray(self.op, dtype=np.int64))
