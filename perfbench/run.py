#!/usr/bin/env python3
"""lelsim benchmark: grid and calibration workloads, checked outputs,
end-to-end metrics untraced and per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_fault --seed 0 --seconds 10 --trace 0

--trace 0 sets the package up several times in fresh interpreters (the
median is `setup_s`), then repeats the workload's closed-loop iteration
until --seconds have passed and prints every end-to-end metric.  Its
timings are reference seconds (see refclock.py); the wall-clock figures
are printed on the `run` line.
--trace 1 runs one untraced iteration and two traced ones, checks that the
exact counts repeat, and prints every per-layer metric.  --smoke shrinks
every workload to a few seconds (for the benchmark's own tests; the
numbers are not comparable).  Metric names, units and directions come
from BENCHMARK.json.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# one BLAS thread: the grid step and the encoder use small dense algebra
# that threading only makes noisier; set before numpy is imported
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import refclock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_outputs.json"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

# counts that must repeat exactly across two traced iterations
EXACT_COUNTS = ("grid.steps", "grid.lu_factor.calls", "grid.lu_solve.calls",
                "tcl.windows", "calibration.evals")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def import_workloads():
    """Make the checkout's package importable and load the workloads."""
    if not (SRC / "lelsim" / "__init__.py").is_file():
        raise BenchError(f"no lelsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def environment(cpu: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("openblas configuration",
                                                        blas.get("name")),
            "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
            "nproc": os.cpu_count(), "pinned_cpu": cpu,
            "ref_kernel_s": refclock.REF_KERNEL_S}


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_only(args) -> None:
    """Child mode: import the package and build the workload's inputs."""
    wl = import_workloads()
    sizes = wl.SMOKE if args.smoke else wl.FULL
    wl.WORKLOADS[args.workload].setup(args.seed, sizes)


def measure_setup(args) -> tuple:
    """Median (reference s, wall s) of SETUP_REPEATS fresh-interpreter set-ups."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    ref, wall = [], []
    for _ in range(SETUP_REPEATS):
        proc, w, r = refclock.time_child(lambda: subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=SETUP_TIMEOUT_S))
        if proc.returncode != 0:
            raise BenchError("set-up failed:\n" + proc.stderr)
        ref.append(r)
        wall.append(w)
    return statistics.median(ref), statistics.median(wall)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def reference_check(workload: str, seed: int, fingerprint: str, smoke: bool):
    """True/False against the fingerprint recorded for this seed, or None."""
    if smoke or not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    return None if ref is None else ref == fingerprint


def untraced(wl, workload, inputs, seconds: float):
    """Repeat the iteration until `seconds` have passed (at least once),
    timing every operation on the reference clock."""
    logs = []
    t0 = time.perf_counter()
    while not logs or time.perf_counter() - t0 < seconds:
        log = wl.OpLog(probe=True)
        workload.iterate(inputs, log)
        logs.append(log)
    return logs


def per_call(logs, attr: str) -> tuple:
    """(median over iterations of the mean seconds per headline call,
    work units per headline-call second), from reference or wall seconds."""
    # an iteration's calls differ in size (scenario regimes, the two
    # calibration starts), so take each iteration's mean, then the median
    means = [statistics.fmean(getattr(log, attr)) for log in logs if getattr(log, attr)]
    total = sum(sum(getattr(log, attr)) for log in logs)
    units = sum(log.units for log in logs)
    # with no successful call the run is already incorrect; report 0, not NaN
    return (statistics.median(means) if means else 0.0,
            units / total if total > 0 else 0.0)


def end_to_end(args, wl, workload, inputs):
    setup_s, setup_wall_s = measure_setup(args)
    logs = untraced(wl, workload, inputs, args.seconds)
    call_s, units_per_s = per_call(logs, "call_s")
    call_wall_s, units_per_wall_s = per_call(logs, "wall_s")
    values = {"setup_s": setup_s, "call_s": call_s, "units_per_s": units_per_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    info = {"iterations": len(logs), "calls": sum(len(log.call_s) for log in logs),
            "units": sum(log.units for log in logs), "unit": workload.unit,
            "wall": {"setup_s": setup_wall_s, "call_s": call_wall_s,
                     "units_per_s": units_per_wall_s}}
    return values, logs, info


def traced(args, wl, workload, inputs):
    import tracer

    base = wl.OpLog()
    t0 = time.perf_counter()
    workload.iterate(inputs, base)
    untraced_s = time.perf_counter() - t0

    runs = []
    for _ in range(2):
        rec = tracer.SpanRecorder()
        log = wl.OpLog()
        rec.install()
        try:
            t0 = time.perf_counter()
            workload.iterate(inputs, log, rec)
            wall = time.perf_counter() - t0
        finally:
            rec.uninstall()
        runs.append((rec, log, wall))

    values = [layer_metrics(tracer, rec, log) for rec, log, _ in runs]
    mismatched = [c for c in EXACT_COUNTS
                  if c in values[0] and values[0][c] != values[1].get(c)]
    rec, log, wall = runs[0]
    metrics = values[0]
    metrics["bench.trace_overhead.s"] = wall - untraced_s
    OUT_DIR.mkdir(exist_ok=True)
    for i, (r, _, _) in enumerate(runs):
        r.save(OUT_DIR / f"spans_{args.workload}_seed{args.seed}_{i}.npz")
    info = {"untraced_s": untraced_s, "traced_s": [w for _, _, w in runs],
            "spans": len(rec.start), "missing_boundaries": rec.missing,
            "nondeterministic_counts": mismatched}
    return metrics, [base] + [lg for _, lg, _ in runs], info


def layer_metrics(tracer, rec, log) -> dict:
    """Per-layer values of one traced iteration.  A boundary that was not
    found leaves its metrics out; one that was found but not called reads 0."""
    per = rec.per_name()
    m = {}
    for name in {b.metric for b in tracer.BOUNDARIES}:
        if name in per:
            m[name + ".calls"] = per[name]["calls"]
            m[name + ".s"] = per[name]["s"]
    m["grid.self.s"] = rec.layer_self("grid", per)
    m["calibration.self.s"] = rec.layer_self("calibration", per)
    for name, value in rec.counts.items():
        m[name] = value
    steps = rec.counts["grid.steps"]
    if "grid.lu_solve.calls" in m:
        m["grid.lu_solve.per_step"] = m["grid.lu_solve.calls"] / steps if steps else 0.0
    evals = rec.counts["calibration.evals"]
    m["calibration.improving_eval_ratio"] = (
        rec.counts["calibration.improving_evals"] / evals if evals else 0.0)
    m["bench.mse_calibrate.s"] = log.extra.get("mse_calibrate_s", 0.0)
    m["bench.heldout_dtw_ratio"] = log.extra.get("heldout_dtw_ratio", 0.0)
    return m


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(spec, section, values, logs, info, env, args, extra_ok=True):
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    fingerprint = logs[0].fingerprint
    # every iteration of one run has the same inputs, so the same outputs
    repeatable = len({log.fingerprint for log in logs}) == 1
    identical = reference_check(args.workload, args.seed, fingerprint, args.smoke)
    if section == "per_layer":
        values = dict(values)
        values["bench.failed_ops_frac"] = failed / attempted if attempted else 1.0
        values["bench.outputs_identical"] = {True: 1, False: 0, None: -1}[identical]

    metrics, absent = {}, []
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  (smoke sizes)' if args.smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    print(f"{'metric':34s} {'value':>16s}  {'unit':8s} better")
    for m in spec[section]:
        if m["name"] not in values:
            absent.append(m["name"])
            continue
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:34s} {v:16.6g}  {m['unit']:8s} {m['better']}")
    if absent:
        print("absent (boundary not found): " + ", ".join(absent))
    for log in logs:
        for p in log.problems:
            print("FAILED " + p)
    if not extra_ok:
        print("FAILED counts differ between the traced iterations: "
              + ", ".join(info["nondeterministic_counts"]))
    state = {True: "true", False: "false", None: "unrecorded"}[identical]
    print(f"fingerprint {fingerprint}  outputs_identical {state}"
          f"{'' if repeatable else '  (iterations disagree)'}")
    correct = failed == 0 and repeatable and extra_ok
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every workload to a few seconds")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        wl = import_workloads()
        if args.workload not in wl.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"have {sorted(wl.WORKLOADS)}")
        if args.setup_only:
            setup_only(args)
            return 0
        # the reference clock probes the core the work runs on
        cpu = refclock.pin_to_one_core()
        workload = wl.WORKLOADS[args.workload]
        inputs = workload.setup(args.seed, wl.SMOKE if args.smoke else wl.FULL)
        env = environment(cpu)
        if args.trace:
            values, logs, info = traced(args, wl, workload, inputs)
            report(spec, "per_layer", values, logs, info, env, args,
                   extra_ok=not info["nondeterministic_counts"])
        else:
            values, logs, info = end_to_end(args, wl, workload, inputs)
            report(spec, "end_to_end", values, logs, info, env, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
