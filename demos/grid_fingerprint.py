"""SHA-256 fingerprint of fixed transient grid runs.

Hashes the power-flow bus voltages V0 of toy2, toy9 and ieee39, then
runs a fixed set of seeded simulations and hashes every `SimResult`
array, the event log and the collapse outcome of each:

- toy9 with three LELs: -8j faults at bus 7 (three sheds) and at bus 8
  (shed, then ramp), a bolted fault at bus 8 (Newton collapse after the
  clearing), and a trip of the ring branch 4-5;
- toy2 with a -4j sag at the LEL bus (shed, motor stall trip at 0.45 s,
  restart at 4.455 s), and an uncleared -100j fault that holds the LEL
  bus below the constant-power floor V_FLOOR;
- ieee39 with ten LELs: `sample_scenario` seeds 0, 5 and 7 (ride-through,
  mass disconnection, shed-and-reconnect), 20 s at dt 5 ms.

Two checkouts whose outputs are bit-identical print the same hashes, so
running it before and after a change that should not move any number
checks that claim.  One line for the power flows and one per run, then
the hash over all of them.

A change that moves numbers on purpose reports by how much: `--save`
writes every run's arrays, event log and collapse outcome to an .npz
file with the power-flow voltages, and `--compare` runs the set again
and prints the largest |dV0| (pu) from the saved power-flow voltages
and, per run, the largest difference from the saved runs (over the
samples both have) in bus voltage magnitude |V| (pu), bus voltage angle
theta (rad), generator speed omega (pu) and LEL power lel_p (MW), and
whether the event logs and the collapse outcomes (reason, step and time)
are equal; where two event logs differ only in their times (same order,
LEL ids and kinds), it prints the largest event-time shift.  Angles are
absolute: a change in the system's mean frequency turns every angle
alike, so |dtheta| can exceed what the relative angles show.  It exits 1
when an event log or a collapse outcome differs, in its times only too.

Usage, from the root of a checkout:

    PYTHONPATH=src python demos/grid_fingerprint.py
    PYTHONPATH=src python demos/grid_fingerprint.py --save before.npz
    PYTHONPATH=src python demos/grid_fingerprint.py --compare before.npz
"""

import os

# one BLAS thread, as in the benchmark; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from lelsim.cases import bundled_case  # noqa: E402
from lelsim.errors import SimulationCollapse  # noqa: E402
from lelsim.grid import (FAULT_ADMITTANCE, Event, SimConfig, fault_events,  # noqa: E402
                         place_lels, power_flow, run_simulation, sample_scenario)

POWER_FLOW_CASES = ("toy2", "toy9", "ieee39")
ARRAYS = ("time", "v_mag", "v_ang", "gen_omega", "gen_delta", "lel_p", "lel_q",
          "lel_kappa", "lel_mode", "motor_mode", "lel_kappa_full")


def runs():
    """(name, case, events, config) of every fingerprinted run."""
    toy9 = place_lels(bundled_case("toy9"), 3, seed=1)
    short = SimConfig(dt=0.005, horizon=3.0, seed=0)
    yield "toy9 fault -8j bus 7", toy9, fault_events(7, 0.5, 0.1, -8j), short
    yield "toy9 fault -8j bus 8", toy9, fault_events(8, 0.5, 0.1, -8j), short
    yield "toy9 bolted fault bus 8", toy9, fault_events(8, 0.5, 0.1, FAULT_ADMITTANCE), short
    yield ("toy9 trip 4-5", toy9, [Event(time=0.5, kind="branch_trip", branch=(4, 5))],
           short)
    toy2 = bundled_case("toy2")
    yield ("toy2 sag -4j", toy2, fault_events(2, 0.2, 0.3, -4j),
           SimConfig(dt=0.005, horizon=5.0, seed=0))
    yield ("toy2 uncleared -100j", toy2,
           [Event(time=0.2, kind="fault", bus=2, admittance=-100j)],
           SimConfig(dt=0.005, horizon=1.0, seed=0))
    ieee39 = bundled_case("ieee39")
    for s in (0, 5, 7):
        placed, events = sample_scenario(ieee39, 10, s, t_fault=5.0, duration=0.1)
        yield f"ieee39 k=10 scenario {s}", placed, events, SimConfig(
            dt=0.005, horizon=20.0, seed=0)


def simulate(case, events, cfg):
    """The run's result and its collapse outcome: "completed", or the
    collapse's (reason, step, time, residual)."""
    try:
        return run_simulation(case, events, cfg), "completed"
    except SimulationCollapse as exc:
        return exc.partial, (exc.reason, exc.step, exc.time, exc.residual)


def event_log(res) -> list:
    return [(e.time, e.lel_id, e.kind) for e in res.events]


def fingerprint(res, outcome) -> str:
    h = hashlib.sha256()
    h.update(b"completed" if outcome == "completed" else repr(outcome).encode())
    for name in ARRAYS:
        h.update(np.ascontiguousarray(getattr(res, name)).tobytes())
    h.update(repr(event_log(res)).encode())
    h.update(repr((res.collapsed, res.collapse_reason)).encode())
    return h.hexdigest()


def outcome_log(res, outcome) -> dict:
    """The run's event log and collapse outcome (reason, step and time: a
    collapse's residual is a number like any other), as JSON reads it."""
    return json.loads(json.dumps({
        "events": event_log(res),
        "outcome": [outcome if outcome == "completed" else outcome[:3],
                    res.collapsed, res.collapse_reason]}))


def saved_run(res, outcome) -> dict:
    """What --save keeps of one run: its arrays, and its outcome_log."""
    run = {name: getattr(res, name) for name in ARRAYS}
    run["log"] = np.array(json.dumps(outcome_log(res, outcome)))
    return run


def deviations(res, outcome, saved) -> tuple[str, bool]:
    """One line giving the largest differences from the saved run over the
    samples both have, and whether event logs and outcomes are equal; and
    whether both are."""
    T = min(len(res.time), len(saved["time"]))

    def largest(a, b):
        return float(np.max(np.abs(a[:T] - b[:T]), initial=0.0))

    # angles wrapped to (-pi, pi]
    d_ang = np.angle(np.exp(1j * (res.v_ang[:T] - saved["v_ang"][:T])))
    now, then = outcome_log(res, outcome), json.loads(str(saved["log"]))
    verdict = {key: "equal" if now[key] == then[key] else "DIFFER"
               for key in ("events", "outcome")}
    # an event is [time, lel_id, kind]
    if verdict["events"] != "equal" and (
            [e[1:] for e in now["events"]] == [e[1:] for e in then["events"]]):
        shift = max(abs(a[0] - b[0]) for a, b in zip(now["events"], then["events"]))
        verdict["events"] += f" (times only, by up to {shift:.1e} s)"
    lengths = "" if len(res.time) == len(saved["time"]) else (
        f"  samples {len(saved['time'])} -> {len(res.time)}")
    return (f"|d|V|| {largest(res.v_mag, saved['v_mag']):.2e}  |dtheta| "
            f"{np.max(np.abs(d_ang), initial=0.0):.2e}  |domega| "
            f"{largest(res.gen_omega, saved['gen_omega']):.2e}  |dlel_p| "
            f"{largest(res.lel_p, saved['lel_p']):.2e}"
            + "".join(f"  {key} {text}" for key, text in verdict.items())
            + lengths), all(text == "equal" for text in verdict.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--save", metavar="PATH", help="write every run to this .npz file")
    mode.add_argument("--compare", metavar="PATH",
                      help="print each run's deviations from the runs saved here")
    args = parser.parse_args()
    saved = np.load(args.compare) if args.compare else None
    total = hashlib.sha256()
    v0 = np.concatenate([power_flow(bundled_case(c)) for c in POWER_FLOW_CASES])
    digest = hashlib.sha256(v0.tobytes()).hexdigest()
    total.update(digest.encode())
    line = f"{digest[:16]}  power flow V0 {'/'.join(POWER_FLOW_CASES)}"
    if saved is not None:
        line += "\n                  " + (
            f"|dV0| {np.max(np.abs(v0 - saved['pf/v0'])):.2e}" if "pf/v0" in saved.files
            else "no saved power flow")
    print(line)
    to_save = {"pf/v0": v0}
    all_equal = True
    for i, (name, case, events, cfg) in enumerate(runs()):
        res, outcome = simulate(case, events, cfg)
        digest = fingerprint(res, outcome)
        total.update(digest.encode())
        line = f"{digest[:16]}  {name}"
        if saved is not None:
            text, equal = deviations(res, outcome, {
                key.split("/", 1)[1]: saved[key] for key in saved.files
                if key.startswith(f"{i}/")})
            all_equal &= equal
            line += f"\n                  {text}"
        if args.save:
            to_save.update({f"{i}/{key}": v for key, v in saved_run(res, outcome).items()})
        print(line)
    print(f"all runs: {total.hexdigest()}")
    if args.save:
        np.savez_compressed(args.save, **to_save)
    if not all_equal:
        sys.exit(1)


if __name__ == "__main__":
    main()
