"""SHA-256 fingerprint of fixed transient grid runs.

Runs a fixed set of seeded simulations and hashes every `SimResult`
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
checks that claim.  One line per run, then the hash over all of them.

Usage, from the root of a checkout:

    PYTHONPATH=src python demos/grid_fingerprint.py
"""

import os

# one BLAS thread, as in the benchmark; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

from lelsim.cases import bundled_case  # noqa: E402
from lelsim.errors import SimulationCollapse  # noqa: E402
from lelsim.grid import (FAULT_ADMITTANCE, Event, SimConfig, fault_events,  # noqa: E402
                         place_lels, run_simulation, sample_scenario)

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


def fingerprint(case, events, cfg) -> str:
    h = hashlib.sha256()
    try:
        res = run_simulation(case, events, cfg)
        h.update(b"completed")
    except SimulationCollapse as exc:
        res = exc.partial
        h.update(repr((exc.reason, exc.step, exc.time, exc.residual)).encode())
    for name in ARRAYS:
        h.update(np.ascontiguousarray(getattr(res, name)).tobytes())
    h.update(repr([(e.time, e.lel_id, e.kind) for e in res.events]).encode())
    h.update(repr((res.collapsed, res.collapse_reason)).encode())
    return h.hexdigest()


def main():
    total = hashlib.sha256()
    for name, case, events, cfg in runs():
        digest = fingerprint(case, events, cfg)
        total.update(digest.encode())
        print(f"{digest[:16]}  {name}")
    print(f"all runs: {total.hexdigest()}")


if __name__ == "__main__":
    main()
