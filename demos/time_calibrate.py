"""Wall time of cold-cache and warm-cache pattern calibrations.

Runs `calibrate` twice on the seed-0 inputs of the benchmark's
calibrate_workload (its first pattern start): once after clearing the
trained-encoder cache, so it trains the encoder, and once more on the
same inputs, which reuses it.  The first figure is what a single
calibration costs; the difference is the training that several starts
on one trace share.  Then does the same on the seed-0 inputs of
calibrate_cooling, clearing the motor equilibrium's per-impedance cache
as well, and prints the milliseconds per objective evaluation.

Each calibration's `dump_calibration_result` is also printed as a
SHA-256, so two checkouts whose calibrations are bit-identical print the
same hashes.

Usage, from the root of a checkout:

    PYTHONPATH=src python demos/time_calibrate.py
"""

import os

# one BLAS thread, as in the benchmark; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from lelsim import calibration, thermal_aux  # noqa: E402


def timed(theta0, data, cfg):
    t0 = time.perf_counter()
    result = calibration.calibrate(theta0, data, cfg)
    return time.perf_counter() - t0, result


def cold_and_warm(name, theta0, data, cfg):
    calibration._data_encoder.cache_clear()
    thermal_aux._monotone_segments.cache_clear()
    cold, a = timed(theta0, data, cfg)
    warm, b = timed(theta0, data, cfg)
    dump = calibration.dump_calibration_result(a)
    same = dump == calibration.dump_calibration_result(b)
    for label, t, res in (("cold", cold, a), ("warm", warm, b)):
        print(f"{name}, {label} cache: {t:.3f} s ({res.n_evals} evaluations, "
              f"{1e3 * t / res.n_evals:.1f} ms each)")
    print(f"{name} results identical: {same}")
    print(f"{name} result sha256: {hashlib.sha256(dump.encode()).hexdigest()}")


def main():
    seed = 0
    data, _, starts, cfg, _ = workloads.CalibrateWorkload.setup(seed, workloads.FULL)
    cold_and_warm("calibrate", starts[0], data, replace(cfg, optimizer_seed=seed + 2))
    data, theta0, cfg = workloads.CalibrateCooling.setup(seed, workloads.FULL)
    cold_and_warm("calibrate cooling", theta0, data, cfg)


if __name__ == "__main__":
    main()
