"""Wall time of one cold-cache and one warm-cache pattern calibration.

Runs `calibrate` twice on the seed-0 inputs of the benchmark's
calibrate_workload (its first pattern start): once after clearing the
trained-encoder cache, so it trains the encoder, and once more on the
same inputs, which reuses it.  The first figure is what a single
calibration costs; the difference is the training that several starts
on one trace share.

Usage, from the root of a checkout:

    PYTHONPATH=src python demos/time_calibrate.py
"""

import os

# one BLAS thread, as in the benchmark; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from lelsim import calibration  # noqa: E402


def timed(theta0, data, cfg):
    t0 = time.perf_counter()
    result = calibration.calibrate(theta0, data, cfg)
    return time.perf_counter() - t0, result


def main():
    seed = 0
    data, _, starts, cfg, _ = workloads.CalibrateWorkload.setup(seed, workloads.FULL)
    cfg = replace(cfg, optimizer_seed=seed + 2)
    calibration._data_encoder.cache_clear()
    cold, a = timed(starts[0], data, cfg)
    warm, b = timed(starts[0], data, cfg)
    same = calibration.dump_calibration_result(a) == calibration.dump_calibration_result(b)
    print(f"calibrate, cold cache: {cold:.3f} s ({a.n_evals} evaluations)")
    print(f"calibrate, warm cache: {warm:.3f} s ({b.n_evals} evaluations)")
    print(f"results identical: {same}")


if __name__ == "__main__":
    main()
