"""Command-line surface for trace generation, calibration, grid runs,
metric reports, and the sweep experiment drivers.

All outputs are plain CSV or structured text so that identical arguments
and seeds reproduce byte-identical files.  Exit codes: 0 success, 1
bad input (InvalidArgument or OSError: bad arguments, malformed or
missing files, a power flow that does not converge), 2 numerical
failure (a motor without an equilibrium, or a simulated collapse; a
collapse still writes the partial simulation result).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from lelsim.calibration import (
    SUBSYSTEMS,
    CalibrationConfig,
    ObjectiveMode,
    calibrate,
    dump_calibration_result,
    model_pattern,
    simulate_subsystem,
)
from lelsim.cases import BUNDLED_CASES, bundled_case, load_case
from lelsim.errors import InvalidArgument, NoEquilibrium, SimulationCollapse
from lelsim.grid import (
    SimConfig,
    events_to_csv,
    fault_events,
    penetration_sweep,
    place_lels,
    result_to_csv,
    run_simulation,
)
from lelsim.lel import Archetype, archetype_defaults, parse_lel_params
from lelsim.metrics import metric_report
from lelsim.tcl import (
    TrainConfig,
    encode_windows,
    pattern_vector,
    segment_windows,
    train_encoder,
)
from lelsim.traceio import read_trace, write_trace


def _load_lel_params(args):
    if args.params:
        with open(args.params) as fh:
            return parse_lel_params(fh.read())
    return archetype_defaults(Archetype[args.archetype.upper()])


def _subsystem_params(params, subsystem: str):
    return getattr(params, SUBSYSTEMS[subsystem])


def _load_grid_case(name_or_path: str):
    if name_or_path in BUNDLED_CASES:
        return bundled_case(name_or_path)
    with open(name_or_path) as fh:
        return load_case(fh.read())


def _parse_specs(pairs, kind: str, form: str, value) -> dict:
    """{name: value(text)} for NAME=TEXT options; a spec without '=', or
    one whose text value rejects with ValueError, names the expected form,
    and a name given twice is rejected."""
    out = {}
    for spec in pairs:
        try:
            name, text = spec.split("=", 1)
            parsed = value(text)
        except ValueError as exc:
            raise InvalidArgument(f"bad {kind} spec {spec!r}, expected {form}") from exc
        if name in out:
            raise InvalidArgument(f"{kind} {name!r} given more than once")
        out[name] = parsed
    return out


def _interval(text: str) -> tuple[float, float]:
    lo, hi = text.split(":", 1)
    return float(lo), float(hi)


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidArgument(f"bad {flag} list {text!r}, expected "
                              "comma-separated integers") from exc


def _seed(text: str) -> int:
    """The type of every --seed: numpy's generators take only
    non-negative integers, so a negative seed is a usage error."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _write_table(path, lines) -> None:
    """Write the lines of a CSV table to path and echo them."""
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    print(text, end="")


def _calibration_config(args, data, mode: ObjectiveMode) -> CalibrationConfig:
    """Calibration settings shared by the calibrate and robustness commands."""
    return CalibrationConfig(
        base_params=_subsystem_params(_load_lel_params(args), args.subsystem),
        bounds=_parse_specs(args.bound, "bound", "name=lo:hi", _interval),
        subsystem=args.subsystem, mode=mode, max_evals=args.max_evals,
        horizon=len(data) * data.sample_period, dt=data.sample_period,
        sim_seed=args.seed, encoder_seed=args.seed + 1,
        optimizer_seed=args.seed + 2, window_length=args.window_length,
        train=TrainConfig(epochs=args.epochs), n_repeats=args.repeats)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate_load(args) -> int:
    params = _subsystem_params(_load_lel_params(args), args.model)
    trace = simulate_subsystem(params, args.model, args.horizon, args.dt,
                               args.seed)
    write_trace(trace, args.out)
    print(f"wrote {args.out} ({len(trace)} samples)")
    return 0


def cmd_calibrate(args) -> int:
    data = read_trace(args.data)
    cfg = _calibration_config(args, data, ObjectiveMode(args.mode))
    if args.init:
        theta0 = _parse_specs(args.init, "init", "name=value", float)
    else:
        theta0 = {k: 0.5 * (lo + hi) for k, (lo, hi) in cfg.bounds.items()}
    result = calibrate(theta0, data, cfg)
    with open(args.out, "w") as fh:
        fh.write(dump_calibration_result(result))
    print(f"wrote {args.out} (evals={result.n_evals}, "
          f"final={result.final_pattern_distance!r})")
    return 0


def cmd_grid_sim(args) -> int:
    case = place_lels(_load_grid_case(args.case), args.k, args.seed)
    if args.no_events:
        events = []
    else:
        if args.fault_bus is None:
            raise InvalidArgument("--fault-bus is required unless --no-events")
        events = fault_events(args.fault_bus, args.t_fault, args.duration)
    cfg = SimConfig(dt=args.dt, horizon=args.horizon, seed=args.seed)
    try:
        result = run_simulation(case, events, cfg)
        code = 0
    except SimulationCollapse as exc:
        result = exc.partial
        code = 2
        print(f"simulated collapse at t={exc.time:.3f}s: {exc}",
              file=sys.stderr)
    with open(args.out_prefix + "_result.csv", "w") as fh:
        fh.write(result_to_csv(result))
    with open(args.out_prefix + "_events.csv", "w") as fh:
        fh.write(events_to_csv(result))
    print(f"wrote {args.out_prefix}_result.csv and {args.out_prefix}_events.csv")
    return code


def cmd_metrics(args) -> int:
    a = read_trace(args.trace_a).first_channel()
    b = read_trace(args.trace_b).first_channel()
    report = metric_report(a, b)
    print("label,dtw,max_xcorr,cosine")
    print(report.csv_row("a_vs_b"))
    return 0


def cmd_sweep_k(args) -> int:
    case = _load_grid_case(args.case)
    k_values = _int_list(args.k, "--k")
    cfg = SimConfig(dt=args.dt, horizon=args.horizon, seed=args.seed)
    rows = penetration_sweep(case, k_values, args.trials, cfg,
                             base_seed=args.seed)
    lines = ["k,median_voltage_nadir,median_frequency_overshoot,"
             "median_reconnection_delay"]
    for row in rows:
        lines.append(f"{row['k']},{row['nadir_median']!r},"
                     f"{row['overshoot_median']!r},"
                     f"{row['reconnection_median']!r}")
    _write_table(args.out, lines)
    return 0


def cmd_sweep_tcl(args) -> int:
    data = read_trace(args.data)
    l_values = _int_list(args.L, "--L")
    d_values = _int_list(args.d, "--d")
    # split-half pattern distance: train on the full trace, then compare
    # the signatures of the two halves; a stable feature space scores low
    x = data.first_channel()
    half = len(x) // 2
    lines = ["L,d,split_half_distance"]
    for L in l_values:
        X = segment_windows(x, L)
        for d in d_values:
            cfg = TrainConfig(d=d, epochs=args.epochs)
            enc = train_encoder(X, cfg, seed=args.seed)
            s1 = pattern_vector(encode_windows(enc, segment_windows(x[:half], L)))
            s2 = pattern_vector(encode_windows(enc, segment_windows(x[half:], L)))
            dist = float(np.sum((s1 - s2) ** 2))
            lines.append(f"{L},{d},{dist!r}")
    _write_table(args.out, lines)
    return 0


def cmd_robustness(args) -> int:
    if args.inits < 1:
        raise InvalidArgument(f"--inits must be >= 1, got {args.inits}")
    data = read_trace(args.data)
    cfg = _calibration_config(args, data, ObjectiveMode.PATTERN)
    rng = np.random.default_rng(args.seed)
    names = sorted(cfg.bounds)
    lines = ["run," + ",".join(f"init_{n}" for n in names) + ","
             + ",".join(f"star_{n}" for n in names)
             + ",initial_distance,final_distance"]
    cal_patterns, unc_patterns = [], []
    for run in range(args.inits):
        theta0 = {k: rng.uniform(lo, hi) for k, (lo, hi) in cfg.bounds.items()}
        result = calibrate(theta0, data,
                           replace(cfg, optimizer_seed=args.seed + 2 + run))
        cal_patterns.append(model_pattern(result.theta_star, result.encoder, cfg))
        unc_patterns.append(model_pattern(theta0, result.encoder, cfg))
        lines.append(f"{run},"
                     + ",".join(repr(theta0[n]) for n in names) + ","
                     + ",".join(repr(result.theta_star[n]) for n in names)
                     + f",{result.initial_pattern_distance!r}"
                     + f",{result.final_pattern_distance!r}")
    s_cal = float(np.linalg.norm(np.std(cal_patterns, axis=0)))
    s_unc = float(np.linalg.norm(np.std(unc_patterns, axis=0)))
    lines.append(f"# pattern_std_calibrated={s_cal!r}")
    lines.append(f"# pattern_std_uncalibrated={s_unc!r}")
    _write_table(args.out, lines)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lelsim",
                                description="Large electronic load simulator")
    sub = p.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("--archetype", default="datacenter",
                        choices=[a.name.lower() for a in Archetype],
                        help="built-in parameter preset")
        sp.add_argument("--params", help="parameter-exchange file overriding "
                        "the archetype preset")

    def add_calibration(sp):
        """The arguments calibrate and robustness share."""
        add_params(sp)
        sp.add_argument("data", help="measured trace CSV")
        sp.add_argument("--subsystem", default="workload", choices=list(SUBSYSTEMS))
        sp.add_argument("--bound", action="append", required=True,
                        metavar="NAME=LO:HI", help="free parameter bounds")
        sp.add_argument("--max-evals", type=int, default=100)
        sp.add_argument("--window-length", type=int, default=5)
        sp.add_argument("--epochs", type=int, default=60)
        sp.add_argument("--repeats", type=int, default=2)
        sp.add_argument("--seed", type=_seed, default=0)
        sp.add_argument("--out", required=True)

    sp = sub.add_parser("simulate-load", help="generate a load subsystem trace")
    add_params(sp)
    sp.add_argument("--model", default="workload", choices=list(SUBSYSTEMS))
    sp.add_argument("--horizon", type=float, default=3600.0)
    sp.add_argument("--dt", type=float, default=1.0)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_simulate_load)

    sp = sub.add_parser("calibrate", help="fit free parameters to a trace")
    add_calibration(sp)
    sp.add_argument("--init", action="append", default=[],
                    metavar="NAME=VALUE", help="initial value "
                    "(default: midpoint of bounds)")
    sp.add_argument("--mode", default="pattern", choices=["pattern", "mse"])
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("grid-sim", help="run a transient grid scenario")
    sp.add_argument("case", help=f"bundled case name ({', '.join(BUNDLED_CASES)}) "
                    "or a case file path")
    sp.add_argument("--k", type=int, default=0,
                    help="number of LEL sites added to the case's own")
    sp.add_argument("--fault-bus", type=int)
    sp.add_argument("--t-fault", type=float, default=5.0)
    sp.add_argument("--duration", type=float, default=0.1)
    sp.add_argument("--no-events", action="store_true")
    sp.add_argument("--dt", type=float, default=0.005)
    sp.add_argument("--horizon", type=float, default=20.0)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out-prefix", required=True)
    sp.set_defaults(func=cmd_grid_sim)

    sp = sub.add_parser("metrics", help="similarity report between two traces")
    sp.add_argument("trace_a")
    sp.add_argument("trace_b")
    sp.set_defaults(func=cmd_metrics)

    sp = sub.add_parser("sweep-k", help="severity metrics versus LEL count")
    sp.add_argument("case")
    sp.add_argument("--k", default="2,5,10", help="comma-separated counts")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--dt", type=float, default=0.005)
    sp.add_argument("--horizon", type=float, default=20.0)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sweep_k)

    sp = sub.add_parser("sweep-tcl", help="feature-space stability over a "
                        "window-length / dimension grid")
    sp.add_argument("data")
    sp.add_argument("--L", default="3,5,10", help="comma-separated window lengths")
    sp.add_argument("--d", default="16,64,256",
                    help="comma-separated embedding dimensions")
    sp.add_argument("--epochs", type=int, default=60)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sweep_tcl)

    sp = sub.add_parser("robustness", help="calibration from many random "
                        "initializations")
    add_calibration(sp)
    sp.add_argument("--inits", type=int, default=5)
    sp.set_defaults(func=cmd_robustness)

    return p


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # numerical failures, so map usage problems to 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (InvalidArgument, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoEquilibrium, SimulationCollapse) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
