"""Pattern-consistent parameter calibration against a measured trace.

The calibration target is the squared distance between the pattern
vector of the data and the pattern vector of a simulated trace, both
produced by one frozen window encoder.  The search is a derivative-free
simplex over transform-mapped parameters; every candidate reuses one
fixed simulation seed (common random numbers) so the objective is a
deterministic function of the parameters.  A pointwise-MSE objective is
provided as the ablation arm.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from lelsim.errors import InvalidArgument
from lelsim.thermal_aux import _equilibrium, aux_power
from lelsim.tcl import (
    Encoder,
    TrainConfig,
    encode_windows,
    pattern_vector,
    segment_windows,
    train_encoder,
)
from lelsim.traceio import Trace, step_count
from lelsim.workload import WorkloadParams, linear_recurrence, simulate_workload


# each load subsystem a calibration can fit, and the LelParams field
# that holds its parameters
SUBSYSTEMS = {"workload": "work", "cooling": "cool", "aux": "aux"}


class ObjectiveMode(enum.Enum):
    PATTERN = "pattern"
    MSE = "mse"


@dataclass(frozen=True)
class CalibrationConfig:
    """Everything a calibration run depends on, seeds included."""

    base_params: object                      # full parameter set; free ones overridden
    bounds: dict                             # free name -> (lo, hi)
    subsystem: str = "workload"              # workload | cooling | aux
    mode: ObjectiveMode = ObjectiveMode.PATTERN
    max_evals: int = 200
    horizon: float = 7200.0
    dt: float = 1.0
    sim_seed: int = 0
    encoder_seed: int = 0
    optimizer_seed: int = 0
    window_length: int = 5
    train: TrainConfig = field(default_factory=TrainConfig)
    n_repeats: int = 1                       # realizations averaged into s_model

    def __post_init__(self):
        if self.max_evals < 1:
            raise InvalidArgument("max_evals must be >= 1")
        if self.subsystem not in SUBSYSTEMS:
            raise InvalidArgument(f"unknown subsystem {self.subsystem!r}")
        if not self.bounds:
            raise InvalidArgument("bounds must name at least one free parameter")
        unknown = set(self.bounds) - {f.name for f in fields(self.base_params)}
        if unknown:
            raise InvalidArgument(f"bounds name unknown {self.subsystem} parameter(s): "
                                  f"{', '.join(sorted(unknown))}")
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidArgument(f"bad bounds for {name}: ({lo}, {hi})")
        if self.n_repeats < 1:
            raise InvalidArgument("n_repeats must be >= 1")


@dataclass
class CalibrationResult:
    theta_star: dict
    objective_trace: list            # best accepted objective after each evaluation
    final_pattern_distance: float
    initial_pattern_distance: float
    n_evals: int
    budget_exhausted: bool
    encoder: Encoder | None = None


# ---------------------------------------------------------------------------
# subsystem simulators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _voltage_excitation(n: int, seed: int) -> np.ndarray:
    """Band-limited seeded voltage ride in [0.85, 1.05] used to excite the
    voltage-dependent subsystems, read-only: every evaluation of a
    calibration replays one cached ride."""
    e = np.random.default_rng([seed, 0xE0]).standard_normal(n)
    x = linear_recurrence(0.02 * e, 0.98)
    v = np.clip(0.95 + 0.6 * x, 0.85, 1.05)
    v.flags.writeable = False
    return v


def simulate_subsystem(params, subsystem: str, horizon: float, dt: float,
                       seed: int) -> Trace:
    """One seeded realization of the named load subsystem."""
    if subsystem not in SUBSYSTEMS:
        raise InvalidArgument(f"unknown subsystem {subsystem!r}")
    if subsystem == "workload":
        return simulate_workload(params, horizon, dt, seed)
    v = _voltage_excitation(step_count(horizon, dt), seed)
    if subsystem == "aux":
        p = aux_power(v, params)[0]
    else:
        # quasi-steady motor power along the voltage ride, at the
        # equilibrium that carries the load torque at every sample
        _, _, i = _equilibrium(params.load_factor, v, params, power=False)
        p = v * i.real * params.mva_base
    return Trace(sample_period=dt, channels={"p": p})


def _simulate_theta(theta: dict, cfg: CalibrationConfig, rep: int = 0) -> Trace:
    params = replace(cfg.base_params, **theta)
    seed = cfg.sim_seed if rep == 0 else int(
        np.random.default_rng([cfg.sim_seed, rep]).integers(2**31))
    return simulate_subsystem(params, cfg.subsystem, cfg.horizon, cfg.dt, seed)


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def _check_bounds(theta: dict, cfg: CalibrationConfig) -> None:
    """theta must give every free parameter, and no other, within its bounds."""
    if set(theta) != set(cfg.bounds):
        raise InvalidArgument(f"theta names {', '.join(sorted(theta))}, but the free "
                              f"parameters are {', '.join(sorted(cfg.bounds))}")
    for name, (lo, hi) in cfg.bounds.items():
        if not (lo <= theta[name] <= hi):
            raise InvalidArgument(
                f"{name}={theta[name]} outside bounds [{lo}, {hi}]")


def model_pattern(theta: dict, encoder: Encoder, cfg: CalibrationConfig) -> np.ndarray:
    """s_model: pattern vector of the simulated trace under the frozen
    encoder, averaged over cfg.n_repeats realizations."""
    acc = None
    for rep in range(cfg.n_repeats):
        trace = _simulate_theta(theta, cfg, rep)
        X = segment_windows(trace.first_channel(), cfg.window_length)
        s = pattern_vector(encode_windows(encoder, X))
        acc = s if acc is None else acc + s
    return acc / cfg.n_repeats


def calibration_objective(theta: dict, data_pattern: np.ndarray,
                          encoder: Encoder, cfg: CalibrationConfig) -> float:
    """Squared Euclidean pattern distance; deterministic given cfg seeds."""
    _check_bounds(theta, cfg)
    s_model = model_pattern(theta, encoder, cfg)
    d = s_model - np.asarray(data_pattern, dtype=float)
    return float(d @ d)


def mse_objective(theta: dict, data_trace: Trace, cfg: CalibrationConfig) -> float:
    """Pointwise mean squared error against the data trace (ablation)."""
    _check_bounds(theta, cfg)
    sim = _simulate_theta(theta, cfg)
    a = data_trace.first_channel()
    b = sim.first_channel()
    if len(a) != len(b):
        raise InvalidArgument(
            f"trace length mismatch: data {len(a)} vs simulated {len(b)}")
    return float(np.mean((a - b) ** 2))


# ---------------------------------------------------------------------------
# bounded transform
# ---------------------------------------------------------------------------

_EPS = 1e-9


def to_unconstrained(theta: dict, bounds: dict) -> np.ndarray:
    u = np.empty(len(bounds))
    for i, (name, (lo, hi)) in enumerate(bounds.items()):
        p = (theta[name] - lo) / (hi - lo)
        p = min(max(p, _EPS), 1.0 - _EPS)
        u[i] = math.log(p / (1.0 - p))
    return u


def from_unconstrained(u: np.ndarray, bounds: dict) -> dict:
    theta = {}
    for i, (name, (lo, hi)) in enumerate(bounds.items()):
        # lo + (hi - lo) can round above hi once exp(-u) is lost against 1
        theta[name] = min(hi, lo + (hi - lo) / (1.0 + math.exp(-float(u[i]))))
    return theta


# ---------------------------------------------------------------------------
# the calibration driver
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _data_encoder(series: bytes, window_length: int, train: TrainConfig,
                  encoder_seed: int) -> tuple[Encoder, np.ndarray]:
    """The encoder trained on the windows of a float64 series, and the
    series' pattern vector under it, both read-only.  They depend on
    nothing else, so calibrations from several starts on one trace share
    one training; several results then hold the same Encoder object."""
    X = segment_windows(np.frombuffer(series), window_length)
    encoder = train_encoder(X, train, seed=encoder_seed)
    s_data = pattern_vector(encode_windows(encoder, X))
    for a in (encoder.W1, encoder.b1, encoder.W2, encoder.b2, s_data):
        a.flags.writeable = False
    return encoder, s_data


def calibrate(theta_init: dict, data_trace: Trace,
              cfg: CalibrationConfig) -> CalibrationResult:
    """Bound-constrained simplex search with common random numbers.

    The encoder is trained on the data windows and frozen, and s_data is
    computed under it, once per data trace, window length, cfg.train and
    cfg.encoder_seed in a process: later calls with the same four reuse
    them from a small cache, and the encoder's weights are read-only.
    One Nelder-Mead pass, from a simplex drawn around
    theta_init with cfg.optimizer_seed, runs until it converges or the
    evaluation budget is spent.  Budget exhaustion returns best-so-far
    with a flag.
    """
    data = np.asarray(data_trace.first_channel(), dtype=float)
    if len(data) < 4 * cfg.window_length:
        raise InvalidArgument(
            f"data trace too short: {len(data)} < {4 * cfg.window_length}")
    _check_bounds(theta_init, cfg)

    if cfg.mode is ObjectiveMode.PATTERN:
        encoder, data_pattern = _data_encoder(
            data.tobytes(), cfg.window_length, cfg.train, cfg.encoder_seed)

        def objective(theta):
            return calibration_objective(theta, data_pattern, encoder, cfg)
    else:
        encoder = None

        def objective(theta):
            return mse_objective(theta, data_trace, cfg)

    best = {"u": to_unconstrained(theta_init, cfg.bounds), "f": math.inf}
    trace_vals: list = []

    def objective_u(u):
        f = objective(from_unconstrained(u, cfg.bounds))
        if f < best["f"]:
            best["f"] = f
            best["u"] = np.array(u, dtype=float)
        trace_vals.append(best["f"])
        return f

    rng = np.random.default_rng(cfg.optimizer_seed)
    u = best["u"]
    n_free = len(cfg.bounds)
    simplex = np.vstack([u] + [u + 0.5 * rng.standard_normal(n_free)
                               for _ in range(n_free)])
    # scipy's Nelder-Mead raises, and ends the search, before any call
    # past maxfev; imported here so that grid runs and the other
    # subcommands do not load it
    from scipy.optimize import minimize
    minimize(objective_u, u, method="Nelder-Mead",
             options={"maxfev": cfg.max_evals, "initial_simplex": simplex,
                      "xatol": 1e-8, "fatol": 1e-12})

    theta_star = from_unconstrained(best["u"], cfg.bounds)
    # the pattern distances, which an MSE run does not have.  theta_star is
    # the best evaluated point, so its distance is best["f"]; theta_init is
    # evaluated again because the logit round trip moves it
    if encoder is None:
        initial = final = math.nan
    else:
        initial, final = objective(theta_init), best["f"]
    return CalibrationResult(theta_star=theta_star, objective_trace=trace_vals,
                             final_pattern_distance=final,
                             initial_pattern_distance=initial,
                             n_evals=len(trace_vals),
                             budget_exhausted=len(trace_vals) >= cfg.max_evals,
                             encoder=encoder)


# ---------------------------------------------------------------------------
# result serialization
# ---------------------------------------------------------------------------

def dump_calibration_result(result: CalibrationResult) -> str:
    lines = ["[theta_star]"]
    for k in sorted(result.theta_star):
        lines.append(f"{k}={result.theta_star[k]!r}")
    lines.append("")
    lines.append("[summary]")
    lines.append(f"final_pattern_distance={result.final_pattern_distance!r}")
    lines.append(f"initial_pattern_distance={result.initial_pattern_distance!r}")
    lines.append(f"n_evals={result.n_evals}")
    lines.append(f"budget_exhausted={result.budget_exhausted}")
    lines.append("")
    lines.append("[objective_trace]")
    lines.append("eval,best_objective")
    for i, v in enumerate(result.objective_trace):
        lines.append(f"{i},{v!r}")
    return "\n".join(lines) + "\n"
