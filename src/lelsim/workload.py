"""Duty-idle workload model: mean-reverting utilization with burst impulses.

Utilization eta follows a clipped Ornstein-Uhlenbeck process with
Poisson-timed log-normal jumps; active power interpolates linearly
between idle and full-duty draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from lelsim.errors import InvalidArgument, require_finite
from lelsim.traceio import Trace, step_count


@dataclass(frozen=True)
class WorkloadParams:
    p_base: float       # MW, idle draw
    p_full: float       # MW, rated full-duty draw
    tau_eta: float      # s, mean-reversion time constant
    mu_eta: float       # nominal utilization in [0, 1]
    sigma_xi: float     # continuous noise intensity per sqrt(s)
    lambda_burst: float  # burst events per second
    lnA_mu: float       # log-normal burst amplitude, log-mean
    lnA_sigma: float    # log-normal burst amplitude, log-std

    def __post_init__(self):
        require_finite(self)
        if not (self.p_full >= self.p_base >= 0):
            raise InvalidArgument("need p_full >= p_base >= 0")
        if self.tau_eta <= 0:
            raise InvalidArgument("tau_eta must be > 0")
        if not (0 <= self.mu_eta <= 1):
            raise InvalidArgument("mu_eta must lie in [0, 1]")
        if self.sigma_xi < 0:
            raise InvalidArgument("sigma_xi must be >= 0")
        if self.lambda_burst < 0:
            raise InvalidArgument("lambda_burst must be >= 0")
        if self.lnA_sigma < 0:
            raise InvalidArgument("lnA_sigma must be >= 0")

    def mean_burst_amplitude(self) -> float:
        return math.exp(self.lnA_mu + 0.5 * self.lnA_sigma**2)


@dataclass(frozen=True)
class WorkloadState:
    eta: float

    def __post_init__(self):
        if not (0.0 <= self.eta <= 1.0):
            raise InvalidArgument("eta must lie in [0, 1]")


def ou_step(state: WorkloadState, params: WorkloadParams, dt: float,
            rng: np.random.Generator) -> WorkloadState:
    """Advance utilization by one step of length dt.

    Mean reversion uses the exact exponential decay factor; the diffusion
    term is Euler-Maruyama; at most one burst per step via Bernoulli
    thinning of the Poisson clock (requires lambda*dt <= 0.5).  The result
    is clipped to [0, 1] after the full update.
    """
    if dt <= 0:
        raise InvalidArgument("dt must be > 0")
    if params.lambda_burst * dt > 0.5:
        raise InvalidArgument("lambda_burst * dt > 0.5: step too coarse for Bernoulli thinning")
    tau = params.tau_eta
    eta = params.mu_eta + (state.eta - params.mu_eta) * math.exp(-dt / tau)
    if params.sigma_xi > 0:
        eta += (params.sigma_xi / tau) * math.sqrt(dt) * rng.standard_normal()
    if params.lambda_burst > 0:
        # rng is always consulted in the same order so traces stay
        # reproducible when parameters change between runs
        if rng.random() < params.lambda_burst * dt:
            amp = rng.lognormal(params.lnA_mu, params.lnA_sigma)
            eta += amp / tau
    return WorkloadState(eta=min(1.0, max(0.0, eta)))


def workload_power(eta: float, params: WorkloadParams) -> float:
    """Active power at utilization eta (reactive power is zero)."""
    if not (0.0 <= eta <= 1.0):
        raise InvalidArgument("eta must lie in [0, 1]")
    return params.p_base + eta * (params.p_full - params.p_base)


# block length of the recurrence solver: each block is one matmul row
_BLOCK = 64
# _LAG[j, i] = i - j where j <= i, else _BLOCK + 1: the index into
# [d^0, ..., d^_BLOCK, 0] of the decay from sample j of a block to sample i
_LAG = np.arange(_BLOCK) - np.arange(_BLOCK)[:, None]
_LAG[_LAG < 0] = _BLOCK + 1


def linear_recurrence(c: np.ndarray, d: float) -> np.ndarray:
    """y_i = d*y_(i-1) + c_i for i = 0..n-1 from y_(-1) = 0, solved in
    blocks: one matmul against a triangular matrix of decay powers solves
    every block from a zero start, and a loop over the blocks carries each
    block's start value in (a blocked prefix scan, Blelloch 1990).  Agrees
    with the scalar loop to rounding, not bit for bit."""
    n = len(c)
    padded = np.zeros(-(-n // _BLOCK) * _BLOCK)
    padded[:n] = c
    powers = np.zeros(_BLOCK + 2)
    powers[:-1] = d ** np.arange(_BLOCK + 1.0)
    local = padded.reshape(-1, _BLOCK) @ powers[_LAG]
    decay, s, starts = powers[_BLOCK], 0.0, []
    for e in local[:, -1].tolist():
        starts.append(s)
        s = decay * s + e
    return (local + np.outer(starts, powers[1:-1])).ravel()[:n]


def _clipped_recurrence(c: np.ndarray, d: float, mu: float) -> np.ndarray:
    """eta_i = clip(mu + d*(eta_(i-1) - mu) + c_i, 0, 1) from eta_(-1) = mu:
    the unclipped mu + linear_recurrence(c, d) up to the first sample
    outside [0, 1], then ou_step's clipped update sample by sample to the
    end.  Few paths leave [0, 1], so most cost only the blocked solve."""
    eta = mu + linear_recurrence(c, d)
    outside = (eta < 0.0) | (eta > 1.0)
    if not outside.any():
        return eta
    i = int(outside.argmax())
    e = float(eta[i - 1]) if i else mu
    tail = []
    for ci in c[i:].tolist():
        e = mu + d * (e - mu) + ci
        # if/elif, not min/max: the clip-dense paths run 3x faster
        if e < 0.0:
            e = 0.0
        elif e > 1.0:
            e = 1.0
        tail.append(e)
    eta[i:] = tail
    return eta


# one grid_sweep iteration draws 20 distinct streams, grid_fault's 18
@lru_cache(maxsize=32)
def _draw_noise(seed, n_steps: int, has_noise: bool, lambda_burst: float,
                dt: float, lnA_mu: float, lnA_sigma: float):
    """Unit normals, burst step indices and burst amplitudes of n_steps OU
    steps, drawn in ou_step's order, as read-only arrays.  The draws do not
    depend on mu_eta, tau_eta or the size of sigma_xi, so calibration
    candidates that differ only in those replay one cached stream."""
    rng = np.random.default_rng(seed)
    p_burst = lambda_burst * dt
    has_burst = lambda_burst > 0
    standard_normal = rng.standard_normal
    uniform = rng.random
    normals, steps, amps = [], [], []
    for i in range(n_steps):
        if has_noise:
            normals.append(standard_normal())
        if has_burst and uniform() < p_burst:
            steps.append(i)
            amps.append(rng.lognormal(lnA_mu, lnA_sigma))
    arrays = (np.array(normals, dtype=float), np.array(steps, dtype=np.intp),
              np.array(amps, dtype=float))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def workload_path(params: WorkloadParams, n_steps: int, dt: float,
                  seed) -> np.ndarray:
    """Active power after each of n_steps OU steps from mu_eta, on
    np.random.default_rng(seed): the n_steps ou_step calls on that
    generator, over the draws of _draw_noise.  With y = eta - mu_eta the
    step is y_i = d*y_(i-1) + c_i, d = exp(-dt/tau_eta), c_i the step's
    noise and burst, solved by _clipped_recurrence.  It agrees with the
    ou_step loop to rounding (|dp| <= 1e-12 * (p_full - p_base) in the
    tests), and samples at eta = 0 or 1 are exact."""
    if params.lambda_burst * dt > 0.5:
        raise InvalidArgument("lambda_burst * dt > 0.5: step too coarse for Bernoulli thinning")
    has_noise = params.sigma_xi > 0
    normals, steps, amps = _draw_noise(seed, n_steps, has_noise, params.lambda_burst,
                                       dt, params.lnA_mu, params.lnA_sigma)
    tau = params.tau_eta
    if has_noise:
        c = ((params.sigma_xi / tau) * math.sqrt(dt)) * normals
    else:
        c = np.zeros(n_steps)
    c[steps] += amps / tau
    eta = _clipped_recurrence(c, math.exp(-dt / tau), params.mu_eta)
    return params.p_base + eta * (params.p_full - params.p_base)


def simulate_workload(params: WorkloadParams, horizon: float, dt: float,
                      seed: int) -> Trace:
    """Generate an active-power trace of horizon/dt samples, starting from
    mu_eta.  Bit-reproducible for a fixed seed."""
    p = workload_path(params, step_count(horizon, dt), dt, seed)
    return Trace(sample_period=dt, channels={"p_work": p})


def poisson_log_likelihood(event_count: int, horizon: float, lam: float) -> float:
    """log P(N(T)=n) for a homogeneous Poisson process of rate lam.

    Finite for every lam > 0 and every n >= 0: a single observed count
    never pins down the generating rate.
    """
    if event_count < 0 or int(event_count) != event_count:
        raise InvalidArgument("event_count must be a nonnegative integer")
    if horizon <= 0:
        raise InvalidArgument("horizon must be > 0")
    if lam <= 0:
        raise InvalidArgument("lambda must be > 0")
    n = int(event_count)
    lt = lam * horizon
    return -lt + n * math.log(lt) - math.lgamma(n + 1)
