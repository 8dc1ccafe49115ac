"""Unit tests for the stochastic duty-idle workload model."""

import math

import numpy as np
import pytest

from lelsim.errors import InvalidArgument
from lelsim import workload
from lelsim.workload import (
    WorkloadParams,
    WorkloadState,
    linear_recurrence,
    ou_step,
    poisson_log_likelihood,
    simulate_workload,
    workload_power,
)


def make_params(**overrides):
    base = dict(p_base=2.0, p_full=10.0, tau_eta=10.0, mu_eta=0.3,
                sigma_xi=0.05, lambda_burst=0.002, lnA_mu=-3.0, lnA_sigma=0.3)
    base.update(overrides)
    return WorkloadParams(**base)


def ou_step_powers(params, n_steps, seed):
    """Power of n_steps ou_step calls on one fresh generator."""
    rng = np.random.default_rng(seed)
    state = WorkloadState(eta=params.mu_eta)
    powers = []
    for _ in range(n_steps):
        state = ou_step(state, params, 1.0, rng)
        powers.append(workload_power(state.eta, params))
    return powers


def assert_matches_ou_step_loop(powers, params, n_steps, seed):
    """powers equals the ou_step loop to 1e-12 of the power range, and
    exactly at every sample clipped to eta = 0 or 1."""
    expected = np.array(ou_step_powers(params, n_steps, seed))
    assert np.abs(powers - expected).max() <= 1e-12 * (params.p_full - params.p_base)
    bounds = (params.p_base, params.p_full)
    clipped = np.isin(expected, bounds)
    assert np.array_equal(np.isin(powers, bounds), clipped)
    assert np.array_equal(powers[clipped], expected[clipped])


def scalar_recurrence(c, d, y0):
    y, out = y0, []
    for ci in c:
        y = d * y + ci
        out.append(y)
    return np.array(out)


def scalar_clipped_recurrence(c, d, mu):
    e, out = mu, []
    for ci in c:
        e = min(1.0, max(0.0, mu + d * (e - mu) + ci))
        out.append(e)
    return np.array(out)


class TestValidation:
    def test_rejects_inverted_power_range(self):
        with pytest.raises(InvalidArgument):
            make_params(p_base=11.0)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(InvalidArgument):
            make_params(tau_eta=0.0)

    def test_rejects_mu_outside_unit_interval(self):
        with pytest.raises(InvalidArgument):
            make_params(mu_eta=1.2)

    def test_rejects_eta_outside_unit_interval(self):
        with pytest.raises(InvalidArgument):
            WorkloadState(eta=-0.1)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(InvalidArgument):
            ou_step(WorkloadState(0.5), make_params(), 0.0,
                    np.random.default_rng(0))

    def test_rejects_coarse_step_for_burst_thinning(self):
        with pytest.raises(InvalidArgument):
            ou_step(WorkloadState(0.5), make_params(lambda_burst=0.4), 2.0,
                    np.random.default_rng(0))

    def test_path_accepts_a_burst_chance_of_one_half_per_step(self):
        path = workload.workload_path(make_params(lambda_burst=0.25), 8, 2.0, 0)
        assert path.shape == (8,)

    def test_path_rejects_a_burst_chance_above_one_half_per_step(self):
        with pytest.raises(InvalidArgument, match="lambda_burst"):
            workload.workload_path(make_params(lambda_burst=0.2501), 8, 2.0, 0)


class TestOuStep:
    def test_deterministic_given_rng_state(self):
        params = make_params()
        a = ou_step(WorkloadState(0.5), params, 1.0, np.random.default_rng(7))
        b = ou_step(WorkloadState(0.5), params, 1.0, np.random.default_rng(7))
        assert a.eta == b.eta

    def test_noise_free_step_is_exact_exponential_decay(self):
        params = make_params(sigma_xi=0.0, lambda_burst=0.0)
        state = WorkloadState(0.9)
        out = ou_step(state, params, 2.5, np.random.default_rng(0))
        expected = 0.3 + (0.9 - 0.3) * math.exp(-2.5 / 10.0)
        assert out.eta == pytest.approx(expected, abs=1e-15)

    def test_always_clipped_to_unit_interval(self):
        params = make_params(sigma_xi=2.0, lambda_burst=0.3, lnA_mu=1.0)
        rng = np.random.default_rng(1)
        state = WorkloadState(0.5)
        for _ in range(10**4):
            state = ou_step(state, params, 1.0, rng)
            assert 0.0 <= state.eta <= 1.0

    def test_burst_enters_as_amplitude_over_tau(self):
        params = make_params(sigma_xi=0.0, lambda_burst=0.5,
                             lnA_mu=0.0, lnA_sigma=0.0)
        # with lnA_sigma=0 every burst has amplitude exactly 1
        rng = np.random.default_rng(3)
        out = None
        state = WorkloadState(0.3)
        for _ in range(100):
            prev = state.eta
            state = ou_step(state, params, 1.0, rng)
            jump = state.eta - (0.3 + (prev - 0.3) * math.exp(-1.0 / 10.0))
            if jump > 1e-12:
                out = jump
                break
        assert out == pytest.approx(1.0 / 10.0, rel=1e-9)


class TestWorkloadPower:
    def test_interpolates_between_idle_and_full(self):
        params = make_params()
        assert workload_power(0.0, params) == 2.0
        assert workload_power(1.0, params) == 10.0
        assert workload_power(0.5, params) == pytest.approx(6.0)

    def test_monotone_in_eta(self):
        params = make_params()
        etas = np.linspace(0, 1, 50)
        powers = [workload_power(e, params) for e in etas]
        assert all(b >= a for a, b in zip(powers, powers[1:]))

    def test_rejects_eta_outside_unit_interval(self):
        with pytest.raises(InvalidArgument):
            workload_power(1.5, make_params())


class TestSimulateWorkload:
    def test_trace_shape_and_sample_period(self):
        trace = simulate_workload(make_params(), 100.0, 0.5, seed=0)
        assert len(trace) == 200
        assert trace.sample_period == 0.5

    def test_horizon_of_a_fractional_step_count(self):
        # 4.3 / 0.1 rounds down to 42.99999999999999
        assert len(simulate_workload(make_params(), 4.3, 0.1, seed=0)) == 43

    def test_off_grid_horizon_rejected(self):
        with pytest.raises(InvalidArgument, match="not a whole number of steps"):
            simulate_workload(make_params(), 4.35, 0.1, seed=0)

    def test_bit_identical_for_same_seed(self):
        a = simulate_workload(make_params(), 50.0, 1.0, seed=5)
        b = simulate_workload(make_params(), 50.0, 1.0, seed=5)
        assert np.array_equal(a.first_channel(), b.first_channel())

    def test_different_seed_changes_trace(self):
        a = simulate_workload(make_params(), 50.0, 1.0, seed=5)
        b = simulate_workload(make_params(), 50.0, 1.0, seed=6)
        assert not np.array_equal(a.first_channel(), b.first_channel())

    def test_power_stays_within_physical_range(self):
        trace = simulate_workload(make_params(), 500.0, 1.0, seed=2)
        p = trace.first_channel()
        assert p.min() >= 2.0 - 1e-12
        assert p.max() <= 10.0 + 1e-12

    def test_matches_ou_step_loop(self):
        params = make_params(lambda_burst=0.2)
        trace = simulate_workload(params, 400.0, 1.0, seed=8)
        assert_matches_ou_step_loop(trace.first_channel(), params, 400, 8)

    @pytest.mark.parametrize("params", [
        make_params(sigma_xi=2.0, lambda_burst=0.3, lnA_mu=1.0),
        make_params(mu_eta=1.0),
    ], ids=["noise_and_bursts", "mean_at_full_duty"])
    def test_clip_dense_path_matches_ou_step_loop(self, params):
        trace = simulate_workload(params, 7200.0, 1.0, seed=3)
        p = trace.first_channel()
        assert np.isin(p, (params.p_base, params.p_full)).mean() > 0.1
        assert_matches_ou_step_loop(p, params, 7200, 3)


class TestCommonRandomNumbers:
    def test_replayed_noise_matches_ou_step_loop(self):
        workload._draw_noise.cache_clear()
        first, second = make_params(lambda_burst=0.2), make_params(
            lambda_burst=0.2, mu_eta=0.6, tau_eta=25.0, sigma_xi=0.2)
        for p in (first, second):
            trace = simulate_workload(p, 300.0, 1.0, seed=4)
            assert_matches_ou_step_loop(trace.first_channel(), p, 300, 4)
        assert workload._draw_noise.cache_info().hits == 1

    def test_streams_by_burst_settings_match_ou_step_loop(self):
        workload._draw_noise.cache_clear()
        for p in (make_params(), make_params(lambda_burst=0.0),
                  make_params(sigma_xi=0.0)):
            trace = simulate_workload(p, 50.0, 1.0, seed=4)
            assert_matches_ou_step_loop(trace.first_channel(), p, 50, 4)
        assert workload._draw_noise.cache_info().misses == 3

    def test_cache_holds_twenty_streams(self):
        workload._draw_noise.cache_clear()
        for _ in range(2):
            for seed in range(20):
                workload._draw_noise(seed, 50, True, 0.2, 1.0, -3.0, 0.3)
        info = workload._draw_noise.cache_info()
        assert (info.misses, info.hits) == (20, 20)

    def test_cached_draws_are_read_only(self):
        workload._draw_noise.cache_clear()
        simulate_workload(make_params(lambda_burst=0.2), 50.0, 1.0, seed=4)
        normals, steps, amps = workload._draw_noise(4, 50, True, 0.2, 1.0, -3.0, 0.3)
        assert len(normals) == 50 and len(steps) == len(amps) > 0
        assert workload._draw_noise.cache_info().hits == 1
        for a in (normals, steps, amps):
            with pytest.raises(ValueError):
                a[0] = 0


class TestLinearRecurrence:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 7200])
    @pytest.mark.parametrize("d", [math.exp(-1 / 300), math.exp(-0.005 / 30), math.exp(-100)],
                             ids=["tau_300_dt_1", "tau_30_dt_5ms", "underflowing"])
    @pytest.mark.parametrize("y0", [0.0], ids=["zero_start"])
    def test_matches_scalar_loop(self, n, d, y0):
        c = np.random.default_rng(n).standard_normal(n)
        expected = scalar_recurrence(c, d, y0)
        y = linear_recurrence(c, d)
        assert y.shape == (n,)
        assert np.abs(y - expected).max() <= 1e-12 * np.abs(expected).max()


class TestClippedRecurrence:
    @pytest.mark.parametrize("n,kicks,clips", [
        (7200, {0: 0.8}, [0]),
        (7200, {7199: -0.9}, [7199]),
        (7200, {63: 0.8, 64: 0.3}, [63, 64]),
        (7011, {10: -0.8}, [10]),
    ], ids=["first_sample", "last_sample_only", "block_boundary", "early_then_clean"])
    def test_matches_scalar_clipped_loop(self, n, kicks, clips):
        mu, d = 0.5, math.exp(-1 / 30)
        c = 1e-3 * np.random.default_rng(n).standard_normal(n)
        for i, kick in kicks.items():
            c[i] += kick
        expected = scalar_clipped_recurrence(c, d, mu)
        clipped = np.isin(expected, (0.0, 1.0))
        assert np.flatnonzero(clipped).tolist() == clips
        eta = workload._clipped_recurrence(c, d, mu)
        assert np.array_equal(eta[clipped], expected[clipped])
        assert np.abs(eta - expected).max() <= 1e-12


class TestStationaryMean:
    def test_sample_mean_matches_burst_shifted_mean(self):
        # shorter companion to the long acceptance run: 10^5 steps
        params = make_params()
        rng = np.random.default_rng(11)
        state = WorkloadState(params.mu_eta)
        n = 10**5
        etas = np.empty(n)
        for i in range(n):
            state = ou_step(state, params, 1.0, rng)
            etas[i] = state.eta
        target = params.mu_eta + params.lambda_burst * params.mean_burst_amplitude()
        # OU autocorrelation inflates the naive standard error
        se = etas.std() * math.sqrt(2 * params.tau_eta / n)
        assert abs(etas.mean() - target) < 4 * se


class TestPoissonLogLikelihood:
    @pytest.mark.parametrize("n,horizon,lam", [(0, 100.0, 0.02), (3, 100.0, 0.02),
                                               (7, 3600.0, 0.0005)])
    def test_equals_the_poisson_pmf(self, n, horizon, lam):
        mean = lam * horizon
        pmf = math.exp(-mean) * mean ** n / math.factorial(n)
        assert poisson_log_likelihood(n, horizon, lam) == pytest.approx(math.log(pmf),
                                                                          rel=1e-12)

    def test_peaks_at_the_observed_rate(self):
        # d/d lam (n log(lam T) - lam T) vanishes at lam = n / T
        rates = [0.01, 0.03, 0.05]
        values = [poisson_log_likelihood(3, 100.0, lam) for lam in rates]
        assert values[1] > values[0] and values[1] > values[2]

    @pytest.mark.parametrize("n,horizon,lam,message", [
        (-1, 100.0, 0.02, "event_count must be a nonnegative integer"),
        (1.5, 100.0, 0.02, "event_count must be a nonnegative integer"),
        (3, 0.0, 0.02, "horizon must be > 0"),
        (3, 100.0, 0.0, "lambda must be > 0"),
    ], ids=["negative_count", "fractional_count", "zero_horizon", "zero_rate"])
    def test_rejects_impossible_arguments(self, n, horizon, lam, message):
        with pytest.raises(InvalidArgument, match=message):
            poisson_log_likelihood(n, horizon, lam)
