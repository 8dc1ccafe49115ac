"""Unit tests for pattern-consistent calibration."""

from dataclasses import replace

import numpy as np
import pytest

from lelsim import calibration
from lelsim.calibration import (
    CalibrationConfig,
    ObjectiveMode,
    _data_encoder,
    _voltage_excitation,
    calibrate,
    calibration_objective,
    dump_calibration_result,
    from_unconstrained,
    model_pattern,
    mse_objective,
    simulate_subsystem,
    to_unconstrained,
)
from lelsim.cli import cli_dispatch
from lelsim.errors import InvalidArgument
from lelsim.lel import Archetype, archetype_defaults
from lelsim.tcl import TrainConfig, encode_windows, pattern_vector, segment_windows, train_encoder
from lelsim.thermal_aux import aux_power, init_for_torque
from lelsim.traceio import Trace, write_trace
from lelsim.workload import WorkloadParams, simulate_workload

TRUE = WorkloadParams(p_base=2.0, p_full=10.0, tau_eta=300.0, mu_eta=0.55,
                      sigma_xi=0.6, lambda_burst=0.02, lnA_mu=-3.0,
                      lnA_sigma=0.3)
BOUNDS = {"mu_eta": (0.3, 0.8), "sigma_xi": (0.3, 0.9)}


def make_cfg(**overrides):
    base = dict(base_params=TRUE, bounds=BOUNDS, subsystem="workload",
                mode=ObjectiveMode.PATTERN, max_evals=25, horizon=900.0,
                dt=1.0, sim_seed=1, encoder_seed=2, optimizer_seed=3,
                window_length=5, train=TrainConfig(d=8, epochs=10),
                n_repeats=1)
    base.update(overrides)
    return CalibrationConfig(**base)


def trained_encoder(cfg, data):
    windows = segment_windows(data.first_channel(), cfg.window_length)
    return train_encoder(windows, cfg.train, seed=cfg.encoder_seed)


class TestConfigValidation:
    def test_rejects_empty_bounds(self):
        with pytest.raises(InvalidArgument):
            make_cfg(bounds={})

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidArgument):
            make_cfg(bounds={"mu_eta": (0.8, 0.3)})

    def test_rejects_zero_budget(self):
        with pytest.raises(InvalidArgument):
            make_cfg(max_evals=0)

    def test_rejects_unknown_subsystem(self):
        with pytest.raises(InvalidArgument):
            make_cfg(subsystem="hvac")

    def test_rejects_no_repeats(self):
        with pytest.raises(InvalidArgument, match="n_repeats must be >= 1"):
            make_cfg(n_repeats=0)

    def test_rejects_bound_on_unknown_parameter(self):
        with pytest.raises(InvalidArgument, match="unknown workload parameter.*: foo"):
            make_cfg(bounds={"mu_eta": (0.3, 0.8), "foo": (0.0, 1.0)})


class TestTransform:
    def test_round_trip(self):
        theta = {"mu_eta": 0.42, "sigma_xi": 0.77}
        u = to_unconstrained(theta, BOUNDS)
        back = from_unconstrained(u, BOUNDS)
        for k in theta:
            assert back[k] == pytest.approx(theta[k], rel=1e-9)

    def test_any_u_maps_inside_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = from_unconstrained(10 * rng.standard_normal(2), BOUNDS)
            for k, (lo, hi) in BOUNDS.items():
                assert lo <= theta[k] <= hi

    def test_theta_on_a_bound_maps_to_a_finite_u(self):
        # p = (theta - lo) / (hi - lo) is held inside [_EPS, 1 - _EPS]
        u = to_unconstrained({"mu_eta": 0.3, "sigma_xi": 0.9}, BOUNDS)
        assert u == pytest.approx([-np.log(1e9 - 1), np.log(1e9 - 1)], rel=1e-6)

    @pytest.mark.parametrize("lo,hi", [(0.3, 0.9), (0.15, 0.45)])
    def test_saturated_u_maps_to_the_upper_bound(self, lo, hi):
        # lo + (hi - lo) rounds above hi in these boxes
        assert from_unconstrained(np.array([40.0]), {"x": (lo, hi)}) == {"x": hi}


class TestObjectives:
    def test_objective_deterministic(self):
        cfg = make_cfg()
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=99)
        enc = trained_encoder(cfg, data)
        s_data = pattern_vector(encode_windows(
            enc, segment_windows(data.first_channel(), cfg.window_length)))
        theta = {"mu_eta": 0.5, "sigma_xi": 0.5}
        a = calibration_objective(theta, s_data, enc, cfg)
        b = calibration_objective(theta, s_data, enc, cfg)
        assert a == b

    def test_self_distance_zero(self):
        cfg = make_cfg()
        theta = {"mu_eta": 0.5, "sigma_xi": 0.5}
        enc_data = simulate_subsystem(replace(TRUE, **theta), "workload",
                                      cfg.horizon, cfg.dt, cfg.sim_seed)
        enc = trained_encoder(cfg, enc_data)
        s_self = model_pattern(theta, enc, cfg)
        assert calibration_objective(theta, s_self, enc, cfg) == \
            pytest.approx(0.0, abs=1e-20)

    def test_out_of_bounds_theta_rejected(self):
        cfg = make_cfg()
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=99)
        enc = trained_encoder(cfg, data)
        s_data = np.zeros(2 * cfg.train.d)
        with pytest.raises(InvalidArgument):
            calibration_objective({"mu_eta": 0.95, "sigma_xi": 0.5},
                                  s_data, enc, cfg)

    def test_missing_free_parameter_rejected(self):
        cfg = make_cfg()
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=99)
        with pytest.raises(InvalidArgument):
            mse_objective({"mu_eta": 0.5}, data, cfg)
        # a name outside the bounds would be simulated but never searched
        with pytest.raises(InvalidArgument, match="free parameters"):
            mse_objective({"mu_eta": 0.5, "sigma_xi": 0.5, "tau_eta": 5.0}, data, cfg)

    def test_mse_length_mismatch_rejected(self):
        cfg = make_cfg()
        short = simulate_workload(TRUE, cfg.horizon / 2, cfg.dt, seed=99)
        with pytest.raises(InvalidArgument):
            mse_objective({"mu_eta": 0.5, "sigma_xi": 0.5}, short, cfg)

    def test_theta_on_its_bounds_accepted(self):
        cfg = make_cfg()
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=99)
        assert np.isfinite(mse_objective({"mu_eta": 0.3, "sigma_xi": 0.9}, data, cfg))
        assert np.isfinite(mse_objective({"mu_eta": 0.8, "sigma_xi": 0.3}, data, cfg))

    def test_model_pattern_is_the_mean_over_repeats(self):
        cfg = make_cfg(n_repeats=2)
        enc = trained_encoder(cfg, simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=99))
        theta = {"mu_eta": 0.5, "sigma_xi": 0.5}
        patterns = [pattern_vector(encode_windows(enc, segment_windows(
            calibration._simulate_theta(theta, cfg, rep).first_channel(), cfg.window_length)))
            for rep in range(2)]
        assert np.allclose(model_pattern(theta, enc, cfg), (patterns[0] + patterns[1]) / 2,
                           rtol=1e-12, atol=0)

    def test_mse_of_matching_seed_is_zero(self):
        cfg = make_cfg()
        theta = {"mu_eta": 0.5, "sigma_xi": 0.5}
        data = simulate_subsystem(replace(TRUE, **theta), "workload",
                                  cfg.horizon, cfg.dt, cfg.sim_seed)
        assert mse_objective(theta, data, cfg) == 0.0


class TestSubsystemSimulators:
    @pytest.mark.parametrize("subsystem", ["workload", "cooling", "aux"])
    def test_horizon_is_a_whole_number_of_steps(self, subsystem):
        params = {"workload": TRUE, "cooling": archetype_defaults(Archetype.DATACENTER).cool,
                  "aux": archetype_defaults(Archetype.DATACENTER).aux}[subsystem]
        assert len(simulate_subsystem(params, subsystem, 4.3, 0.1, seed=0)) == 43
        with pytest.raises(InvalidArgument, match="not a whole number of steps"):
            simulate_subsystem(params, subsystem, 4.35, 0.1, seed=0)

    def test_rejects_an_unknown_subsystem(self):
        with pytest.raises(InvalidArgument, match="unknown subsystem 'hvac'"):
            simulate_subsystem(TRUE, "hvac", 10.0, 1.0, seed=0)

    def test_cooling_trace_positive_power(self):
        params = archetype_defaults(Archetype.DATACENTER).cool
        trace = simulate_subsystem(params, "cooling", 60.0, 1.0, seed=0)
        assert np.all(trace.first_channel() > 0.0)

    def test_cooling_trace_is_the_equilibrium_power_at_each_sample(self):
        params = archetype_defaults(Archetype.DATACENTER).cool
        trace = simulate_subsystem(params, "cooling", 120.0, 1.0, seed=3)
        v = _voltage_excitation(120, 3)
        for vk, pk in zip(v, trace.first_channel()):
            m = init_for_torque(params.load_factor, vk, params)
            i = (vk - complex(m.ed_p, m.eq_p)) / complex(params.R_s, params.x_trans)
            assert pk == pytest.approx(vk * i.real * params.mva_base, rel=1e-12)

    def test_aux_trace_is_zip_power_at_each_sample(self):
        params = archetype_defaults(Archetype.DATACENTER).aux
        trace = simulate_subsystem(params, "aux", 120.0, 1.0, seed=3)
        expected = [aux_power(vk, params)[0] for vk in _voltage_excitation(120, 3)]
        assert np.array_equal(trace.first_channel(), expected)

    @pytest.mark.parametrize("subsystem", ["cooling", "aux"])
    def test_evaluations_replay_one_read_only_ride(self, subsystem):
        params = {"cooling": archetype_defaults(Archetype.DATACENTER).cool,
                  "aux": archetype_defaults(Archetype.DATACENTER).aux}[subsystem]
        _voltage_excitation.cache_clear()
        first = simulate_subsystem(params, subsystem, 120.0, 1.0, seed=3)
        again = simulate_subsystem(params, subsystem, 120.0, 1.0, seed=3)
        assert np.array_equal(first.first_channel(), again.first_channel())
        assert _voltage_excitation.cache_info()[:2] == (1, 1)     # hits, misses
        with pytest.raises(ValueError):
            _voltage_excitation(120, 3)[0] = 1.0

    def test_aux_trace_tracks_voltage(self):
        params = archetype_defaults(Archetype.DATACENTER).aux
        trace = simulate_subsystem(params, "aux", 600.0, 1.0, seed=0)
        p = trace.first_channel()
        assert p.std() > 0.0

    def test_voltage_ride_is_a_clipped_first_order_filter_of_seeded_noise(self):
        e = np.random.default_rng([5, 0xE0]).standard_normal(400)
        x, ride = 0.0, []
        for ek in e:
            x = 0.98 * x + 0.02 * ek
            ride.append(min(1.05, max(0.85, 0.95 + 0.6 * x)))
        assert np.allclose(_voltage_excitation(400, 5), ride, rtol=0, atol=1e-12)

    def test_seeded_reproducibility(self):
        a = simulate_subsystem(TRUE, "workload", 100.0, 1.0, seed=4)
        b = simulate_subsystem(TRUE, "workload", 100.0, 1.0, seed=4)
        assert np.array_equal(a.first_channel(), b.first_channel())


class TestCalibrate:
    def test_trace_non_increasing_and_budget_flag(self):
        cfg = make_cfg(max_evals=20)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        result = calibrate({"mu_eta": 0.4, "sigma_xi": 0.4}, data, cfg)
        trace = result.objective_trace
        assert len(trace) == result.n_evals <= 20
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert result.final_pattern_distance == min(trace)
        assert result.budget_exhausted == (result.n_evals >= 20)
        for k, (lo, hi) in BOUNDS.items():
            assert lo <= result.theta_star[k] <= hi

    def test_budget_exhaustion_returns_best_so_far(self):
        cfg = make_cfg(max_evals=5)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        result = calibrate({"mu_eta": 0.4, "sigma_xi": 0.4}, data, cfg)
        assert result.budget_exhausted
        assert result.final_pattern_distance == pytest.approx(
            min(result.objective_trace))

    def test_deterministic_end_to_end(self):
        cfg = make_cfg(max_evals=15)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        a = calibrate({"mu_eta": 0.4, "sigma_xi": 0.4}, data, cfg)
        b = calibrate({"mu_eta": 0.4, "sigma_xi": 0.4}, data, cfg)
        assert a.theta_star == b.theta_star
        assert a.objective_trace == b.objective_trace
        assert dump_calibration_result(a) == dump_calibration_result(b)

    def test_multichannel_data_calibrates_on_first_channel(self):
        cfg = make_cfg(max_evals=8)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        p = data.first_channel()
        two = Trace(sample_period=data.sample_period, channels={"p": p, "q": 0.3 * p})
        init = {"mu_eta": 0.4, "sigma_xi": 0.4}
        assert dump_calibration_result(calibrate(init, two, cfg)) == \
            dump_calibration_result(calibrate(init, data, cfg))

    def test_out_of_bounds_init_rejected(self):
        cfg = make_cfg()
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        with pytest.raises(InvalidArgument):
            calibrate({"mu_eta": 0.95, "sigma_xi": 0.5}, data, cfg)

    def test_one_simulation_per_evaluation(self, monkeypatch):
        # the initial distance is the search's first evaluation, at
        # theta_init after the logit round trip, not an extra simulation
        thetas = []

        def counting(theta, encoder, cfg):
            thetas.append(theta)
            return model_pattern(theta, encoder, cfg)

        monkeypatch.setattr(calibration, "model_pattern", counting)
        cfg = make_cfg(max_evals=12)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        init = {"mu_eta": 0.42, "sigma_xi": 0.77}
        result = calibrate(init, data, cfg)
        assert len(thetas) == result.n_evals == 12
        start = from_unconstrained(to_unconstrained(init, BOUNDS), BOUNDS)
        assert thetas[0] == start
        windows = segment_windows(data.first_channel(), cfg.window_length)
        data_pattern = pattern_vector(encode_windows(result.encoder, windows))
        assert result.initial_pattern_distance == calibration_objective(
            start, data_pattern, result.encoder, cfg)
        assert result.initial_pattern_distance == pytest.approx(calibration_objective(
            init, data_pattern, result.encoder, cfg), rel=1e-12)

    def test_data_of_four_windows_accepted_and_shorter_rejected(self):
        cfg = make_cfg(mode=ObjectiveMode.MSE, max_evals=3, horizon=20.0)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        assert calibrate({"mu_eta": 0.4, "sigma_xi": 0.4}, data, cfg).n_evals == 3
        short = Trace(sample_period=1.0, channels={"p": data.first_channel()[:19]})
        with pytest.raises(InvalidArgument, match="data trace too short: 19 < 20"):
            calibrate({"mu_eta": 0.4, "sigma_xi": 0.4}, short, cfg)

    def test_search_starts_from_a_seeded_simplex_around_the_start(self, monkeypatch):
        thetas = []

        def recording(theta, data_trace, cfg):
            thetas.append(theta)
            return mse_objective(theta, data_trace, cfg)

        monkeypatch.setattr(calibration, "mse_objective", recording)
        cfg = make_cfg(mode=ObjectiveMode.MSE, max_evals=5)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        init = {"mu_eta": 0.42, "sigma_xi": 0.77}
        calibrate(init, data, cfg)
        u = to_unconstrained(init, BOUNDS)
        rng = np.random.default_rng(cfg.optimizer_seed)
        vertices = [u] + [u + 0.5 * rng.standard_normal(2) for _ in range(2)]
        assert thetas[:3] == [from_unconstrained(v, BOUNDS) for v in vertices]

    def test_flat_objective_keeps_the_start(self):
        # the ZIP block's active power does not depend on beta_aux
        aux = archetype_defaults(Archetype.DATACENTER).aux
        cfg = make_cfg(base_params=aux, subsystem="aux", bounds={"beta_aux": (0.1, 0.5)},
                       mode=ObjectiveMode.MSE, max_evals=8, horizon=60.0)
        data = simulate_subsystem(aux, "aux", cfg.horizon, cfg.dt, cfg.sim_seed)
        result = calibrate({"beta_aux": 0.2}, data, cfg)
        assert len(set(result.objective_trace)) == 1
        assert result.theta_star == from_unconstrained(
            to_unconstrained({"beta_aux": 0.2}, cfg.bounds), cfg.bounds)

    def test_mse_mode_skips_encoder(self):
        cfg = make_cfg(mode=ObjectiveMode.MSE, max_evals=10)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        result = calibrate({"mu_eta": 0.4, "sigma_xi": 0.4}, data, cfg)
        assert result.encoder is None
        assert np.isnan(result.final_pattern_distance)


class TestSerialization:
    def test_dump_contains_all_sections(self):
        cfg = make_cfg(max_evals=8)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        result = calibrate({"mu_eta": 0.4, "sigma_xi": 0.4}, data, cfg)
        text = dump_calibration_result(result)
        assert "[theta_star]" in text
        assert "[summary]" in text
        assert "[objective_trace]" in text
        assert f"n_evals={result.n_evals}" in text


@pytest.fixture
def train_calls(monkeypatch):
    """Start from an empty encoder cache and count the trainings that
    calibrate runs through lelsim.calibration.train_encoder."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return train_encoder(*args, **kwargs)

    monkeypatch.setattr(calibration, "train_encoder", counting)
    _data_encoder.cache_clear()
    yield calls
    _data_encoder.cache_clear()


def assert_same_result(a, b):
    # the dump holds theta_star, both distances, n_evals and the trace, in repr
    assert dump_calibration_result(a) == dump_calibration_result(b)
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(a.encoder, name), getattr(b.encoder, name))
    assert a.encoder.loss_history == b.encoder.loss_history


class TestEncoderCache:
    INIT = {"mu_eta": 0.4, "sigma_xi": 0.4}

    def test_second_call_on_one_trace_does_not_train(self, train_calls):
        cfg = make_cfg(max_evals=4)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        a = calibrate(self.INIT, data, cfg)
        b = calibrate({"mu_eta": 0.7, "sigma_xi": 0.6}, data,
                      replace(cfg, optimizer_seed=9))
        assert len(train_calls) == 1
        assert b.encoder is a.encoder

    def test_warm_result_equals_cold_result(self, train_calls):
        cfg = make_cfg(max_evals=6)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        cold = calibrate(self.INIT, data, cfg)
        warm = calibrate(self.INIT, data, cfg)
        _data_encoder.cache_clear()
        cold_again = calibrate(self.INIT, data, cfg)
        assert len(train_calls) == 2
        assert_same_result(warm, cold)
        assert_same_result(cold_again, cold)

    @pytest.mark.parametrize("change", [
        "data_sample", "window_length", "encoder_seed", "train_field"])
    def test_any_input_of_the_training_retrains(self, train_calls, change):
        cfg = make_cfg(max_evals=2, train=TrainConfig(d=4, epochs=2))
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        calibrate(self.INIT, data, cfg)
        if change == "data_sample":
            p = data.first_channel().copy()
            p[100] += 1e-9
            data = Trace(sample_period=data.sample_period, channels={"p": p})
        elif change == "window_length":
            cfg = replace(cfg, window_length=6)
        elif change == "encoder_seed":
            cfg = replace(cfg, encoder_seed=cfg.encoder_seed + 1)
        else:
            cfg = replace(cfg, train=replace(cfg.train, epochs=3))
        calibrate(self.INIT, data, cfg)
        assert len(train_calls) == 2

    def test_cached_encoder_and_data_pattern_are_read_only(self, train_calls):
        cfg = make_cfg(max_evals=2)
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        result = calibrate(self.INIT, data, cfg)
        encoder, s_data = _data_encoder(data.first_channel().tobytes(),
                                        cfg.window_length, cfg.train, cfg.encoder_seed)
        assert encoder is result.encoder
        assert len(train_calls) == 1
        for arr in (encoder.W1, encoder.b1, encoder.W2, encoder.b2, s_data):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(AttributeError):
            encoder.W1 = np.zeros_like(encoder.W1)

    def test_cache_is_bounded(self, train_calls):
        cfg = make_cfg(max_evals=1, horizon=60.0,
                       train=TrainConfig(d=2, epochs=1))
        data = simulate_workload(TRUE, cfg.horizon, cfg.dt, seed=42)
        for seed in range(9):
            calibrate(self.INIT, data, replace(cfg, encoder_seed=seed))
        assert _data_encoder.cache_info().currsize == 8
        calibrate(self.INIT, data, replace(cfg, encoder_seed=0))
        assert len(train_calls) == 10

    def test_robustness_command_trains_once(self, train_calls, tmp_path):
        data = simulate_workload(TRUE, 300.0, 1.0, seed=3)
        write_trace(data, str(tmp_path / "w.csv"))
        rc = cli_dispatch(["robustness", str(tmp_path / "w.csv"),
                           "--bound", "mu_eta=0.3:0.8", "--inits", "3",
                           "--max-evals", "3", "--epochs", "2", "--repeats", "1",
                           "--out", str(tmp_path / "r.csv")])
        assert rc == 0
        assert len(train_calls) == 1
