"""Unit tests for the network builder, power flow, and transient engine."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import fsolve

from lelsim.cases import LelPlacement, bundled_case
from lelsim.errors import InvalidArgument, SimulationCollapse
from lelsim.grid import (
    Event,
    SimConfig,
    _Engine,
    build_ybus,
    eligible_lel_buses,
    events_to_csv,
    fault_events,
    init_dynamics,
    make_schedule,
    pick_fault_bus,
    place_lels,
    power_flow,
    regime_flags,
    result_to_csv,
    run_simulation,
    sample_scenario,
)
from lelsim.workload import WorkloadState, ou_step, workload_power


def deterministic_lels(case):
    """Strip all randomness from attached LEL workloads."""
    lels = tuple(
        LelPlacement(bus=p.bus, shares=p.shares,
                     params=replace(p.params, work=replace(
                         p.params.work, sigma_xi=0.0, lambda_burst=0.0)))
        for p in case.lels)
    return case.with_lels(lels)


class TestYbus:
    def test_hand_computed_two_bus(self):
        case = bundled_case("toy2")
        br = case.branches[0]
        Y = build_ybus(case)
        y = 1.0 / complex(br.r, br.x)
        assert Y[0, 1] == pytest.approx(-y / br.tap)
        assert Y[1, 0] == pytest.approx(-y / br.tap)
        assert Y[0, 0] == pytest.approx((y + 1j * br.b_shunt / 2) / br.tap**2)
        assert Y[1, 1] == pytest.approx(y + 1j * br.b_shunt / 2)

    def test_symmetric_without_taps(self):
        case = bundled_case("toy9")
        Y = build_ybus(case)
        assert np.allclose(Y, Y.T)

    def test_row_sums_equal_shunts_only(self):
        # with no shunts and no taps each row of Y sums to ~0 for a
        # purely series network; toy9 has line charging so only check
        # that series terms cancel in the real part
        case = bundled_case("toy9")
        Y = build_ybus(case)
        assert np.allclose(Y.real.sum(axis=1), 0.0, atol=1e-9)


class TestPowerFlow:
    @pytest.mark.parametrize("name", ["toy2", "toy9", "ieee39"])
    def test_converges_on_bundled_cases(self, name):
        case = bundled_case(name)
        V = power_flow(case)
        assert np.all(np.abs(V) > 0.8)
        assert np.all(np.abs(V) < 1.15)

    def test_slack_voltage_pinned(self):
        case = bundled_case("toy9")
        V = power_flow(case)
        slack = next(i for i, b in enumerate(case.buses) if b.type == "slack")
        assert abs(V[slack]) == pytest.approx(case.buses[slack].v_set)
        assert np.angle(V[slack]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_fsolve_oracle(self):
        # independent oracle: solve the mismatch equations with scipy
        case = bundled_case("toy9")
        V = power_flow(case)
        Y = build_ybus(case)
        n = case.n_bus
        kinds = [b.type for b in case.buses]
        p_sched = np.array([-b.p_load for b in case.buses]) / case.s_base
        q_sched = np.array([-b.q_load for b in case.buses]) / case.s_base
        vset = {}
        idx = case.bus_index()
        for g in case.generators:
            i = idx[g.bus]
            p_sched[i] += g.p_set / case.s_base
            vset[i] = g.v_set
        for i, b in enumerate(case.buses):
            if b.type == "slack":
                vset[i] = b.v_set

        def mismatch(x):
            vm = x[:n].copy()
            va = x[n:].copy()
            out = []
            Vc = vm * np.exp(1j * va)
            S = Vc * np.conj(Y @ Vc)
            for i in range(n):
                if kinds[i] == "slack":
                    out.append(vm[i] - vset[i])
                    out.append(va[i])
                elif i in vset:
                    out.append(S[i].real - p_sched[i])
                    out.append(vm[i] - vset[i])
                else:
                    out.append(S[i].real - p_sched[i])
                    out.append(S[i].imag - q_sched[i])
            return out

        x0 = np.concatenate([np.ones(n), np.zeros(n)])
        sol = fsolve(mismatch, x0, full_output=False, xtol=1e-12)
        V_oracle = sol[:n] * np.exp(1j * sol[n:])
        assert np.max(np.abs(V - V_oracle)) < 1e-6


class TestSchedule:
    def test_events_sorted_and_bounded(self):
        events = [Event(time=3.0, kind="fault"), Event(time=1.0, kind="fault")]
        sched = make_schedule(events)
        assert [e.time for e in sched] == [1.0, 3.0]
        with pytest.raises(InvalidArgument, match="before t=0"):
            make_schedule([Event(time=-1.0, kind="fault")])

    def test_event_past_horizon_rejected(self, monkeypatch):
        def integration_started(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr("lelsim.grid.power_flow", integration_started)
        with pytest.raises(InvalidArgument, match="past it"):
            run_simulation(bundled_case("toy9"), [Event(time=9.0, kind="fault", bus=5)],
                           SimConfig(dt=0.01, horizon=5.0))

    def test_trip_of_missing_branch_rejected_before_integration(self, monkeypatch):
        def integration_started(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr("lelsim.grid.power_flow", integration_started)
        trip = Event(time=0.5, kind="branch_trip", branch=(5, 9))
        with pytest.raises(InvalidArgument, match="no branch 5-9"):
            run_simulation(bundled_case("toy9"), [trip], SimConfig(dt=0.01, horizon=1.0))

    @pytest.mark.parametrize("event", [
        Event(time=0.1, kind="fault"),
        Event(time=0.2, kind="clear_fault"),
        Event(time=0.1, kind="fault", bus=42),
        Event(time=0.2, kind="clear_fault", bus=42),
        Event(time=0.5, kind="branch_trip"),
    ], ids=["fault_no_bus", "clear_no_bus", "fault_unknown_bus", "clear_unknown_bus",
            "trip_no_branch"])
    def test_event_without_target_rejected_before_integration(self, event, monkeypatch):
        def integration_started(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr("lelsim.grid.power_flow", integration_started)
        with pytest.raises(InvalidArgument, match="no bus 42|no bus None|names no branch"):
            run_simulation(bundled_case("toy9"), [event], SimConfig(dt=0.01, horizon=1.0))

    def test_repeated_trip_rejected(self):
        trips = [Event(time=t, kind="branch_trip", branch=(5, 7)) for t in (0.2, 0.4)]
        with pytest.raises(InvalidArgument, match="more than once"):
            run_simulation(bundled_case("toy9"), trips, SimConfig(dt=0.01, horizon=1.0))

    def test_horizon_off_the_step_grid_rejected(self):
        with pytest.raises(InvalidArgument, match="whole number of steps"):
            SimConfig(dt=0.01, horizon=0.105)

    def test_event_off_the_step_grid_rejected_before_integration(self, monkeypatch):
        def integration_started(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr("lelsim.grid.power_flow", integration_started)
        with pytest.raises(InvalidArgument, match="off the step grid"):
            run_simulation(bundled_case("toy9"), fault_events(5, 0.2037, 0.1),
                           SimConfig(dt=0.01, horizon=1.0))

    def test_event_sum_within_rounding_is_on_the_grid(self, monkeypatch):
        # 5.0 + 0.1 is 5.1000000000000005, within dt*1e-6 of step 1020
        def integration_started(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr("lelsim.grid.power_flow", integration_started)
        with pytest.raises(AssertionError, match="integration started"):
            run_simulation(bundled_case("toy9"), fault_events(5, 5.0, 0.1),
                           SimConfig(dt=0.005, horizon=6.0))

    def test_event_at_the_horizon_rejected_before_integration(self, monkeypatch):
        # the last step starts at horizon - dt, so the loop would never
        # apply an event at the horizon itself
        def integration_started(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr("lelsim.grid.power_flow", integration_started)
        fault = Event(time=0.5, kind="fault", bus=5)
        with pytest.raises(InvalidArgument, match="at the horizon"):
            run_simulation(bundled_case("toy9"), [fault], SimConfig(dt=0.01, horizon=0.5))

    @pytest.mark.parametrize("admittance", [complex(math.nan, 0.0), complex(0.0, -math.inf)],
                             ids=["nan", "inf"])
    def test_non_finite_fault_admittance_rejected_before_integration(
            self, admittance, monkeypatch):
        def integration_started(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr("lelsim.grid.power_flow", integration_started)
        with pytest.raises(InvalidArgument, match="non-finite admittance"):
            run_simulation(bundled_case("toy9"), fault_events(5, 0.1, 0.1, admittance),
                           SimConfig(dt=0.01, horizon=0.5))

    def test_fault_events_pair(self):
        fault, clear = fault_events(3, 1.0, 0.1, admittance=-30j)
        assert fault.kind == "fault" and clear.kind == "clear_fault"
        assert clear.time == pytest.approx(1.1)
        assert clear.admittance == fault.admittance


class TestIslanding:
    def test_trip_that_islands_a_generator_collapses(self):
        trip = Event(time=0.1, kind="branch_trip", branch=(1, 4))
        with pytest.raises(SimulationCollapse) as exc:
            run_simulation(bundled_case("toy9"), [trip], SimConfig(dt=0.01, horizon=0.5))
        partial = exc.value.partial
        assert partial.collapsed and partial.collapse_reason == "islanding"
        assert partial.time[-1] == pytest.approx(0.1)
        assert [e.kind for e in partial.events] == ["branch_tripped"]
        assert exc.value.reason == "islanding"
        assert "islands" in str(exc.value) and "Newton" not in str(exc.value)

    @pytest.mark.parametrize("branch", [(4, 5), (5, 7)])
    def test_trip_inside_the_ring_runs_to_the_horizon(self, branch):
        trip = Event(time=0.1, kind="branch_trip", branch=branch)
        result = run_simulation(bundled_case("toy9"), [trip],
                                SimConfig(dt=0.01, horizon=0.5))
        assert not result.collapsed
        assert result.time[-1] == pytest.approx(0.5)


class TestNoEventInvariance:
    @pytest.mark.parametrize("f_base", [60.0, 50.0])
    def test_deterministic_equilibrium_is_exact(self, f_base):
        case = deterministic_lels(place_lels(bundled_case("toy9"), 2, seed=1))
        case = replace(case, f_base=f_base)
        cfg = SimConfig(dt=0.005, horizon=1.0, seed=0)
        result = run_simulation(case, [], cfg)
        assert np.max(np.abs(result.gen_omega - 1.0)) < 1e-9
        assert np.max(np.abs(result.v_mag - result.v_mag[0])) < 1e-9
        assert not result.events


class TestDeterminism:
    def test_identical_seeds_bitwise_equal(self):
        case = place_lels(bundled_case("toy9"), 2, seed=3)
        events = fault_events(5, 0.5, 0.05, admittance=-8j)
        cfg = SimConfig(dt=0.005, horizon=2.0, seed=7)
        a = run_simulation(case, events, cfg)
        b = run_simulation(case, events, cfg)
        assert np.array_equal(a.v_mag, b.v_mag)
        assert np.array_equal(a.gen_omega, b.gen_omega)
        assert np.array_equal(a.lel_p, b.lel_p)
        assert a.events == b.events
        assert result_to_csv(a) == result_to_csv(b)
        assert events_to_csv(a) == events_to_csv(b)

    def test_seed_changes_stochastic_workload(self):
        case = place_lels(bundled_case("toy9"), 2, seed=3)
        cfg_a = SimConfig(dt=0.01, horizon=1.0, seed=1)
        cfg_b = SimConfig(dt=0.01, horizon=1.0, seed=2)
        a = run_simulation(case, [], cfg_a)
        b = run_simulation(case, [], cfg_b)
        assert not np.array_equal(a.lel_p, b.lel_p)


class TestFaultBehavior:
    def test_fault_depresses_faulted_bus_most(self):
        case = place_lels(bundled_case("toy9"), 2, seed=3)
        events = fault_events(5, 0.5, 0.05, admittance=-30j)
        cfg = SimConfig(dt=0.005, horizon=1.0, seed=0)
        result = run_simulation(case, events, cfg)
        k = np.searchsorted(result.time, 0.52)
        bus_idx = result.bus_index[5]
        assert np.argmin(result.v_mag[k]) == bus_idx
        assert result.v_mag[k, bus_idx] < 0.5

    def test_event_log_reflects_schedule(self):
        case = place_lels(bundled_case("toy9"), 2, seed=3)
        events = fault_events(5, 0.5, 0.05, admittance=-8j)
        cfg = SimConfig(dt=0.005, horizon=1.5, seed=0)
        result = run_simulation(case, events, cfg)
        kinds = [e.kind for e in result.events]
        assert "fault_applied" in kinds
        assert "fault_cleared" in kinds
        t_apply = next(e.time for e in result.events if e.kind == "fault_applied")
        t_clear = next(e.time for e in result.events if e.kind == "fault_cleared")
        assert t_clear - t_apply == pytest.approx(0.05, abs=0.011)


class TestPlacement:
    def test_eligible_buses_exclude_generators(self):
        case = bundled_case("toy9")
        gen_buses = {g.bus for g in case.generators}
        for b in eligible_lel_buses(case):
            assert b not in gen_buses

    def test_placements_nested_across_k(self):
        case = bundled_case("ieee39")
        small = {p.bus for p in place_lels(case, 3, seed=11).lels}
        large = {p.bus for p in place_lels(case, 8, seed=11).lels}
        assert small <= large

    def test_too_many_lels_rejected(self):
        with pytest.raises(InvalidArgument):
            place_lels(bundled_case("toy9"), 50, seed=0)

    def test_pick_fault_bus_serves_load(self):
        case = bundled_case("ieee39")
        loads = {b.id for b in case.buses if b.p_load > 0 and b.type == "pq"}
        for seed in range(10):
            assert pick_fault_bus(case, seed) in loads

    def test_sample_scenario_deterministic(self):
        case = bundled_case("ieee39")
        a_case, a_events = sample_scenario(case, 4, seed=9)
        b_case, b_events = sample_scenario(case, 4, seed=9)
        assert [p.bus for p in a_case.lels] == [p.bus for p in b_case.lels]
        assert a_events == b_events


class TestRegimeFlags:
    def test_flag_keys_and_types(self):
        case = deterministic_lels(place_lels(bundled_case("toy9"), 2, seed=1))
        cfg = SimConfig(dt=0.01, horizon=0.5, seed=0)
        flags = regime_flags(run_simulation(case, [], cfg))
        assert set(flags) == {"ride_through", "mass_disconnection",
                              "staggered_interaction", "delayed_or_collapse"}
        assert flags["ride_through"] is True


class TestCollapseReasons:
    """Each collapse carries its reason, and its message names the cause."""

    def collapse(self, events=()):
        case = place_lels(bundled_case("toy9"), 2, seed=3)
        with pytest.raises(SimulationCollapse) as exc:
            run_simulation(case, list(events), SimConfig(dt=0.01, horizon=0.5))
        assert exc.value.partial.collapse_reason == exc.value.reason
        return exc.value

    def test_newton(self, monkeypatch):
        monkeypatch.setattr("lelsim.grid.NEWTON_TOL", -1.0)   # never met
        exc = self.collapse()
        assert exc.reason == "newton" and exc.step == 0
        assert str(exc).startswith("Newton failed to converge")
        assert f"residual {exc.residual:.3e}" in str(exc)

    def test_network_solve(self, monkeypatch):
        monkeypatch.setattr(_Engine, "solve_network",
                            lambda self, V, delta, em: (V, False))
        exc = self.collapse(fault_events(5, 0.2, 0.1))
        assert exc.reason == "network_solve"
        assert "network re-solve" in str(exc) and "Newton" not in str(exc)
        assert exc.time == pytest.approx(0.2)

    def test_non_finite_residual(self, monkeypatch):
        residual = _Engine.residual
        calls = []

        def nan_at_one_step(self, z, xk, f0, dt):
            calls.append(xk)
            R = residual(self, z, xk, f0, dt)
            if len({id(x) for x in calls}) == 4:       # the fourth step
                R[:] = math.nan
            return R

        monkeypatch.setattr(_Engine, "residual", nan_at_one_step)
        exc = self.collapse()
        assert exc.reason == "non_finite" and exc.step == 3
        assert "not finite" in str(exc)
        assert len(exc.partial.time) == 4 and np.all(np.isfinite(exc.partial.v_mag))


def noisy_toy9():
    """toy9 with three LELs: one archetype default, one with frequent
    bursts, one with bursts and no diffusion, so every draw order of the
    OU kernel is exercised."""
    case = place_lels(bundled_case("toy9"), 3, seed=1)
    first, second, third = case.lels

    def work(p, **kw):
        return replace(p, params=replace(p.params, work=replace(p.params.work, **kw)))

    return case.with_lels((first, work(second, lambda_burst=20.0),
                           work(third, lambda_burst=20.0, sigma_xi=0.0)))


class TestEngineOracles:
    def test_workload_power_matches_ou_step_loop_bitwise(self, monkeypatch):
        case = noisy_toy9()
        cfg = SimConfig(dt=0.01, horizon=1.0, seed=11)
        residual = _Engine.residual
        per_step = {}              # id(xk) -> (xk, p_work): one entry a step

        def spy(self, z, xk, f0, dt):
            per_step.setdefault(id(xk), (xk, self.p_work.copy()))
            return residual(self, z, xk, f0, dt)

        monkeypatch.setattr(_Engine, "residual", spy)
        run_simulation(case, [], cfg)
        seen = np.array([p for _, p in per_step.values()])
        assert seen.shape == (100, 3)

        lels = init_dynamics(case, power_flow(case)).lels
        for k, lel in enumerate(lels):
            work = lel.params.work
            rng = np.random.default_rng([cfg.seed, k])
            state = WorkloadState(eta=work.mu_eta)
            expected = []
            for _ in range(100):
                state = ou_step(state, work, cfg.dt, rng)
                expected.append(workload_power(state.eta, work))
            assert np.array_equal(seen[:, k], expected)
        assert len(np.unique(seen[:, 2])) > 1       # bursts alone moved it

    @pytest.mark.parametrize("stalled", [False, True], ids=["running", "stall_tripped"])
    def test_residual_network_rows_equal_current_mismatch(self, stalled):
        case = noisy_toy9()
        dyn = init_dynamics(case, power_flow(case))
        eng = _Engine(dyn, SimConfig(dt=0.01, horizon=1.0))
        if stalled:
            eng.running[1] = False
        ng, K, n = eng.ng, eng.K, eng.n
        rng = np.random.default_rng(5)
        delta = dyn.delta0 + 0.02 * rng.standard_normal(ng)
        omega = 1.0 + 1e-3 * rng.standard_normal(ng)
        em = eng._em_array() * (1.0 + 0.05 * rng.standard_normal((3, K)))
        V = dyn.V0 * (0.95 + 0.05 * rng.random(n)) * np.exp(0.03j * rng.standard_normal(n))
        z = np.concatenate([delta, omega, em.ravel(), V.real, V.imag])
        # the previous step's states differ from z's, so a motor current
        # taken at the wrong states would show in the network rows
        xk = {"delta": dyn.delta0, "omega": np.ones(ng), "em": eng._em_array()}
        f0 = {"fd": np.zeros(ng), "fo": np.zeros(ng), "fm": np.zeros((3, K))}

        R = eng.residual(z, xk, f0, 0.01)
        I = eng.current_mismatch(V, dyn.E * np.exp(1j * delta), em)
        assert np.array_equal(R[eng.ovr:eng.ovr + n], I.real)
        assert np.array_equal(R[eng.ovi:eng.ovi + n], I.imag)
