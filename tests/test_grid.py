"""Unit tests for the network builder, power flow, and transient engine."""

import collections
import copy
import functools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import fsolve

from lelsim import grid
from lelsim.cases import LelPlacement, bundled_case, load_case
from lelsim.errors import InvalidArgument, SimulationCollapse
from lelsim.lel import Archetype, archetype_defaults
from lelsim.grid import (
    FAULT_ADMITTANCE,
    NEWTON_TOL,
    RECORD_BLOCK,
    Event,
    EventRecord,
    SimConfig,
    V_FLOOR,
    SimResult,
    _Engine,
    _stamp,
    build_ybus,
    eligible_lel_buses,
    events_to_csv,
    fault_events,
    init_dynamics,
    make_schedule,
    penetration_sweep,
    pick_fault_bus,
    place_lels,
    power_flow,
    regime_flags,
    result_to_csv,
    run_simulation,
    sample_scenario,
)
from lelsim.metrics import clear_time, frequency_overshoot, reconnection_delay, voltage_nadir
from lelsim.protection import ProtectionMode, ProtectionState, in_band, protection_step
from lelsim.thermal_aux import MotorState, aux_power, stall_update
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
        # the bundled tap is nominal, so an off-nominal one as well
        for br in (case.branches[0], replace(case.branches[0], tap=1.1)):
            Y = build_ybus(replace(case, branches=(br,)))
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

    def test_one_bus_case_returns_its_set_voltage(self):
        case = load_case("[SYSTEM]\ns_base,100.0\nf_base,60.0\n[BUS]\n1,slack,1.0,0,0\n"
                         "[GEN]\n1,5.0,1.0,0.2,0,1.0\n")
        assert np.array_equal(power_flow(case), [1.0 + 0.0j])

    def test_no_solution_is_a_validation_error(self):
        # 100 pu of load behind a 0.1 pu line has no power-flow solution
        case = load_case("[SYSTEM]\ns_base,100.0\nf_base,60.0\n"
                         "[BUS]\n1,slack,1.0,0,0\n2,pq,1.0,10000,0\n"
                         "[BRANCH]\n1,2,0.01,0.1,0\n[GEN]\n1,5.0,1.0,0.2,0,1.0\n")
        with pytest.raises(InvalidArgument, match=r"power flow did not converge in 20 "
                           r"iterations \(final mismatch \d\.\d{3}e[+-]\d+ pu\)"):
            power_flow(case)

    @pytest.mark.parametrize("name", ["toy9", "ieee39"])
    def test_jacobian_equals_central_differences_of_the_mismatch(self, monkeypatch, name):
        calls = []
        newton = grid.newton

        def spy(residual, jacobian, z, lu, n_chord):
            calls.append((residual, jacobian, z.copy()))
            return newton(residual, jacobian, z, lu, n_chord)

        monkeypatch.setattr(grid, "newton", spy)
        power_flow(bundled_case(name))
        (mismatch, jacobian, x0), = calls
        # off the flat start, so no PQ magnitude is 1
        x = x0 + 0.05 * np.random.default_rng(5).standard_normal(len(x0))
        h = 1e-6
        fd = np.column_stack([(mismatch(x + h * e) - mismatch(x - h * e)) / (2 * h)
                              for e in np.eye(len(x))])
        assert np.allclose(jacobian(x), fd, rtol=1e-6, atol=1e-6)

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
        case, cfg = bundled_case("toy9"), SimConfig(dt=0.01, horizon=5.0)
        events = [Event(time=3.0, kind="clear_fault", bus=5),
                  Event(time=1.0, kind="fault", bus=5)]
        sched = make_schedule(case, events, cfg)
        assert list(sched) == [100, 300]
        assert [sw[0] for sws in sched.values() for sw in sws] == [
            "fault_applied", "fault_cleared"]
        with pytest.raises(InvalidArgument, match="before t=0"):
            make_schedule(case, [Event(time=-1.0, kind="fault", bus=5)], cfg)

    @pytest.mark.parametrize("events", [
        [Event(time=0.5, kind="clear_fault", bus=5)],
        [Event(time=0.2, kind="fault", bus=5, admittance=-8j),
         Event(time=0.3, kind="clear_fault", bus=5, admittance=-30j)],
        [Event(time=0.2, kind="fault", bus=5), Event(time=0.3, kind="clear_fault", bus=7)],
        fault_events(5, 0.5, -0.2),
        fault_events(5, 0.2, 0.1) + [Event(time=0.4, kind="clear_fault", bus=5)],
    ], ids=["lone_clear", "other_admittance", "other_bus", "clear_first", "second_clear"])
    def test_clear_without_its_fault_rejected(self, events):
        case = place_lels(bundled_case("toy9"), 3, 0)
        with pytest.raises(InvalidArgument, match=r"clear_fault at t=0\.[345]: no fault"):
            make_schedule(case, events, SimConfig(dt=0.01, horizon=2.0))

    @pytest.mark.parametrize("duration", [0.0, 1e-9], ids=["zero", "within_rounding"])
    def test_clear_at_the_step_of_its_fault_rejected(self, duration):
        # the network would never see the fault
        with pytest.raises(InvalidArgument, match=r"clear_fault at t=0\.50*1? is at the "
                                                  r"step of its fault at t=0\.5,"):
            make_schedule(bundled_case("toy9"), fault_events(5, 0.5, duration),
                          SimConfig(dt=0.01, horizon=1.0))

    def test_clear_at_the_step_of_a_second_equal_fault_clears_the_first(self):
        # in time order: faults at 0.2 and 0.3, then clears at 0.3 and 0.5
        case, cfg = bundled_case("toy9"), SimConfig(dt=0.01, horizon=1.0)
        events = fault_events(5, 0.3, 0.2) + fault_events(5, 0.2, 0.1)
        sched = make_schedule(case, events, cfg)
        assert [sw[0] for step in (20, 30, 50) for sw in sched[step]] == [
            "fault_applied", "fault_applied", "fault_cleared", "fault_cleared"]

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(InvalidArgument, match="unknown event kind 'reclose'"):
            make_schedule(bundled_case("toy9"), [Event(time=0.1, kind="reclose", bus=5)],
                          SimConfig(dt=0.01, horizon=1.0))

    def test_each_clear_removes_one_fault(self):
        # two equal faults on one bus need two clears; a clear names a missing
        # bus before it is matched
        case, cfg = bundled_case("toy9"), SimConfig(dt=0.01, horizon=1.0)
        events = fault_events(5, 0.2, 0.3) + fault_events(5, 0.3, 0.1)
        assert len(make_schedule(case, events, cfg)) == 4
        with pytest.raises(InvalidArgument, match="no bus 42"):
            make_schedule(case, [Event(time=0.3, kind="clear_fault", bus=42)], cfg)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_event_time_rejected(self, t):
        with pytest.raises(InvalidArgument, match="not finite"):
            make_schedule(bundled_case("toy9"), [Event(time=t, kind="fault", bus=5)],
                          SimConfig(dt=0.01, horizon=1.0))

    def test_first_bad_event_in_time_order_is_reported(self):
        events = [Event(time=0.3, kind="bogus"), Event(time=0.1, kind="fault", bus=42)]
        with pytest.raises(InvalidArgument, match="no bus 42"):
            make_schedule(bundled_case("toy9"), events, SimConfig(dt=0.01, horizon=1.0))

    def test_switches_carry_the_admittance_change_and_the_islanding(self):
        case, cfg = bundled_case("toy9"), SimConfig(dt=0.01, horizon=1.0)
        events = fault_events(5, 0.2, 0.1, -30j) + [
            Event(time=0.5, kind="branch_trip", branch=(5, 7)),
            Event(time=0.6, kind="branch_trip", branch=(1, 4))]
        sched = make_schedule(case, events, cfg)
        (fault,), (clear,), (ring,), (radial,) = (sched[s] for s in (20, 30, 50, 60))
        assert [sw[0] for sw in (fault, clear, ring, radial)] == [
            "fault_applied", "fault_cleared", "branch_tripped", "branch_tripped"]
        b = case.bus_index()[5]
        assert fault[1][b, b] == -30j and clear[1][b, b] == 30j
        assert np.count_nonzero(fault[1]) == 1
        Y = build_ybus(case)
        tripped = [br for br in case.branches if {br.from_bus, br.to_bus} == {5, 7}]
        assert np.array_equal(Y + ring[1], Y - _stamp(case, tripped))
        assert [sw[2] for sw in (fault, clear, ring, radial)] == [False, False, False, True]

    def test_events_at_the_first_and_the_last_step_are_applied(self):
        # sums of dt = 1/64 are exact: t = 0 is step 0, horizon - dt step 31
        case, cfg = bundled_case("toy9"), SimConfig(dt=1 / 64, horizon=0.5)
        events = fault_events(5, 0.0, 0.125, -8j) + [
            Event(time=0.5 - 1 / 64, kind="fault", bus=7, admittance=-8j)]
        assert list(make_schedule(case, events, cfg)) == [0, 8, 31]
        result = run_simulation(case, events, cfg)
        assert [(e.time, e.kind) for e in result.events] == [
            (0.0, "fault_applied"), (0.125, "fault_cleared"), (0.484375, "fault_applied")]

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


class TestSwitching:
    def test_fault_and_trip_at_one_step_are_both_applied_in_time_order(self, monkeypatch):
        case = place_lels(bundled_case("toy9"), 2, seed=3)
        # the fault is listed first but lies 1e-9 s later, inside the same step
        events = [Event(time=0.2 + 1e-9, kind="fault", bus=5, admittance=-8j),
                  Event(time=0.2, kind="branch_trip", branch=(5, 7))]
        networks = []
        solve = _Engine.solve_network

        def spy(self, V, delta, em):
            networks.append(self.Y.copy())
            return solve(self, V, delta, em)

        monkeypatch.setattr(_Engine, "solve_network", spy)
        result = run_simulation(case, events, SimConfig(dt=0.01, horizon=0.5))
        assert [e.kind for e in result.events[:2]] == ["branch_tripped", "fault_applied"]
        assert [e.time for e in result.events[:2]] == pytest.approx([0.2, 0.2])

        # one re-solve, on the network with both switches applied
        Y = init_dynamics(case, power_flow(case)).Y.copy()
        Y -= _stamp(case, [br for br in case.branches if {br.from_bus, br.to_bus} == {5, 7}])
        Y[case.bus_index()[5], case.bus_index()[5]] += -8j
        assert len(networks) == 1
        assert np.array_equal(networks[0], Y)


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


class TestOneClock:
    """Row k of a run's time, and every time its step k logs, is the one
    rounding of k * dt; no time is a running sum of dt."""

    @staticmethod
    def run(dt=0.005):
        case = place_lels(bundled_case("toy9"), 3, seed=1)
        return run_simulation(case, fault_events(7, 0.5, 0.08, -8j),
                              SimConfig(dt=dt, horizon=1.0, seed=0))

    def test_rows_and_events_on_k_dt(self):
        res = self.run(np.float64(0.005))
        assert np.array_equal(res.time, np.arange(len(res.time)) * 0.005)
        for e in res.events:
            # a Python float, also from a NumPy dt, so events_to_csv
            # writes its repr as a number
            assert type(e.time) is float
            assert e.time == round(e.time / 0.005) * 0.005

    def test_event_csv_reads_back_as_the_log(self):
        case = place_lels(bundled_case("toy9"), 3, seed=1)
        res = run_simulation(case, fault_events(7, 0.5, 0.1, -8j),
                             SimConfig(dt=np.float64(0.005), horizon=3.0, seed=0))
        # network events without an LEL id and LEL events with one
        assert {e.lel_id is None for e in res.events} == {True, False}
        rows = [line.split(",") for line in events_to_csv(res).splitlines()[1:]]
        assert [(float(t), int(k) if k else None, kind) for t, k, kind in rows] == [
            (e.time, e.lel_id, e.kind) for e in res.events]

    def test_post_clearing_metrics_leave_out_the_clearing_row(self):
        # the clearing applies at step 116, so row 116 is the last
        # fault-on sample; a running sum of 116 steps of 5 ms lands one
        # ulp above 116 * 0.005, after the clearing's time
        res = self.run()
        assert clear_time(res) == 116 * 0.005
        b = res.bus_index[7]
        nadir, overshoot = voltage_nadir(res, 7), frequency_overshoot(res)
        assert nadir == res.v_mag[117:, b].min()
        assert overshoot == np.abs(res.gen_omega[117:] - 1.0).max()
        # row 116 would set both
        assert res.v_mag[116, b] < nadir
        assert np.abs(res.gen_omega[116] - 1.0).max() > overshoot


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

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidArgument):
            place_lels(bundled_case("toy9"), -1, seed=0)

    def test_case_lels_kept_and_k_more_added(self):
        own = LelPlacement(bus=3, params=archetype_defaults(Archetype.DATACENTER))
        case = bundled_case("ieee39").with_lels((own,))
        placed = place_lels(case, 2, seed=0)
        assert placed.lels[0] == own
        assert len({p.bus for p in placed.lels}) == 3
        assert place_lels(case, 0, seed=0) == case

    def test_sweep_without_trials_rejected(self):
        cfg = SimConfig(dt=0.01, horizon=1.0, seed=0)
        with pytest.raises(InvalidArgument, match="n_trials"):
            penetration_sweep(bundled_case("toy9"), [1], 0, cfg)

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


def hand_made_result(lel_events, omega_after=1.001, kappa_end=1.0, kappa_full=1.0,
                     collapsed=False):
    """A SimResult of three LELs (ids 10, 11, 12) sampled every 1/64 s
    for 1 s: a fault from 0.125 s cleared at 0.25 s, then the LEL events
    (time, id, kind) in time order.  The generator runs at omega_after
    after the clearing and at 1 up to it; each LEL's kappa is its full
    target kappa_full but at the last sample, where it is kappa_end (one
    value, or one per LEL)."""
    T = 65
    t = np.arange(T) / 64
    omega = np.where(t > 0.25, omega_after, 1.0)[:, None]
    kappa = np.full((T, 3), kappa_full)
    kappa[-1] = kappa_end
    events = ([EventRecord(0.125, None, "fault_applied"),
               EventRecord(0.25, None, "fault_cleared")]
              + [EventRecord(*event) for event in lel_events])
    return SimResult(time=t, v_mag=np.ones((T, 1)), v_ang=np.zeros((T, 1)),
                     gen_omega=omega, gen_delta=np.zeros((T, 1)), lel_p=kappa,
                     lel_q=0 * kappa, lel_kappa=kappa, lel_mode=0 * kappa,
                     motor_mode=0 * kappa, events=events, bus_ids=[1], gen_buses=[1],
                     lel_ids=[10, 11, 12], lel_kappa_full=np.full(3, kappa_full),
                     collapsed=collapsed)


class TestRegimeFlags:
    def test_flag_keys_and_types(self):
        case = deterministic_lels(place_lels(bundled_case("toy9"), 2, seed=1))
        cfg = SimConfig(dt=0.01, horizon=0.5, seed=0)
        flags = regime_flags(run_simulation(case, [], cfg))
        assert set(flags) == {"ride_through", "mass_disconnection",
                              "staggered_interaction", "delayed_or_collapse"}
        assert flags["ride_through"] is True

    def test_flags_and_metrics_share_the_first_fault_clearing(self):
        # two faults; the generator runs fast only between the two
        # clearings, so only the first clearing shows it to the flag
        T = 101
        t = np.arange(T) * 0.01
        omega = np.ones((T, 1))
        omega[(t > 0.2) & (t <= 0.5)] = 1.001
        events = ([EventRecord(0.1, None, "fault_applied"),
                   EventRecord(0.2, None, "fault_cleared")]
                  + [EventRecord(0.25 + 0.01 * i, 10 + i, "shed") for i in range(3)]
                  + [EventRecord(0.4, None, "fault_applied"),
                     EventRecord(0.5, None, "fault_cleared")])
        K = np.ones((T, 3))
        result = SimResult(time=t, v_mag=np.ones((T, 1)), v_ang=np.zeros((T, 1)),
                           gen_omega=omega, gen_delta=np.zeros((T, 1)), lel_p=K,
                           lel_q=0 * K, lel_kappa=K, lel_mode=0 * K, motor_mode=0 * K,
                           events=events, bus_ids=[1], gen_buses=[1],
                           lel_ids=[10, 11, 12], lel_kappa_full=np.ones(3))
        assert clear_time(result) == 0.2
        assert frequency_overshoot(result) == pytest.approx(1e-3)
        assert regime_flags(result)["mass_disconnection"]

    # the detectors on hand-made results, on both sides of each threshold;
    # shed spans 0.1875 and 0.25 s are exact in floats, and so is 0.45 -
    # 0.25 == 0.2, the window itself
    @pytest.mark.parametrize("sheds,omega_after,expected", [
        ((0.5, 0.5625, 0.6875), 1.001, True),
        ((0.25, 0.35, 0.45), 1.001, True),
        ((0.5, 0.625, 0.75), 1.001, False),
        ((0.5, 0.5625), 1.001, False),
        ((0.5, 0.5625, 0.6875), 1.0, False),
        ((0.5, 0.5625, 0.6875), 1.0 + 1e-4, False),
        ((0.5, 0.5625, 0.6875), 1.0 + 2e-4, True),
    ], ids=["span_0.1875", "span_0.2", "span_0.25", "two_sheds", "flat_omega",
            "omega_at_threshold", "omega_above_threshold"])
    def test_mass_disconnection_needs_close_sheds_and_a_fast_generator(
            self, sheds, omega_after, expected):
        result = hand_made_result([(t, 10 + i, "shed") for i, t in enumerate(sheds)],
                                  omega_after=omega_after)
        assert regime_flags(result)["mass_disconnection"] is expected

    def test_generator_fast_only_at_the_clearing_sample_is_not_mass_disconnection(self):
        result = hand_made_result([(t, 10 + i, "shed") for i, t in
                                   enumerate((0.5, 0.5625, 0.6875))], omega_after=1.0)
        result.gen_omega[result.time == 0.25] = 1.001
        assert not regime_flags(result)["mass_disconnection"]

    @pytest.mark.parametrize("t_shed,expected", [(0.25, False), (0.5, False),
                                                 (0.515625, True)],
                             ids=["before_ramp", "with_ramp", "after_ramp"])
    def test_staggered_needs_a_shed_after_a_ramp_start(self, t_shed, expected):
        events = [(0.125, 10, "shed"), (0.5, 10, "ramp_start"), (t_shed, 11, "shed")]
        assert regime_flags(hand_made_result(events))["staggered_interaction"] is expected

    @pytest.mark.parametrize("kappa_end,expected", [
        (0.75, False), (0.75 - 1e-9, False), (0.75 - 2e-9, True)],
        ids=["full", "within_tolerance", "below"])
    def test_delayed_needs_a_shed_lel_below_its_full_target(self, kappa_end, expected):
        # LEL 11 never shed and ends low too: it does not count
        result = hand_made_result([(0.5, 10, "shed")], kappa_end=[kappa_end, 0.2, 0.75],
                                  kappa_full=0.75)
        assert regime_flags(result)["delayed_or_collapse"] is expected

    @pytest.mark.parametrize("below,back", [(5e-10, True), (2e-9, False)],
                             ids=["within_tolerance", "below"])
    def test_flag_and_delay_agree_on_full_reconnection(self, below, back):
        # LEL 10 sheds at 0.5 s, sits at kappa_min and ends `below` under
        # its full target; the flag and the metric read one tolerance
        result = hand_made_result([(0.5, 10, "shed")], kappa_full=0.75)
        kappa = result.lel_kappa[:, 0]
        kappa[result.time >= 0.5] = 0.2
        kappa[-1] = 0.75 - below
        assert regime_flags(result)["delayed_or_collapse"] is not back
        assert reconnection_delay(result, 10) == (0.75 if back else "never")

    @pytest.mark.parametrize("events,collapsed,expected", [
        ([], False, dict(ride_through=True, delayed_or_collapse=False)),
        ([], True, dict(ride_through=False, delayed_or_collapse=True)),
        ([(0.5, 10, "shed")], False, dict(ride_through=False, delayed_or_collapse=False)),
    ], ids=["quiet", "collapsed", "shed"])
    def test_ride_through_needs_no_shed_and_no_collapse(self, events, collapsed, expected):
        flags = regime_flags(hand_made_result(events, collapsed=collapsed))
        assert {key: flags[key] for key in expected} == expected

    def test_retrip_after_a_ramp_starts_is_a_shed(self):
        # the LEL at bus 8 starts its ramp at 2.615 s, when the second
        # fault comes; it leaves its band on the next step and trips again
        # at kappa_min, so kappa does not fall, but the trip is a shed
        case = place_lels(bundled_case("toy9"), 3, seed=1)
        events = fault_events(8, 0.5, 0.1, -8j) + fault_events(8, 2.615, 0.3, -8j)
        result = run_simulation(case, events, SimConfig(dt=0.005, horizon=6.0, seed=0))
        bus8 = [(e.time, e.kind) for e in result.events if e.lel_id == 8]
        assert [kind for _, kind in bus8[:3]] == ["shed", "ramp_start", "shed"]
        assert [t for t, _ in bus8[:3]] == pytest.approx([0.61, 2.615, 2.725])
        mode = result.lel_mode[:, result.lel_index[8]]
        assert mode[round(2.72 / 0.005)] == ProtectionMode.VIOLATION_TIMING
        assert regime_flags(result)["mass_disconnection"]


# SimResult's per-sample arrays, one row per recorded sample
SERIES = ("time", "v_mag", "v_ang", "gen_omega", "gen_delta", "lel_p", "lel_q",
          "lel_kappa", "lel_mode", "motor_mode")


class TestCollapseReasons:
    """Each collapse carries its reason, and its message names the cause."""

    def collapse(self, events=(), horizon=0.5):
        case = place_lels(bundled_case("toy9"), 2, seed=3)
        with pytest.raises(SimulationCollapse) as exc:
            run_simulation(case, list(events), SimConfig(dt=0.01, horizon=horizon))
        partial = exc.value.partial
        assert partial.collapse_reason == exc.value.reason
        # every per-sample array is cut at the same sample
        for name in SERIES:
            assert len(getattr(partial, name)) == len(partial.time), name
        return exc.value

    def test_newton(self, monkeypatch):
        residual = _Engine.residual

        def no_root(self, z, x0, f0, dt):
            # the step's residual max-norm never falls below 1
            R = residual(self, z, x0, f0, dt)
            R[0] = 1.0
            return R

        monkeypatch.setattr(_Engine, "residual", no_root)
        exc = self.collapse()
        assert exc.reason == "newton" and exc.step == 0
        # the step's end time
        assert exc.time == (exc.step + 1) * 0.01
        assert str(exc).startswith("Newton failed to converge")
        assert f"residual {exc.residual:.3e}" in str(exc)

    def test_angle_separation(self, monkeypatch):
        # a negative limit counts every spread, so the run collapses once
        # the hold has passed; until then it is the run without the limit
        full = run_simulation(place_lels(bundled_case("toy9"), 2, seed=3), [],
                              SimConfig(dt=0.01, horizon=2.0))
        monkeypatch.setattr(grid, "ANGLE_SPREAD_LIMIT", -1.0)
        exc = self.collapse(horizon=2.0)
        assert exc.reason == "angle_separation" and exc.step == 100
        assert exc.time == pytest.approx(1.01)
        partial = exc.partial
        assert len(partial.time) == 102
        for name in ("v_mag", "v_ang", "motor_mode"):
            assert np.array_equal(getattr(partial, name), getattr(full, name)[:102]), name

    def test_network_solve(self, monkeypatch):
        monkeypatch.setattr(_Engine, "solve_network",
                            lambda self, V, delta, em: (V, False))
        exc = self.collapse(fault_events(5, 0.2, 0.1))
        assert exc.reason == "network_solve"
        assert "network re-solve" in str(exc) and "Newton" not in str(exc)
        assert exc.time == pytest.approx(0.2)

    def test_failed_network_resolve_collapses_at_once(self, monkeypatch):
        calls = []

        def failing(self, V, delta, em):
            calls.append(V)
            return V, False

        monkeypatch.setattr(_Engine, "solve_network", failing)
        exc = self.collapse(fault_events(5, 0.2, 0.1))
        assert len(calls) == 1
        assert exc.reason == "network_solve" and exc.step == 20
        assert len(exc.partial.time) == 21
        assert [e.kind for e in exc.partial.events] == ["fault_applied"]

    def test_every_trip_into_shed_is_logged(self, monkeypatch):
        # a trip is a step into SHED from any mode that held load:
        # RAMPING -> SHED in one step (a trip delay of at most dt), and
        # VIOLATION_TIMING -> SHED at kappa_min after a ramp started, where
        # kappa does not fall.  RECOVERY_WAIT -> SHED is not a trip.  With
        # kappa_min = kappa_max = 1 a trip sheds nothing, yet it and the
        # reconnection that ends its ramp are logged; a violation cleared
        # before the trip delay resets to CONNECTED without a reconnection
        P = ProtectionMode
        rows = [([(P.SHED, 0.25), (P.RAMPING, 0.3), (P.SHED, 0.25),
                  (P.RECOVERY_WAIT, 0.25), (P.SHED, 0.25)],
                 ["shed", "ramp_start", "shed"], [0.01, 0.02, 0.03]),
                ([(P.SHED, 0.25), (P.RAMPING, 0.25), (P.VIOLATION_TIMING, 0.25),
                  (P.SHED, 0.25)], ["shed", "ramp_start", "shed"], [0.01, 0.02, 0.04]),
                ([(P.VIOLATION_TIMING, 1.0, 0.01), (P.CONNECTED,), (P.SHED, 1.0),
                  (P.RAMPING, 1.0), (P.CONNECTED,)],
                 ["shed", "ramp_start", "reconnected"], [0.03, 0.04, 0.05])]
        # a frequency reference off nominal keeps the LEL out of band, so
        # the engine never skips its machines and calls the transition
        # from the first step on
        case = bundled_case("toy2")
        lel = case.lels[0]
        prot = replace(lel.params.prot, omega_ref=1.5)
        case = case.with_lels((replace(lel, params=replace(lel.params, prot=prot)),))
        for states, kinds, times in rows:
            script = iter([ProtectionState(*fields) for fields in states])

            def scripted(*state_ok_dt_params):
                state = ProtectionState(*state_ok_dt_params[:5])
                return astuple(next(script, state))

            monkeypatch.setattr("lelsim.grid.protection_transition", scripted)
            result = run_simulation(case, [], SimConfig(dt=0.01, horizon=0.1))
            assert [e.kind for e in result.events] == kinds
            assert [e.time for e in result.events] == pytest.approx(times)
            # a shed after a ramp start
            assert regime_flags(result)["staggered_interaction"] is (kinds[2] == "shed")

    @pytest.mark.parametrize("where", ["block_last_row", "inside_block"])
    def test_partial_fills_voltages_and_motor_modes(self, monkeypatch, where):
        """run_simulation writes v_mag and v_ang per block of rows, and
        motor_mode from a motor trip's row on; a collapse must write the
        rows its block still held."""
        # a -4j sag at toy2's LEL bus trips the motor at 0.45 s; T_cool
        # keeps it off past the horizon
        case = bundled_case("toy2")
        events = fault_events(2, 0.2, 0.3, admittance=-4j)
        cfg = SimConfig(dt=0.005, horizon=2.5)
        full = run_simulation(case, events, cfg)
        trips = [e.time for e in full.events if e.kind.startswith("motor")]
        assert trips == pytest.approx([0.45])
        trip_row = round(trips[0] / cfg.dt)
        assert not full.motor_mode[:trip_row].any() and full.motor_mode[trip_row:].all()
        # the first block holds rows 0 to RECORD_BLOCK - 1, the trip's among them
        last = RECORD_BLOCK - 1
        assert trip_row < last
        collapse_step = {"block_last_row": last, "inside_block": last + 100}[where]
        assert collapse_step < round(cfg.horizon / cfg.dt)

        residual = _Engine.residual
        starts = []                 # each step's x0, so ids stay distinct

        def nan_at_collapse_step(self, z, x0, f0, dt):
            if not starts or starts[-1] is not x0:
                starts.append(x0)
            R = residual(self, z, x0, f0, dt)
            if len(starts) == collapse_step + 1:
                R[:] = math.nan
            return R

        monkeypatch.setattr(_Engine, "residual", nan_at_collapse_step)
        with pytest.raises(SimulationCollapse) as info:
            run_simulation(case, events, cfg)
        partial = info.value.partial
        assert info.value.reason == "non_finite" and info.value.step == collapse_step
        assert len(partial.time) == collapse_step + 1
        for name in ("v_mag", "v_ang", "motor_mode"):
            assert np.array_equal(getattr(partial, name), getattr(full, name)[:collapse_step + 1])
        assert set(partial.motor_mode[:, 0]) == {0, 1}

    def test_non_finite_residual(self, monkeypatch):
        residual = _Engine.residual
        calls = []

        def nan_at_one_step(self, z, x0, f0, dt):
            calls.append(x0)
            R = residual(self, z, x0, f0, dt)
            if len({id(x) for x in calls}) == 4:       # the fourth step
                R[:] = math.nan
            return R

        monkeypatch.setattr(_Engine, "residual", nan_at_one_step)
        exc = self.collapse()
        assert exc.reason == "non_finite" and exc.step == 3
        assert "not finite" in str(exc)
        assert len(exc.partial.time) == 4 and np.all(np.isfinite(exc.partial.v_mag))


class NewtonSpy:
    """Counts, per step, the LU factorizations and solves of
    run_simulation's N x N step system, and keeps the residual max-norm
    at each factorization; a step starts at its first residual.  The
    power flow's and the network re-solves' systems are smaller, and
    are not counted."""

    def __init__(self, monkeypatch):
        self.x0 = None
        self.N = None                       # the step system's size
        self.step = -1
        self.rmax = math.inf
        self.factored = []                  # (step, rmax) per factorization
        self.solves = collections.Counter()   # step -> LU solves
        residual, lu_factor, lu_solve = _Engine.residual, grid.lu_factor, grid.lu_solve

        def spy_residual(eng, z, x0, f0, dt):
            if x0 is not self.x0:
                self.x0, self.step = x0, self.step + 1
            self.N = eng.N
            R = residual(eng, z, x0, f0, dt)
            self.rmax = np.abs(R).max()
            return R

        def spy_factor(a, **kw):
            if len(a) == self.N:
                self.factored.append((self.step, self.rmax))
            return lu_factor(a, **kw)

        def spy_solve(lu_piv, b):
            if len(b) == self.N:
                self.solves[self.step] += 1
            return lu_solve(lu_piv, b)

        monkeypatch.setattr(_Engine, "residual", spy_residual)
        monkeypatch.setattr("lelsim.grid.lu_factor", spy_factor)
        monkeypatch.setattr("lelsim.grid.lu_solve", spy_solve)


def outcome(case, events, cfg):
    """A run's result and its collapse (reason, step), or None."""
    try:
        return run_simulation(case, events, cfg), None
    except SimulationCollapse as exc:
        return exc.partial, (exc.reason, exc.step)


class TestNewton:
    """The one damped Newton behind the power flow, the network re-solve
    and the grid step."""

    @staticmethod
    def counting_factor(monkeypatch):
        """The list of factorizations newton makes from now on."""
        factored = []
        lu_factor = grid.lu_factor

        def spy(a, **kw):
            factored.append(lu_factor(a, **kw))
            return factored[-1]

        monkeypatch.setattr("lelsim.grid.lu_factor", spy)
        return factored

    def test_full_newton_converges(self, monkeypatch):
        factored = self.counting_factor(monkeypatch)
        z, rmax, lu = grid.newton(lambda z: z**3 - 8.0, lambda z: np.diag(3 * z**2),
                                  np.array([1.0, 3.0]), None, 0)
        assert rmax < NEWTON_TOL
        assert np.allclose(z, 2.0, rtol=0, atol=1e-9)
        # full Newton refactors every update and hands back the last one
        assert len(factored) >= 3 and lu is factored[-1]

    def test_no_factorization_at_a_converged_start(self, monkeypatch):
        held = grid.lu_factor(np.eye(2))
        factored = self.counting_factor(monkeypatch)
        z0 = np.array([2.0, 2.0])
        z, rmax, lu = grid.newton(lambda z: z**3 - 8.0, lambda z: np.diag(3 * z**2),
                                  z0, held, 5)
        assert rmax == 0.0 and z is z0 and lu is held
        assert factored == []

    def test_halves_the_step_on_a_kinked_residual(self):
        # f(z) = sign(z) sqrt|z| has a cusp at its root: the full Newton
        # step from z lands at -z with the same residual, and the half
        # step lands on the root
        tried = []

        def residual(z):
            tried.append(z[0])
            return np.sign(z) * np.sqrt(np.abs(z))

        z, rmax, _ = grid.newton(residual, lambda z: np.diag(0.5 / np.sqrt(np.abs(z))),
                                 np.array([4.0]), None, 0)
        assert tried == [4.0, -4.0, 0.0]
        assert z[0] == 0.0 and rmax == 0.0

    def test_no_root_fails_and_drops_the_factorization(self, monkeypatch):
        # a residual whose max-norm stays at 1; the budgets are read at
        # call time
        monkeypatch.setattr("lelsim.grid.NEWTON_MAX_ITER", 3)
        factored = self.counting_factor(monkeypatch)
        calls = []

        def residual(z):
            calls.append(z)
            return np.array([z[0], 1.0])

        z, rmax, lu = grid.newton(residual, lambda z: np.eye(2), np.array([1.0, 0.0]),
                                  None, 2)
        assert rmax >= NEWTON_TOL and lu is None
        # one chord factorization, then one per full update; six trial
        # steps per update, none of which lowers the max-norm below 1
        assert len(factored) == 1 + 3
        assert len(calls) == 1 + (2 + 3) * 6

    def test_non_finite_jacobian_gives_a_non_finite_max_norm(self):
        # scipy's checked lu_factor would raise ValueError here; the
        # callers name a collapse from the max-norm instead
        z, rmax, _ = grid.newton(lambda z: z - 1.0, lambda z: np.full((2, 2), np.nan),
                                 np.array([3.0, 2.0]), None, 0)
        assert not math.isfinite(rmax)

    def test_a_fault_run_calls_it_for_power_flow_resolves_and_steps(self, monkeypatch):
        calls = []
        newton = grid.newton

        def spy(residual, jacobian, z, lu, n_chord):
            calls.append(n_chord)
            return newton(residual, jacobian, z, lu, n_chord)

        monkeypatch.setattr("lelsim.grid.newton", spy)
        cfg = SimConfig(dt=0.01, horizon=1.0)
        run_simulation(place_lels(bundled_case("toy9"), 3, seed=1),
                       fault_events(7, 0.5, 0.1, -8j), cfg)
        n_steps = 100
        assert len(calls) == 1 + 2 + n_steps
        # the power flow and the two re-solves take full Newton at once
        assert calls.count(0) == 3 and calls[0] == 0
        assert calls.count(grid.CHORD_MAX_ITER) == n_steps


class TestChordNewton:
    """Chord Newton reuses one factorization for at most
    JACOBIAN_MAX_AGE steps, factors only to make an update, and leaves a
    chord pass that converged on its last update without refactoring."""

    @pytest.mark.parametrize("chord_budget", [None, 1], ids=["default", "one_update"])
    def test_no_factorization_at_a_converged_state(self, monkeypatch, chord_budget):
        if chord_budget is not None:
            monkeypatch.setattr("lelsim.grid.CHORD_MAX_ITER", chord_budget)
        spy = NewtonSpy(monkeypatch)
        run_simulation(place_lels(bundled_case("toy9"), 3, seed=1),
                       fault_events(7, 0.5, 0.1, -8j), SimConfig(dt=0.005, horizon=3.0))
        assert spy.factored
        assert min(r for _, r in spy.factored) >= NEWTON_TOL
        if chord_budget == 1:
            # chord passes that converged on their only update: the case
            # is reached, and such a step factors at most for its chord
            converged_on_last = [s for s, n in spy.solves.items() if n == 1]
            assert len(converged_on_last) >= 10
            per_step = collections.Counter(s for s, _ in spy.factored)
            assert max(per_step[s] for s in converged_on_last) <= 1

    def test_factorization_served_at_most_max_age_steps(self, monkeypatch):
        # a -8j fault at step 101 cleared at step 115: each switching
        # event drops the factorization, and the age counts from there
        cfg = SimConfig(dt=0.005, horizon=3.0)
        spy = NewtonSpy(monkeypatch)
        run_simulation(place_lels(bundled_case("toy9"), 3, seed=1),
                       fault_events(7, 0.505, 0.07, -8j), cfg)
        events = {101, 115}
        expected, last = [], None
        for step in range(int(round(cfg.horizon / cfg.dt))):
            if step in events or last is None or step - last >= grid.JACOBIAN_MAX_AGE:
                expected.append(step)
                last = step
        assert [s for s, _ in spy.factored] == expected

    @pytest.mark.parametrize("case, events, horizon", [
        (place_lels(bundled_case("toy9"), 3, seed=1), fault_events(7, 0.5, 0.1, -8j), 3.0),
        (place_lels(bundled_case("toy9"), 3, seed=1),
         fault_events(8, 0.5, 0.1, FAULT_ADMITTANCE), 3.0),
        (bundled_case("toy2"), fault_events(2, 0.2, 0.3, -4j), 5.0),
    ], ids=["toy9_-8j_bus7", "toy9_bolted_bus8", "toy2_sag_-4j"])
    def test_fresh_jacobian_every_step_gives_the_same_run(self, monkeypatch, case, events,
                                                          horizon):
        cfg = SimConfig(dt=0.005, horizon=horizon)
        aged, aged_outcome = outcome(case, events, cfg)
        monkeypatch.setattr("lelsim.grid.JACOBIAN_MAX_AGE", 1)
        spy = NewtonSpy(monkeypatch)
        fresh, fresh_outcome = outcome(case, events, cfg)
        # every step that made an update factored for it
        assert {s for s, _ in spy.factored} == set(spy.solves)
        assert fresh_outcome == aged_outcome
        assert [(e.time, e.lel_id, e.kind) for e in fresh.events] == [
            (e.time, e.lel_id, e.kind) for e in aged.events]
        assert fresh.v_mag.shape == aged.v_mag.shape
        assert np.max(np.abs(fresh.v_mag - aged.v_mag)) <= 1e-7


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


@functools.lru_cache(maxsize=1)
def ieee39_engine():
    case = place_lels(bundled_case("ieee39"), 10, seed=2)
    return init_dynamics(case, power_flow(case))


def one_lel(eng, k):
    """A copy of eng cut down to its LEL k: every ndarray attribute whose
    leading dimension is K keeps only that LEL's entry."""
    one = copy.copy(eng)
    for name, value in vars(eng).items():
        if isinstance(value, np.ndarray) and value.shape[:1] == (eng.K,):
            setattr(one, name, value[k:k + 1])
    one.K = 1
    return one

# terminal voltage magnitudes on both sides of the floor, the floor and 0
V_MAGS = st.one_of(st.sampled_from([0.0, V_FLOOR]), st.floats(0.0, 2 * V_FLOOR),
                   st.floats(2 * V_FLOOR, 1.3))


class TestDeviceVectors:
    """motor_f skips its masks when every motor runs; the vector results
    of motor_f and pe_injection must equal each LEL evaluated alone, bit
    for bit."""

    @settings(max_examples=150, deadline=None)
    @given(mags=st.lists(V_MAGS, min_size=10, max_size=10),
           angles=st.lists(st.sampled_from([0.0, 2.0]) | st.floats(-math.pi, math.pi),
                           min_size=10, max_size=10),
           running=st.lists(st.booleans(), min_size=10, max_size=10),
           seed=st.integers(0, 2**32 - 1))
    def test_vector_equals_per_lel_evaluation(self, mags, angles, running, seed):
        eng = copy.copy(ieee39_engine())
        eng.running = np.array(running)
        Vl = np.array(mags) * np.exp(1j * np.array(angles))
        em = eng.em0 * (1.0 + 0.1 * np.random.default_rng(seed).standard_normal(
            eng.em0.shape))
        f, i = eng.motor_f(em, Vl)
        f_slip, f_e = eng.motor_states(f)
        stopped = ~eng.running
        assert not f_slip[stopped].any() and not f_e[stopped].any()
        assert not i[stopped].any()
        I = eng.pe_injection(Vl)
        slip, e = eng.motor_states(em)
        for k in range(eng.K):
            one = one_lel(eng, k)
            em_k = np.empty(3)
            slip_k, e_k = one.motor_states(em_k)
            slip_k[0], e_k[0] = slip[k], e[k]
            f_k, i_k = one.motor_f(em_k, Vl[k:k + 1])
            f_slip_k, f_e_k = one.motor_states(f_k)
            assert f_slip[k] == f_slip_k[0] and f_e[k] == f_e_k[0] and i[k] == i_k[0]
            assert I[k] == one.pe_injection(Vl[k:k + 1])[0]

    def test_no_lels_give_empty_arrays(self):
        case = bundled_case("toy9")
        eng = init_dynamics(case, power_flow(case))
        assert eng.K == 0
        f, i = eng.motor_f(np.empty(0), np.empty(0, dtype=complex))
        assert f.shape == (0,) and i.shape == (0,)
        assert eng.pe_injection(np.empty(0, dtype=complex)).shape == (0,)


class TestConstantPowerLaw:
    @settings(max_examples=200, deadline=None)
    @given(mags=st.lists(V_MAGS, min_size=10, max_size=10),
           angles=st.lists(st.floats(-math.pi, math.pi), min_size=10, max_size=10))
    def test_pe_injection_is_the_two_branch_law(self, mags, angles):
        """W / conj(V) above V_FLOOR, the floor's admittance W V / V_FLOOR^2
        at or below it, with W the draw at max(|V|, V_FLOOR)."""
        eng = ieee39_engine()
        Vl = np.array(mags) * np.exp(1j * np.array(angles))
        I = eng.pe_injection(Vl)
        for k, v in enumerate(Vl):
            W = eng.pe_power(np.maximum(abs(v), V_FLOOR))[k]
            law = W / np.conj(v) if abs(v) > V_FLOOR else W * v / V_FLOOR**2
            assert abs(I[k] - law) <= 2e-15 * abs(law)
            if v == 0:
                assert I[k] == 0

    @pytest.mark.parametrize("m", [V_FLOOR, 0.5, 0.9, 1.0, 1.2])
    def test_pe_power_is_the_workload_plus_zip_draw(self, m):
        """pe_power folds each LEL's ZIP coefficients; it must equal the
        workload draw plus aux_power's P_aux(m) (1 - j beta), over s_base.
        The ZIP reference voltages are set off 1 pu, so a coefficient
        folded with the wrong power of V0 shows."""
        case = place_lels(bundled_case("ieee39"), 10, seed=2)
        case = case.with_lels(tuple(
            replace(p, params=replace(p.params, aux=replace(p.params.aux, V0=v0)))
            for p, v0 in zip(case.lels, np.linspace(0.9, 1.15, len(case.lels)))))
        eng = init_dynamics(case, power_flow(case))
        p0 = np.array([workload_power(p.work.mu_eta, p.work) for p in eng.params])
        for p_work in (p0, 1.3 * p0):
            eng.w0 = eng.work_term(p_work)
            W = eng.pe_power(np.full(eng.K, m))
            for k, params in enumerate(eng.params):
                p_aux = aux_power(m, params.aux)[0]
                law = (p_work[k] + p_aux * (1 - 1j * params.aux.beta_aux)) / eng.s_base
                assert abs(W[k] - law) <= 2e-15 * abs(law)


@functools.lru_cache(maxsize=1)
def toy9_flow():
    """toy9 with three LELs, and its power flow.  The third one's
    protection band reaches below V_stall, so its motor can stall while
    the protection stays CONNECTED."""
    case = place_lels(bundled_case("toy9"), 3, seed=1)
    wide = case.lels[2]
    prot = replace(wide.params.prot, dV=0.6)
    case = case.with_lels(case.lels[:2] + (replace(wide, params=replace(wide.params,
                                                                        prot=prot)),))
    return case, power_flow(case)


# |V| over the LEL's V_ref: 1 sits in band, 0.5 below V_stall (in the
# wide band only) and 0 blocks a motor restart
_V_SCALE = st.one_of(st.sampled_from([1.0, 0.5, 0.0]), st.floats(0.0, 1.25))
# a sag below every band and V_stall, a collapse, then a long recovery: trips,
# stalls, a restart refused at 0 V, restarts, ramps and reconnections
_FULL_CYCLE = ([([0.5] * 3, 0.3, 1.0, 0.05)] * 8 + [([0.0] * 3, 0.3, 1.0, 0.5)] * 10
               + [([1.0] * 3, 0.3, 1.0, 0.25)] * 40)


class TestLelMachines:
    """The engine's per-LEL machines on plain values, `step_machines`,
    against chained protection_step and stall_update calls."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.lists(_V_SCALE, min_size=3, max_size=3),
                              st.floats(-math.pi, math.pi),
                              st.one_of(st.just(1.0), st.floats(0.97, 1.03)),
                              st.floats(1e-3, 0.5)),
                    min_size=1, max_size=60))
    @example(_FULL_CYCLE)
    @example([([1.0, 1.0, 0.5], 0.3, 1.0, 0.05), ([1.0] * 3, 0.3, 1.0, 0.05)])
    def test_engine_machines_equal_chained_calls(self, samples):
        """Every step: the same mode, kappa and timers, and the same motor
        state; and where the engine skips a machine (a settled LEL skips
        both), its function returns its input unchanged.  dt is drawn, so
        the timer sums round as they do at real step sizes."""
        case, V0 = toy9_flow()
        eng = init_dynamics(case, V0)
        em = eng.em0.copy()
        slip, e = eng.motor_states(em)
        prot = [ProtectionState()] * eng.K
        motors = [MotorState(ed_p=e[k].real, eq_p=e[k].imag, slip=slip[k],
                             t_mech=eng.tmech[k]) for k in range(eng.K)]
        V, t, log = V0.copy(), 0.0, []
        modes_seen, running_seen = set(), set()
        for scales, angle, w, dt in samples:
            V[eng.lbus] = np.array(scales) * np.abs(V0[eng.lbus]) * np.exp(1j * angle)
            Vl = V[eng.lbus]
            for k, (v, v_mag) in enumerate(zip(Vl.tolist(), np.abs(Vl).tolist())):
                params, was = eng.params[k], (prot[k], motors[k])
                # the conditions on which the engine skips each machine
                skip_motor = (motors[k].running and motors[k].stall_timer == 0.0
                              and abs(v) >= params.cool.V_stall)
                skip_prot = (prot[k].mode is ProtectionMode.CONNECTED
                             and in_band(v_mag, w, params.prot))
                motors[k] = stall_update(motors[k], v, dt, params.cool)
                prot[k] = protection_step(prot[k], v_mag, w, dt, params.prot)
                if skip_motor:
                    assert motors[k] == was[1]
                if skip_prot:
                    assert prot[k] == was[0]
            t += dt
            eng.step_machines(V, np.full(eng.ng, w), em, dt, t, log)
            for k, (p, m) in enumerate(zip(prot, motors)):
                assert ProtectionState(*eng.prot[k]) == p
                assert (eng.kappa[k], eng.prot_ord[k]) == (p.kappa, p.mode)
                assert eng.motor[k] == (m.running, m.stall_timer, m.recovery_timer)
                assert eng.running[k] == m.running
                assert (slip[k], e[k]) == (m.slip, complex(m.ed_p, m.eq_p))
                modes_seen.add(p.mode)
                running_seen.add(m.running)
        if samples == _FULL_CYCLE:
            assert (modes_seen, running_seen) == (set(ProtectionMode), {True, False})
            assert {"motor_restart", "reconnected"} <= {r.kind for r in log}


class TestEngineOracles:
    @pytest.mark.parametrize("name", ["toy9", "ieee39"])
    def test_without_lels_the_engine_adds_load_and_machine_admittances(self, name):
        # the compensation shunts take up only the power-flow tolerance; a
        # machine EMF off its power-flow current would show in them
        case = bundled_case(name)
        V = power_flow(case)
        eng = init_dynamics(case, V)
        idx = case.bus_index()
        S = np.array([complex(b.p_load, b.q_load) for b in case.buses]) / eng.s_base
        expected = build_ybus(case) + np.diag(np.conj(S) / np.abs(V) ** 2)
        for g in case.generators:
            expected[idx[g.bus], idx[g.bus]] += 1.0 / (1j * g.xd_p)
        assert np.allclose(eng.Y, expected, rtol=0, atol=1e-8)

    def test_workload_power_matches_ou_step_loop(self, monkeypatch):
        case = noisy_toy9()
        cfg = SimConfig(dt=0.01, horizon=1.0, seed=11)
        residual = _Engine.residual
        per_step = {}              # id(x0) -> (x0, w0): one entry a step

        def spy(self, z, x0, f0, dt):
            per_step.setdefault(id(x0), (x0, self.w0.copy()))
            return residual(self, z, x0, f0, dt)

        monkeypatch.setattr(_Engine, "residual", spy)
        run_simulation(case, [], cfg)
        seen = np.array([p for _, p in per_step.values()])
        assert seen.shape == (100, 3)

        eng = init_dynamics(case, power_flow(case))
        for k, params in enumerate(eng.params):
            work = params.work
            rng = np.random.default_rng([cfg.seed, k])
            state = WorkloadState(eta=work.mu_eta)
            expected = []
            for _ in range(100):
                state = ou_step(state, work, cfg.dt, rng)
                expected.append(workload_power(state.eta, work))
            # the engine holds w0 = zip0 + p / s_base, the workload's term
            # of the constant-power law
            expected = np.array(expected)
            w0 = eng.zip0[k] + expected / eng.s_base
            bounds = eng.zip0[k] + np.array([work.p_base, work.p_full]) / eng.s_base
            assert (np.abs(seen[:, k] - w0).max()
                    <= 1e-12 * (work.p_full - work.p_base) / eng.s_base)
            clipped = np.isin(expected, (work.p_base, work.p_full))
            assert np.array_equal(np.isin(seen[:, k], bounds), clipped)
            assert np.array_equal(seen[clipped, k], w0[clipped])
        assert len(np.unique(seen[:, 2])) > 1       # bursts alone moved it

    @pytest.mark.parametrize("stalled", [False, True], ids=["running", "stall_tripped"])
    def test_residual_network_rows_equal_current_mismatch(self, stalled):
        case = noisy_toy9()
        eng = init_dynamics(case, power_flow(case))
        if stalled:
            eng.running = np.arange(eng.K) != 1
        ng, K, n = eng.ng, eng.K, eng.n
        rng = np.random.default_rng(5)
        delta = eng.delta0 + 0.02 * rng.standard_normal(ng)
        omega = 1.0 + 1e-3 * rng.standard_normal(ng)
        em = eng.em0 * (1.0 + 0.05 * rng.standard_normal(3 * K))
        V = eng.V0 * (0.95 + 0.05 * rng.random(n)) * np.exp(0.03j * rng.standard_normal(n))
        z = eng.pack(delta, omega, em, V)
        # the previous step's states differ from z's, so a motor current
        # taken at the wrong states would show in the network rows
        x0 = eng.pack(eng.delta0, np.ones(ng), eng.em0, V)[:eng.ov]
        f0 = np.zeros(eng.ov)

        R = eng.residual(z, x0, f0, 0.01)
        I = eng.current_mismatch(V, eng.E * np.exp(1j * delta),
                                 eng.lel_currents(V[eng.lbus], em))
        # R's rows follow z's layout: its network rows read as V's do
        assert np.array_equal(eng.unpack(R)[3], I)

    @staticmethod
    def perturbed_ieee39(tripped, terminal=None):
        """ieee39 with ten LELs, random kappa, the given motors stall-tripped,
        and a state z (with its step's start x0, f0) off the equilibrium;
        terminal maps tuples of LEL indices to the fraction of V0 their
        terminal voltages are set to."""
        case = place_lels(bundled_case("ieee39"), 10, seed=2)
        eng = init_dynamics(case, power_flow(case))
        ng, K, n = eng.ng, eng.K, eng.n
        rng = np.random.default_rng(8)
        eng.kappa[:] = rng.uniform(0.1, 1.0, K)
        eng.running = ~np.isin(np.arange(K), tripped)
        delta = eng.delta0 + 0.05 * rng.standard_normal(ng)
        omega = 1.0 + 2e-3 * rng.standard_normal(ng)
        em = eng.em0 * (1.0 + 0.05 * rng.standard_normal(3 * K))
        V = eng.V0 * (0.9 + 0.1 * rng.random(n)) * np.exp(0.05j * rng.standard_normal(n))
        for lels, frac in (terminal or {}).items():
            buses = eng.lbus[list(lels)]
            V[buses] = frac * eng.V0[buses]
        z = eng.pack(delta, omega, em, V)
        x0 = eng.pack(eng.delta0, np.ones(ng), eng.em0, V)[:eng.ov]
        return eng, z, x0, np.zeros(eng.ov)

    # below the floor (0.03 V0) and between the floor and nominal voltage
    # (0.1 and 0.5 V0), where the ZIP terms of the constant-power law vary
    @pytest.mark.parametrize("tripped, terminal", [
        ((), {}), ((1, 6), {}), ((), {(0, 3, 5, 8): 0.03}),
        ((), {(0, 3): 0.1, (5, 8): 0.5})],
        ids=["running", "two_stall_tripped", "four_below_floor", "between_floor_and_nominal"])
    def test_jacobian_equals_central_differences_of_the_residual(self, tripped, terminal):
        eng, z, x0, f0 = self.perturbed_ieee39(tripped, terminal)
        Vl = eng.unpack(z)[3][eng.lbus]
        below = sum(len(lels) for lels, frac in terminal.items() if frac < V_FLOOR)
        assert np.count_nonzero(np.abs(Vl) < V_FLOOR) == below
        dt, h = 0.005, 1e-7
        J = eng.jacobian(z, dt)
        fd = np.empty_like(J)
        for j in range(eng.N):
            step = np.zeros(eng.N)
            step[j] = h
            fd[:, j] = (eng.residual(z + step, x0, f0, dt)
                        - eng.residual(z - step, x0, f0, dt)) / (2 * h)
        assert np.max(np.abs(J - fd)) <= 1e-8 * np.max(np.abs(J))

    def test_motor_partials_equal_central_differences_of_motor_f(self):
        eng, z, _, _ = self.perturbed_ieee39((1, 6))
        _, _, em, V = eng.unpack(z)
        Vm = V[eng.lbus]
        d, di = eng._motor_partials(em, Vm)
        h = 1e-6

        def rows(f):
            """A motor block's (e_d, e_q, s) rows, (3, K)."""
            f_slip, f_e = eng.motor_states(f)
            return np.array([f_e.real, f_e.imag, f_slip])

        # one step along each column (e_d, e_q, s, v_re, v_im), all motors at once
        steps = []
        for j in range(3):
            de = np.zeros_like(em)
            d_slip, d_e = eng.motor_states(de)
            (d_e.real, d_e.imag, d_slip)[j][:] = h
            steps.append((de, 0.0))
        steps += [(0.0, h), (0.0, 1j * h)]
        fd = np.empty((3, 5, eng.K))
        fd_i = np.empty((5, eng.K), dtype=complex)
        for j, (de, dv) in enumerate(steps):
            f_plus, i_plus = eng.motor_f(em + de, Vm + dv)
            f_minus, i_minus = eng.motor_f(em - de, Vm - dv)
            fd[:, j] = rows(f_plus - f_minus) / (2 * h)
            fd_i[j] = (i_plus - i_minus) / (2 * h)
        assert np.max(np.abs(d - fd)) <= 1e-9 * np.max(np.abs(d))
        # the stator current's partials over (e_d, e_q, v_re, v_im) of the
        # running motors; motor_f zeroes a tripped motor's current
        running = eng.running
        di_run = di[[0, 1, -2, -1]][:, running]
        assert np.max(np.abs(di_run - fd_i[[0, 1, 3, 4]][:, running])) <= (
            1e-9 * np.max(np.abs(di_run)))
        assert not fd_i[:, ~running].any()

    def test_network_jacobian_follows_a_replaced_admittance_matrix(self):
        """The [[G, -B], [B, G]] block is cached per Y object; an event
        replaces Y, and the block must follow it."""
        eng, z, _, _ = self.perturbed_ieee39(())
        V = eng.unpack(z)[3]
        before = eng.network_jacobian(V)
        assert np.array_equal(eng.network_jacobian(V), before)
        b = 4
        dY = np.zeros_like(eng.Y)
        dY[b, b] = -50j
        eng.Y = eng.Y + dY
        change = eng.network_jacobian(V) - before
        expected = np.zeros_like(change)
        expected[2 * b, 2 * b + 1], expected[2 * b + 1, 2 * b] = 50.0, -50.0
        assert np.array_equal(change, expected)

    def test_network_resolve_uses_the_voltage_block_of_the_jacobian(self, monkeypatch):
        eng, z, _, _ = self.perturbed_ieee39((1, 6))
        J = eng.jacobian(z, 0.005)
        matrices = []
        lu_factor = grid.lu_factor

        def spy(a, **kw):
            matrices.append(a.copy())
            return lu_factor(a, **kw)

        monkeypatch.setattr("lelsim.grid.lu_factor", spy)
        delta, _, _, V = eng.unpack(z)
        eng.solve_network(V, delta, eng.em0)
        assert matrices[0].shape == (2 * eng.n, 2 * eng.n)
        # one assembly: the bound leaves room only for the order of the
        # few sums that make up each LEL entry
        assert np.max(np.abs(matrices[0] - J[eng.ov:, eng.ov:])) <= 1e-14 * np.max(np.abs(J))
