"""Tests of the LEL inside the grid engine (on the two-bus case toy2) and
of the parameter-exchange file."""

import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lelsim.cases import bundled_case
from lelsim.errors import InvalidArgument
from lelsim.grid import (
    V_FLOOR,
    Event,
    SimConfig,
    _Engine,
    fault_events,
    init_dynamics,
    power_flow,
    run_simulation,
)
from lelsim.lel import (
    Archetype,
    LelParams,
    archetype_defaults,
    dump_lel_params,
    parse_lel_params,
)
from lelsim.protection import (
    ProtectionMode,
    ProtectionParams,
    ProtectionState,
    dump_protection_disclosure,
    load_protection_disclosure,
    protection_transition,
)
from lelsim.thermal_aux import AuxParams, CoolingParams, aux_power, motor_init, stall_transition
from lelsim.workload import WorkloadParams, workload_power

# a 0.3 s sag at the LEL bus of toy2: -2j holds |V| near 0.65 pu, below
# the protection band; -4j holds it near 0.47 pu, below V_stall as well
SAG_START, SAG_LENGTH = 0.2, 0.3


def toy2_with(archetype):
    case = bundled_case("toy2")
    p = case.lels[0]
    return case.with_lels((replace(p, params=archetype_defaults(archetype)),))


def sag_run(admittance):
    case = bundled_case("toy2")
    events = fault_events(2, SAG_START, SAG_LENGTH, admittance=admittance)
    return case, run_simulation(case, events, SimConfig(dt=0.005, horizon=1.0, seed=0))


def at(result, t):
    return int(np.searchsorted(result.time, t - 1e-9))


def assert_shed_by_end_of_sag(case, result):
    assert not result.collapsed
    k = at(result, SAG_START + SAG_LENGTH)
    assert result.lel_mode[k, 0] == ProtectionMode.SHED
    assert result.lel_kappa[k, 0] == case.lels[0].params.prot.kappa_min


class TestArchetypes:
    @pytest.mark.parametrize("arch", list(Archetype))
    def test_presets_validate_and_initialize(self, arch):
        case = toy2_with(arch)
        eng = init_dynamics(case, power_flow(case))
        assert eng.params[0].archetype is arch
        assert eng.prot[0][0] is ProtectionMode.CONNECTED
        assert eng.motor[0][0] and eng.running[0]      # the motor runs

    def test_presets_differ(self):
        dc = archetype_defaults(Archetype.DATACENTER)
        cm = archetype_defaults(Archetype.CRYPTO_MINING)
        assert dc.work.mu_eta != cm.work.mu_eta


class TestLelStep:
    """One LEL stepped by the grid engine."""

    def test_nominal_conditions_draw_positive_power(self):
        result = run_simulation(bundled_case("toy2"), [],
                                SimConfig(dt=0.01, horizon=0.05, seed=0))
        assert np.all(result.lel_p > 0.0)

    def test_deterministic_given_rng(self):
        case = toy2_with(Archetype.ELECTROLYZER)
        cfg = SimConfig(dt=0.01, horizon=0.1, seed=5)
        a = run_simulation(case, [], cfg)
        b = run_simulation(case, [], cfg)
        assert np.array_equal(a.lel_p, b.lel_p)
        assert np.array_equal(a.lel_q, b.lel_q)

    def test_sustained_undervoltage_sheds_load(self):
        assert_shed_by_end_of_sag(*sag_run(-2j))

    def test_shed_reduces_drawn_power(self):
        _, result = sag_run(-2j)
        p_before = result.lel_p[at(result, SAG_START), 0]
        # voltage has recovered but the load is still shed
        k = at(result, SAG_START + SAG_LENGTH + 0.2)
        assert result.v_mag[k].min() > 0.95
        assert result.lel_p[k, 0] < 0.6 * p_before

    def test_deep_sag_sheds_and_stall_trips_motor(self):
        _, shallow = sag_run(-2j)
        case, deep = sag_run(-4j)
        assert_shed_by_end_of_sag(case, deep)
        assert "motor_stall_trip" not in [e.kind for e in shallow.events]
        assert "motor_stall_trip" in [e.kind for e in deep.events]
        assert deep.motor_mode[-1, 0] == 1


class TestDemandShares:
    """A block that cannot carry its share of the bus demand is rejected
    before integration instead of being absorbed by a compensation shunt."""

    def with_lel(self, **kw):
        case = bundled_case("toy2")
        return case.with_lels((replace(case.lels[0], **kw),))

    def test_zero_cooling_share_rejected(self):
        case = self.with_lel(shares=(0.7, 0.0, 0.3))
        with pytest.raises(InvalidArgument, match="bus 2: the cooling block"):
            run_simulation(case, [], SimConfig(dt=0.01, horizon=0.05))

    def test_workload_drawing_nothing_at_mu_eta_rejected(self):
        params = archetype_defaults(Archetype.DATACENTER)
        work = replace(params.work, p_base=0.0, mu_eta=0.0)
        case = self.with_lel(params=replace(params, work=work))
        with pytest.raises(InvalidArgument, match="bus 2: the workload block"):
            run_simulation(case, [], SimConfig(dt=0.01, horizon=0.05))

    def test_bus_without_demand_rejected(self):
        case = bundled_case("toy2")
        buses = (case.buses[0], replace(case.buses[1], p_load=0.0, q_load=0.0))
        with pytest.raises(InvalidArgument, match="bus 2 has no demand"):
            run_simulation(replace(case, buses=buses), [], SimConfig(dt=0.01, horizon=0.05))

    def test_zero_workload_share_on_a_workload_drawing_nothing_is_carried(self):
        params = archetype_defaults(Archetype.DATACENTER)
        work = replace(params.work, p_base=0.0, p_full=0.0)
        case = self.with_lel(params=replace(params, work=work), shares=(0.0, 0.9, 0.1))
        result = run_simulation(case, [], SimConfig(dt=0.01, horizon=0.05))
        assert result.lel_p[0, 0] == pytest.approx(100.0, rel=1e-6)

    @pytest.mark.parametrize("shares", [(0.0, 0.9, 0.1), (0.9, 0.1, 0.0)])
    def test_zero_workload_or_aux_share_is_carried(self, shares):
        result = run_simulation(self.with_lel(shares=shares), [],
                                SimConfig(dt=0.01, horizon=0.05))
        assert result.lel_p[0, 0] == pytest.approx(100.0, rel=1e-6)


class TestCurrentInjection:
    def test_injection_reproduces_power(self, toy2_engine):
        eng = toy2_engine()
        params = eng.params[0]
        v = complex(0.98, 0.05)
        i = eng.pe_injection(np.array([v]))[0]
        s = v * i.conjugate() * eng.s_base
        p_aux, q_aux = aux_power(abs(v), params.aux)
        assert s.real == pytest.approx(workload_power(params.work.mu_eta, params.work) + p_aux)
        assert s.imag == pytest.approx(q_aux)

    def test_low_voltage_guard(self, toy2_engine):
        # below V_FLOOR the constant-power current becomes the admittance
        # at the floor: continuous at V_FLOOR, then linear in V
        eng = toy2_engine()
        u = np.exp(0.3j)
        above, at_floor, below, half = eng.pe_injection(
            np.array([1 + 1e-9, 1.0, 1 - 1e-9, 0.5]) * V_FLOOR * u)
        assert abs(above - below) < 1e-6 * abs(at_floor)
        assert abs(at_floor - above) < 1e-6 * abs(at_floor)
        assert half == pytest.approx(0.5 * at_floor, rel=1e-12)


def with_t_cool(case, t_cool):
    lel = case.lels[0]
    cool = replace(lel.params.cool, T_cool=t_cool)
    return case.with_lels((replace(lel, params=replace(lel.params, cool=cool)),))


def fresh_lel_power(eng, V, em, w0):
    """LEL power (MW + j Mvar) as recorded at V and em, for the step's
    constant-power term w0, evaluated from scratch."""
    live_w0, eng.w0 = eng.w0, w0
    Vl = V[eng.lbus]
    S = Vl * np.conj(eng.kappa * eng.lel_currents(Vl, em)) * eng.s_base
    eng.w0 = live_w0
    return S


class TestKeptEvaluation:
    """The step takes its start derivatives f0, and `record` its LEL
    powers, from the evaluation of the step's last residual.  Both must
    equal fresh evaluations at the same state, bit for bit, also across a
    network re-solve, a stall trip, a restart and the V_FLOOR guard."""

    @pytest.mark.parametrize("events, horizon, kinds", [
        # -4j: shed, stall trip at 0.45 s, fault cleared, restart 1 s later
        (fault_events(2, SAG_START, SAG_LENGTH, admittance=-4j), 2.0,
         ["fault_applied", "shed", "motor_stall_trip", "fault_cleared", "motor_restart"]),
        # an uncleared -100j fault holds the bus below V_FLOOR
        ([Event(time=SAG_START, kind="fault", bus=2, admittance=-100j)], 0.6,
         ["fault_applied", "shed", "motor_stall_trip"]),
    ], ids=["sag_trip_restart", "below_floor"])
    def test_f0_and_recorded_powers_equal_fresh_evaluations(self, monkeypatch, events,
                                                            horizon, kinds):
        case = with_t_cool(bundled_case("toy2"), 1.0)
        cfg = SimConfig(dt=0.005, horizon=horizon, seed=0)
        residual, solve_network = _Engine.residual, _Engine.solve_network
        evaluation = _Engine.evaluation
        first = []        # per step: (f0, fresh derivatives) at its first residual
        expected = []     # per recorded row but the last: a fresh LEL power
        resolved = []     # the voltages a network re-solve started from
        seen = {"w0": init_dynamics(case, power_flow(case)).w0.copy()}

        def spy_solve(self, V, delta, em):
            resolved.append(V.copy())
            return solve_network(self, V, delta, em)

        def spy_evaluation(self, z):
            # the last call before a step's first residual takes the
            # step's start derivatives f0 at its start state (after a
            # re-solve): the state of the previous row but for V
            seen["start"] = z.copy()
            return evaluation(self, z)

        def spy(self, z, x0, f0, dt):
            if seen.get("x0") is not x0:
                # the step's first residual
                seen["x0"] = x0
                start = seen["start"]
                _, em, V = self.unpack(start)[1:]
                # (this sets kept; the residual below sets it again)
                first.append((f0.copy(), self.derivatives(start)[0]))
                V_row = resolved.pop() if resolved else V
                expected.append(fresh_lel_power(self, V_row, em, seen["w0"]))
                seen["w0"] = self.w0.copy()
            seen["eng"], seen["z"] = self, z
            return residual(self, z, x0, f0, dt)

        monkeypatch.setattr(_Engine, "solve_network", spy_solve)
        monkeypatch.setattr(_Engine, "evaluation", spy_evaluation)
        monkeypatch.setattr(_Engine, "residual", spy)
        result = run_simulation(case, events, cfg)

        assert [e.kind for e in result.events] == kinds
        assert (result.v_mag.min() < V_FLOOR) == ("motor_restart" not in kinds)
        assert len(first) == len(result.time) - 1
        for f0, fresh in first:
            assert np.array_equal(f0, fresh)
        # the last row's state is the engine's and the last accepted z
        eng, z = seen["eng"], seen["z"]
        _, _, em, V = eng.unpack(z)
        expected.append(fresh_lel_power(eng, V, em, eng.w0))
        assert np.array_equal(result.lel_p, np.real(expected))
        assert np.array_equal(result.lel_q, np.imag(expected))


class TestVoltagePredictor:
    """Each step's first residual takes the bus voltages extrapolated
    linearly from the starts of the last two steps.  At the first step,
    and after a network re-solve, a stall trip or a restart, the last
    step is no base for a prediction, and it takes the step's start
    voltages."""

    def test_no_extrapolation_across_a_jump(self, monkeypatch):
        case = with_t_cool(bundled_case("toy2"), 1.0)
        cfg = SimConfig(dt=0.005, horizon=2.0, seed=0)
        evaluation, residual = _Engine.evaluation, _Engine.residual
        seen = {}
        starts, first = [], []      # per step: start V, its first residual's V

        def spy_evaluation(self, z):
            seen["start"] = self.unpack(z)[3].copy()
            return evaluation(self, z)

        def spy(self, z, x0, f0, dt):
            if seen.get("x0") is not x0:
                seen["x0"] = x0
                starts.append(seen["start"])
                first.append(self.unpack(z)[3].copy())
            return residual(self, z, x0, f0, dt)

        monkeypatch.setattr(_Engine, "evaluation", spy_evaluation)
        monkeypatch.setattr(_Engine, "residual", spy)
        result = run_simulation(case, fault_events(2, SAG_START, SAG_LENGTH, admittance=-4j),
                                cfg)

        assert [e.kind for e in result.events] == [
            "fault_applied", "shed", "motor_stall_trip", "fault_cleared", "motor_restart"]
        # a switching event re-solves at the step it starts; a trip or a
        # restart at the end of a step changes the start of the next
        held = {0} | {round(e.time / cfg.dt) for e in result.events if e.kind != "shed"}
        assert len(held) == 5 and len(starts) == len(result.time) - 1
        for step, (start, V) in enumerate(zip(starts, first)):
            if step in held:
                assert np.array_equal(V, start)
            else:
                assert np.array_equal(V, start + (start - starts[step - 1]))
                assert not np.array_equal(V, start)


def finite(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


def positive(hi):
    return finite(0.0, hi, exclude_min=True)


@st.composite
def protection_params(draw):
    """Valid protection parameters, 0 < kappa_min <= kappa_max <= 1."""
    kappa_min, kappa_max = sorted(draw(st.lists(positive(1.0), min_size=2, max_size=2)))
    return ProtectionParams(V_ref=draw(positive(2.0)), omega_ref=draw(positive(2.0)),
                            dV=draw(positive(1.0)), dOmega=draw(positive(1.0)),
                            t_delay_trip=draw(finite(0.0, 10.0)),
                            t_wait_recon=draw(finite(0.0, 100.0)),
                            t_delay_recon=draw(finite(0.0, 100.0)),
                            kappa_min=kappa_min, kappa_max=kappa_max,
                            r_kappa=draw(positive(10.0)))


@st.composite
def lel_bundles(draw):
    """Valid parameter bundles: every field inside its range, ZIP
    coefficients that sum to one."""
    p_base = draw(finite(0.0, 1e3))
    work = WorkloadParams(p_base=p_base, p_full=p_base + draw(finite(0.0, 1e3)),
                          tau_eta=draw(positive(1e4)), mu_eta=draw(finite(0.0, 1.0)),
                          sigma_xi=draw(finite(0.0, 10.0)),
                          lambda_burst=draw(finite(0.0, 1.0)),
                          lnA_mu=draw(finite(-5.0, 5.0)), lnA_sigma=draw(finite(0.0, 5.0)))
    cool = CoolingParams(**{name: draw(positive(10.0))
                            for name in ("R_s", "X_s", "X_m", "R_r", "X_r", "H_m")},
                         V_stall=draw(finite(0.0, 1.0, exclude_min=True, exclude_max=True)),
                         tau_stall=draw(finite(0.0, 10.0)), T_cool=draw(finite(0.0, 100.0)),
                         mva_base=draw(positive(1e3)), load_factor=draw(positive(1.0)))
    alpha_z, alpha_i = draw(finite(-2.0, 2.0)), draw(finite(-2.0, 2.0))
    aux = AuxParams(p_aux0=draw(finite(0.0, 100.0)), alpha_Z=alpha_z, alpha_I=alpha_i,
                    alpha_P=1.0 - alpha_z - alpha_i, beta_aux=draw(finite(-1.0, 1.0)),
                    V0=draw(positive(2.0)))
    return LelParams(work=work, cool=cool, aux=aux, prot=draw(protection_params()),
                     archetype=draw(st.sampled_from(Archetype)))


class TestParameterExchange:
    @pytest.mark.parametrize("arch", list(Archetype))
    def test_round_trip(self, arch):
        params = archetype_defaults(arch)
        assert parse_lel_params(dump_lel_params(params)) == params

    @settings(deadline=None)
    @given(params=lel_bundles())
    def test_round_trip_of_random_bundles(self, params):
        assert parse_lel_params(dump_lel_params(params)) == params

    @settings(deadline=None)
    @given(prot=protection_params())
    def test_disclosure_round_trip_of_random_protection(self, prot):
        assert load_protection_disclosure(dump_protection_disclosure(prot)) == prot

    def test_missing_key_rejected(self):
        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        trimmed = "\n".join(line for line in doc.splitlines()
                            if not line.startswith("work.mu_eta"))
        with pytest.raises(InvalidArgument):
            parse_lel_params(trimmed)

    def test_wrong_schema_version_rejected(self):
        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        doc = doc.replace("schema_version = 1", "schema_version = 99")
        with pytest.raises(InvalidArgument):
            parse_lel_params(doc)

    @pytest.mark.parametrize("key,bad", [("schema_version", "one"), ("work.p_base", "twenty")])
    def test_non_numeric_value_rejected_naming_the_key(self, key, bad):
        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        lines = [f"{key} = {bad}" if line.startswith(key + " ") else line
                 for line in doc.splitlines()]
        with pytest.raises(InvalidArgument, match=f"^{key}: "):
            parse_lel_params("\n".join(lines))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("key", [
        line.split(" = ")[0]
        for line in dump_lel_params(archetype_defaults(Archetype.DATACENTER)).splitlines()
        if "." in line.split(" = ")[0]])
    def test_non_finite_value_rejected(self, key, bad):
        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        lines = [f"{key} = {bad}" if line.startswith(key + " ") else line
                 for line in doc.splitlines()]
        with pytest.raises(InvalidArgument, match="must be finite"):
            parse_lel_params("\n".join(lines))

    # the datacenter dump without the lines that start with `dropped`,
    # then `appended`
    @pytest.mark.parametrize("dropped,appended,message", [
        ("schema_version", "", "parameter-exchange file missing schema_version"),
        ("archetype", "", "parameter-exchange file missing archetype"),
        (None, "work.mu_eta = 0.9", "key 'work.mu_eta' repeats line 6"),
        (None, "work.bogus = 3", "parameter-exchange file has unknown key(s) work.bogus"),
    ], ids=["no_schema_version", "no_archetype", "repeated_key", "unknown_key"])
    def test_malformed_exchange_file_rejected(self, dropped, appended, message):
        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        lines = [line for line in doc.splitlines()
                 if dropped is None or not line.startswith(dropped)]
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            parse_lel_params("\n".join(lines + [appended]))

    def test_unknown_archetype_rejected(self):
        doc = dump_lel_params(archetype_defaults(Archetype.DATACENTER))
        doc = doc.replace("archetype = datacenter", "archetype = widget")
        with pytest.raises(InvalidArgument):
            parse_lel_params(doc)


_PRESETS = [archetype_defaults(a) for a in Archetype]
_DT = finite(1e-3, 0.5)


def preset_or_drawn(*names):
    """A delay (s): one of the presets' values of the named fields, or
    any in [0, 5]."""
    values = sorted({getattr(block, name) for p in _PRESETS
                     for block in (p.prot, p.cool) for name in names
                     if hasattr(block, name)})
    return st.one_of(st.sampled_from(values), finite(0.0, 5.0))


def steps_for(delay, dt):
    """N: the whole steps of dt that a delay takes, at least one."""
    return max(1, math.ceil(delay / dt - 1e-6))


def steps_until(transition, state, done, limit):
    """Apply transition to state until done(state), up to limit times;
    returns (the number of steps taken, the state)."""
    for n in range(1, limit + 1):
        state = transition(state)
        if done(state):
            break
    return n, state


class TestTimerInvariants:
    """Each timer of the per-LEL machines counts a delay off in N or N+1
    steps of any dt: N where the float sum of dt reaches the delay, N+1
    where it rounds low (2.0 s at dt = 5 ms takes 401 steps)."""

    @settings(max_examples=100, deadline=None)
    @given(delay=preset_or_drawn("t_delay_trip"), dt=_DT)
    @example(delay=2.0, dt=0.005)
    def test_out_of_band_sheds_after_the_trip_delay(self, delay, dt):
        params = replace(_PRESETS[0].prot, t_delay_trip=delay)
        N = steps_for(delay, dt)
        n, state = steps_until(lambda s: protection_transition(*s, False, dt, params),
                               astuple(ProtectionState()),
                               lambda s: s[0] is ProtectionMode.SHED, N + 1)
        assert state[0] is ProtectionMode.SHED and N <= n
        assert state[1] == params.kappa_min

    @settings(max_examples=100, deadline=None)
    @given(wait=preset_or_drawn("t_wait_recon", "t_delay_recon"),
           since=preset_or_drawn("t_wait_recon", "t_delay_recon"), dt=_DT)
    @example(wait=4.0, since=2.0, dt=0.005)
    def test_in_band_after_a_trip_ramps_after_both_recovery_delays(self, wait, since, dt):
        params = replace(_PRESETS[0].prot, t_delay_trip=0.0, t_wait_recon=wait,
                         t_delay_recon=since)
        tripped = protection_transition(*astuple(ProtectionState()), False, dt, params)
        assert tripped[0] is ProtectionMode.SHED
        N = steps_for(max(wait, since), dt)
        n, state = steps_until(lambda s: protection_transition(*s, True, dt, params),
                               tripped, lambda s: s[0] is ProtectionMode.RAMPING, N + 1)
        assert state[0] is ProtectionMode.RAMPING and N <= n

    @settings(max_examples=50, deadline=None)
    @given(params=protection_params(), dt=_DT,
           runs=st.lists(st.tuples(st.booleans(), st.integers(1, 300)), max_size=12))
    def test_kappa_stays_between_kappa_min_and_the_full_target(self, params, dt, runs):
        """1 until the first trip, then within [kappa_min, kappa_full]."""
        state = astuple(ProtectionState())
        tripped = False
        for ok, length in runs:
            for _ in range(length):
                state = protection_transition(*state, ok, dt, params)
                tripped |= state[0] is ProtectionMode.SHED
                if tripped:
                    assert params.kappa_min <= state[1] <= params.kappa_full
                else:
                    assert state[1] == 1.0

    @settings(max_examples=50, deadline=None)
    @given(params=protection_params(), tau=preset_or_drawn("tau_stall"),
           t_cool=preset_or_drawn("T_cool"), dt=_DT,
           runs=st.lists(st.tuples(st.booleans(), st.sampled_from([1.0, 0.4, 0.0]),
                                   st.integers(1, 300)), max_size=12))
    @example(params=_PRESETS[0].prot, tau=0.5, t_cool=1.0, dt=0.05,
             runs=[(False, 0.4, 100), (True, 1.0, 300), (False, 0.0, 100),
                   (True, 1.0, 300)])
    def test_each_timer_is_zero_outside_the_modes_that_read_it(self, params, tau, t_cool,
                                                               dt, runs):
        """In every state each machine reaches from its reset state: the
        violation timer is 0 outside VIOLATION_TIMING, the dwell and
        since-trip timers outside SHED and RECOVERY_WAIT, the stall timer
        while tripped and the recovery timer while running.  Each run is
        (in band, |v| in pu, steps); 0.4 pu is below V_stall."""
        P = ProtectionMode
        cool = replace(_PRESETS[0].cool, tau_stall=tau, T_cool=t_cool)
        t_mech = motor_init(cool.load_factor, 1.0, cool).t_mech
        prot, motor = astuple(ProtectionState()), (True, 0.0, 0.0)
        for ok, v, length in runs:
            for _ in range(length):
                prot = protection_transition(*prot, ok, dt, params)
                if prot[0] is not P.VIOLATION_TIMING:
                    assert prot[2] == 0.0
                if prot[0] not in (P.SHED, P.RECOVERY_WAIT):
                    assert prot[3] == prot[4] == 0.0
                motor = stall_transition(*motor, t_mech, v, dt, cool)[:3]
                assert motor[2 if motor[0] else 1] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(delay=preset_or_drawn("tau_stall"), dt=_DT)
    @example(delay=2.0, dt=0.005)
    def test_undervoltage_trips_the_motor_after_tau_stall(self, delay, dt):
        cool = replace(_PRESETS[0].cool, tau_stall=delay)
        t_mech = motor_init(cool.load_factor, 1.0, cool).t_mech
        low = 0.5 * cool.V_stall
        N = steps_for(delay, dt)
        n, state = steps_until(
            lambda s: stall_transition(*s[:3], t_mech, low, dt, cool),
            (True, 0.0, 0.0, None), lambda s: not s[0], N + 1)
        assert not state[0] and N <= n
        assert state[2] == cool.T_cool

    @settings(max_examples=100, deadline=None)
    @given(delay=preset_or_drawn("T_cool"), dt=_DT)
    @example(delay=4.0, dt=0.005)
    def test_tripped_motor_restarts_after_t_cool(self, delay, dt):
        cool = replace(_PRESETS[0].cool, T_cool=delay)
        t_mech = motor_init(cool.load_factor, 1.0, cool).t_mech
        N = steps_for(delay, dt)
        # the state a stall trip leaves; at 1 pu the first attempt succeeds
        n, state = steps_until(
            lambda s: stall_transition(*s[:3], t_mech, 1.0, dt, cool),
            (False, 0.0, cool.T_cool, None), lambda s: s[0], N + 1)
        assert state[0] and state[3] is not None and N <= n
