"""Unit tests for the induction-motor cooling block and ZIP auxiliaries.

Motor equilibria are checked through the grid engine's motor model, the
one that integrates the motor in every simulation, and against the
steady-state torque and power curves written out from the motor
equations.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelsim.errors import InvalidArgument, NoEquilibrium
from lelsim.thermal_aux import (
    OMEGA_SYNC,
    AuxParams,
    CoolingParams,
    MotorMode,
    _equilibrium,
    aux_power,
    init_for_torque,
    motor_init,
    stall_update,
)


def make_cooling(**overrides):
    base = dict(R_s=0.01, X_s=0.1, X_m=3.0, R_r=0.02, X_r=0.1, H_m=0.5,
                V_stall=0.55, tau_stall=0.05, T_cool=4.0,
                mva_base=10.0, load_factor=0.8)
    base.update(overrides)
    return CoolingParams(**base)


def make_aux(**overrides):
    base = dict(p_aux0=1.0, alpha_Z=0.4, alpha_I=0.3, alpha_P=0.3,
                beta_aux=0.3)
    base.update(overrides)
    return AuxParams(**base)


def engine_motor(toy2_engine, params, motor, v=1.0):
    """(derivatives, p, q) of `motor` under the grid engine's motor model
    at terminal phasor v; p and q are pu on the motor base."""
    eng = toy2_engine(cool=params)
    eng.tmech[0] = motor.t_mech
    em = np.empty(3)
    slip, e = eng.motor_states(em)
    slip[0], e[0] = motor.slip, complex(motor.ed_p, motor.eq_p)
    f, i = eng.motor_f(em, np.array([v], dtype=complex))
    s = v * np.conj(i[0])
    return f, s.real, s.imag


def curve(slip, v, params, power):
    """Steady-state torque (or power) at a given slip, from de'/dt = 0
    and the stator relation, evaluated directly."""
    a = 1j * (params.x_open - params.x_trans) / (
        1 + 1j * OMEGA_SYNC * slip * params.t0_prime)
    i = v / (complex(params.R_s, params.x_trans) + a)
    return (v * np.conj(i)).real if power else (a * i * np.conj(i)).real


def pull_out(v, params, power):
    """Largest value of the curve over slip in [0, 1] on a fine grid; it
    lies at or below the true pull-out value."""
    return float(np.max(curve(np.linspace(0.0, 1.0, 20001), v, params, power)))


cooling_params = st.builds(
    make_cooling,
    R_s=st.floats(0.002, 0.08), X_s=st.floats(0.03, 0.25),
    X_m=st.floats(1.5, 5.0), R_r=st.floats(0.005, 0.08),
    X_r=st.floats(0.03, 0.25))


class TestCoolingValidation:
    def test_rejects_nonpositive_inertia(self):
        with pytest.raises(InvalidArgument):
            make_cooling(H_m=0.0)

    def test_rejects_bad_load_factor(self):
        with pytest.raises(InvalidArgument):
            make_cooling(load_factor=1.5)

    def test_rejects_nonpositive_base(self):
        with pytest.raises(InvalidArgument):
            make_cooling(mva_base=-1.0)

    def test_rejects_stall_voltage_outside_unit_interval(self):
        with pytest.raises(InvalidArgument):
            make_cooling(V_stall=1.2)


class TestMotorEquilibrium:
    def test_init_zeroes_derivatives(self, toy2_engine):
        params = make_cooling()
        d, _, _ = engine_motor(toy2_engine, params, motor_init(0.7, 1.0, params))
        assert np.max(np.abs(d)) < 1e-7

    def test_init_matches_target_power(self, toy2_engine):
        params = make_cooling()
        _, p, _ = engine_motor(toy2_engine, params, motor_init(0.6, 1.0, params))
        assert p == pytest.approx(0.6, rel=1e-6)

    def test_equilibrium_slip_positive_and_small(self):
        motor = motor_init(0.5, 1.0, make_cooling())
        assert 0.0 < motor.slip < 0.1

    def test_power_above_pullout_raises(self):
        with pytest.raises(NoEquilibrium):
            motor_init(50.0, 1.0, make_cooling())

    def test_torque_above_pullout_raises(self):
        with pytest.raises(NoEquilibrium):
            init_for_torque(50.0, 1.0, make_cooling())

    def test_lower_voltage_needs_higher_slip(self):
        params = make_cooling()
        s_hi = init_for_torque(0.6, 1.0, params).slip
        s_lo = init_for_torque(0.6, 0.9, params).slip
        assert s_lo > s_hi

    def test_motor_absorbs_reactive_power(self, toy2_engine):
        params = make_cooling()
        _, _, q = engine_motor(toy2_engine, params, motor_init(0.6, 1.0, params))
        assert q > 0.0


class TestClosedFormEquilibrium:
    @settings(max_examples=150, deadline=None)
    @given(params=cooling_params, v_mag=st.floats(0.3, 1.2),
           angle=st.floats(-math.pi, math.pi), frac=st.floats(0.02, 0.95),
           power=st.booleans())
    def test_root_meets_target_on_stable_branch(self, params, v_mag, angle, frac,
                                                power):
        v = v_mag * np.exp(1j * angle)
        low = curve(0.0, v, params, power)
        target = low + frac * (pull_out(v, params, power) - low)
        slip, _, _ = _equilibrium(target, v, params, power)
        slip = float(slip)
        assert curve(slip, v, params, power) == pytest.approx(target, rel=1e-10)
        h = 1e-6 * max(slip, 1e-6)
        assert curve(slip + h, v, params, power) > curve(max(slip - h, 0.0), v,
                                                          params, power)

    @settings(max_examples=50, deadline=None)
    @given(params=cooling_params,
           v_mag=st.lists(st.floats(0.3, 1.2), min_size=1, max_size=12),
           frac=st.floats(0.02, 0.95))
    def test_vectorized_call_equals_scalar_calls(self, params, v_mag, frac):
        v = np.array(v_mag)
        t_mech = frac * pull_out(0.3, params, power=False)
        slip, e, i = _equilibrium(t_mech, v, params, power=False)
        for k, vk in enumerate(v):
            s_k, e_k, i_k = _equilibrium(t_mech, vk, params, power=False)
            assert slip[k] == pytest.approx(float(s_k), rel=1e-14, abs=0.0)
            assert e[k] == pytest.approx(complex(e_k), rel=1e-14, abs=0.0)
            assert i[k] == pytest.approx(complex(i_k), rel=1e-14, abs=0.0)

    def test_equilibrium_follows_the_terminal_phasor_frame(self, toy2_engine):
        params = make_cooling()
        real = motor_init(0.6, 0.95, params)
        v = 0.95 * np.exp(0.7j)
        turned = motor_init(0.6, v, params)
        assert complex(turned.ed_p, turned.eq_p) == pytest.approx(
            complex(real.ed_p, real.eq_p) * np.exp(0.7j), rel=1e-12)
        d, p, _ = engine_motor(toy2_engine, params, turned, v)
        assert np.max(np.abs(d)) < 1e-7
        assert p == pytest.approx(0.6, rel=1e-9)

    def test_target_just_above_pull_out_raises(self):
        params = make_cooling()
        with pytest.raises(NoEquilibrium, match="above pull-out"):
            init_for_torque(1.001 * pull_out(1.0, params, power=False), 1.0, params)

    def test_target_reachable_only_above_unit_slip_raises(self):
        params = make_cooling(R_r=0.6)  # the torque still rises past s = 1
        at_standstill = curve(1.0, 1.0, params, power=False)
        assert curve(2.0, 1.0, params, power=False) > 1.1 * at_standstill
        with pytest.raises(NoEquilibrium, match="above pull-out"):
            init_for_torque(1.05 * at_standstill, 1.0, params)

    def test_zero_torque_gives_zero_slip(self):
        params = make_cooling()
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            motor = init_for_torque(0.0, 1.0, params)
        assert motor.slip == 0.0

    def test_power_below_no_load_raises(self):
        params = make_cooling()
        no_load = curve(0.0, 1.0, params, power=True)
        with pytest.raises(NoEquilibrium, match="below its zero-slip value"):
            motor_init(0.5 * no_load, 1.0, params)

    def test_zero_voltage_has_no_torque_equilibrium(self):
        with pytest.raises(NoEquilibrium):
            init_for_torque(0.6, 0.0, make_cooling())


class TestStall:
    def test_sustained_low_voltage_trips(self):
        params = make_cooling()
        motor = motor_init(0.6, 1.0, params)
        for _ in range(int(params.tau_stall / 0.01) + 2):
            motor = stall_update(motor, 0.4, 0.01, params)
        assert motor.mode is MotorMode.STALL_TRIPPED

    def test_brief_dip_resets_timer(self):
        params = make_cooling()
        motor = motor_init(0.6, 1.0, params)
        motor = stall_update(motor, 0.4, params.tau_stall * 0.5, params)
        assert motor.stall_timer > 0.0
        motor = stall_update(motor, 1.0, 0.01, params)
        assert motor.mode is MotorMode.RUNNING
        assert motor.stall_timer == 0.0

    def test_restart_after_cooldown_restores_equilibrium(self, toy2_engine):
        params = make_cooling(T_cool=0.1)
        motor = motor_init(0.6, 1.0, params)
        t_mech = motor.t_mech
        for _ in range(int(params.tau_stall / 0.01) + 2):
            motor = stall_update(motor, 0.4, 0.01, params)
        assert motor.mode is MotorMode.STALL_TRIPPED
        for _ in range(int(params.T_cool / 0.01) + 2):
            motor = stall_update(motor, 1.0, 0.01, params)
        assert motor.mode is MotorMode.RUNNING
        assert motor.t_mech == pytest.approx(t_mech)
        d, _, _ = engine_motor(toy2_engine, params, motor)
        assert np.max(np.abs(d)) < 1e-7

    def test_no_restart_while_voltage_depressed(self):
        params = make_cooling(T_cool=0.05)
        motor = motor_init(0.9, 1.0, params)
        for _ in range(int(params.tau_stall / 0.01) + 2):
            motor = stall_update(motor, 0.4, 0.01, params)
        # cooldown expires but 0.4 pu cannot carry the pinned torque
        for _ in range(50):
            motor = stall_update(motor, 0.4, 0.01, params)
        assert motor.mode is MotorMode.STALL_TRIPPED

    def test_restart_at_zero_voltage_is_retried(self):
        params = make_cooling(T_cool=0.02)
        motor = motor_init(0.6, 1.0, params)
        for _ in range(int(params.tau_stall / 0.01) + 2):
            motor = stall_update(motor, 0.0, 0.01, params)
        for _ in range(5):
            motor = stall_update(motor, 0.0, 0.01, params)
        assert motor.mode is MotorMode.STALL_TRIPPED
        assert motor.recovery_timer == 0.01
        motor = stall_update(motor, 1.0, 0.01, params)
        assert motor.mode is MotorMode.RUNNING

    def test_restart_lands_in_the_frame_of_the_bus(self, toy2_engine):
        params = make_cooling(T_cool=0.05)
        v = 1.0 * np.exp(-0.5j)
        motor = motor_init(0.6, v, params)
        for _ in range(int(params.tau_stall / 0.01) + 2):
            motor = stall_update(motor, 0.4 * v, 0.01, params)
        for _ in range(int(params.T_cool / 0.01) + 2):
            motor = stall_update(motor, v, 0.01, params)
        assert motor.mode is MotorMode.RUNNING
        d, _, _ = engine_motor(toy2_engine, params, motor, v)
        assert np.max(np.abs(d)) < 1e-7

    def test_rejects_nonpositive_dt(self):
        params = make_cooling()
        motor = motor_init(0.6, 1.0, params)
        with pytest.raises(InvalidArgument):
            stall_update(motor, 1.0, 0.0, params)


class TestAux:
    def test_zip_fractions_must_sum_to_one(self):
        with pytest.raises(InvalidArgument):
            make_aux(alpha_Z=0.9)

    def test_nominal_voltage_returns_nominal_power(self):
        p, q = aux_power(1.0, make_aux())
        assert p == pytest.approx(1.0)
        assert q == pytest.approx(0.3)

    def test_pure_impedance_scales_quadratically(self):
        params = make_aux(alpha_Z=1.0, alpha_I=0.0, alpha_P=0.0)
        p, q = aux_power(0.5, params)
        assert p == pytest.approx(0.25)
        assert q == pytest.approx(0.3 * 0.25)

    def test_pure_constant_power_voltage_independent(self):
        params = make_aux(alpha_Z=0.0, alpha_I=0.0, alpha_P=1.0)
        for v in (0.7, 0.9, 1.1):
            p, q = aux_power(v, params)
            assert p == pytest.approx(1.0)
            assert q == pytest.approx(0.3)

    def test_rejects_negative_voltage(self):
        with pytest.raises(InvalidArgument):
            aux_power(-0.1, make_aux())
