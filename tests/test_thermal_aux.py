"""Unit tests for the induction-motor cooling block and ZIP auxiliaries.

Motor equilibria are checked through the grid engine's motor model, the
one that integrates the motor in every simulation.
"""

import numpy as np
import pytest

from lelsim.errors import InvalidArgument, NoEquilibrium
from lelsim.thermal_aux import (
    AuxParams,
    CoolingParams,
    MotorMode,
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
    at a real terminal voltage v; p and q are pu on the motor base."""
    eng = toy2_engine(cool=params, motor=motor)
    f, i = eng.motor_f(eng._em_array(), np.array([complex(v, 0.0)]))
    s = v * np.conj(i[0])
    return f[:, 0], s.real, s.imag


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
