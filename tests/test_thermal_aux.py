"""Unit tests for the induction-motor cooling block and ZIP auxiliaries.

Motor equilibria are checked through the grid engine's motor model, the
one that integrates the motor in every simulation, against the
steady-state torque and power curves written out from the motor
equations, and against a reference solver that finds every root of the
equilibrium quartic as a companion-matrix eigenvalue.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from lelsim import thermal_aux
from lelsim.errors import InvalidArgument, NoEquilibrium
from lelsim.thermal_aux import (
    OMEGA_SYNC,
    AuxParams,
    CoolingParams,
    _equilibrium,
    aux_power,
    init_for_torque,
    motor_init,
    stall_transition,
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


def exact_pull_out(v, params, power):
    """Largest value of the curve over slip in [0, 1]: the grid's maximum
    refined by a bounded scalar search between its neighbours."""
    s = np.linspace(0.0, 1.0, 20001)
    y = curve(s, v, params, power)
    k = int(np.argmax(y))
    best = minimize_scalar(lambda x: -curve(x, v, params, power),
                           bounds=(s[max(k - 1, 0)], s[min(k + 1, len(s) - 1)]),
                           method="bounded")
    return max(float(y[k]), -float(best.fun))


def companion_equilibrium(target, v, params, power):
    """Reference solver: every root of the equilibrium quartic in y = 1/b
    as an eigenvalue of its companion matrix (one LAPACK geev per
    sample).  The stable root is the largest real y with slip <= 1; the
    quartic's leading coefficient in y, its value at b = 0, is positive
    exactly when the target lies above the zero-slip value."""
    target, v = np.broadcast_arrays(np.asarray(target, dtype=float),
                                    np.asarray(v, dtype=complex))
    r, xp, x0 = params.R_s, params.x_trans, params.x_open
    c = x0 - xp
    d = np.array([r * r + x0 * x0, 2 * r * c, c * c + 2 * r * r + 2 * xp * x0,
                  2 * r * c, r * r + xp * xp])
    num = np.array([r, c, 2 * r, c, r]) if power else np.array([0.0, c, 0.0, c, 0.0])
    # |v|^2 as _equilibrium forms it, so both solve the same quartic
    coef = target[..., None] * d - np.square(np.abs(v))[..., None] * num
    lead = coef[..., 0]
    comp = np.zeros(target.shape + (4, 4))
    comp[..., 0, :] = -coef[..., 1:] / np.where(lead > 0, lead, 1.0)[..., None]
    comp[..., [1, 2, 3], [0, 1, 2]] = 1.0
    y = np.linalg.eigvals(comp)
    wt0 = OMEGA_SYNC * params.t0_prime
    # eigvals of a real matrix gives its real eigenvalues a zero imaginary part
    y_stable = np.where((y.imag == 0) & (y.real * wt0 >= 1), y.real, 0.0).max(axis=-1)
    missing = (lead < 0) | ((lead > 0) & (y_stable == 0))
    if missing.any():
        k = np.flatnonzero(missing)[0]
        side = "below its zero-slip value" if lead.flat[k] < 0 else "above pull-out"
        raise NoEquilibrium(f"{'power' if power else 'torque'} {target.flat[k]:.4f} pu "
                            f"{side} at |V|={abs(v.flat[k]):.3f} pu")
    b = np.divide(1.0, y_stable, out=np.zeros(lead.shape), where=lead > 0)
    a = 1j * c / (1 + 1j * b)
    i = v / (complex(r, xp) + a)
    return b / wt0, a * i, i


def solved(solver, target, v, params, power):
    """The solver's (slip, e', i), or its NoEquilibrium message."""
    try:
        return solver(target, v, params, power)
    except NoEquilibrium as exc:
        return str(exc)


def assert_agrees_with_companion(target, v, params, power, pull=None):
    """The Newton solve and the reference give the same NoEquilibrium
    message (decision and side), or slip, e' and i within 1e-12 relative.
    With `pull`, the pull-out value, a target near it gets the looser
    bound and the allowance that TestCompanionOracle documents."""
    dist = math.inf if pull is None else abs(target / pull - 1.0)
    got = solved(_equilibrium, target, v, params, power)
    try:
        with np.errstate(over="ignore"):
            ref = solved(companion_equilibrium, target, v, params, power)
    except np.linalg.LinAlgError:
        # the companion matrix divides by q(0), which overflows when q(0)
        # is subnormal: the target, and with it the slip, is then within
        # about 1e-308 of zero slip
        assert 0.0 <= np.max(got[0]) < 1e-300
        return
    if isinstance(ref, str) or isinstance(got, str):
        # the message carries the decision and its side
        assert got == ref or dist <= 1e-9
        return
    rel = max(1e-12, 1e-14 / math.sqrt(max(dist, 1e-30)))
    for x, y in zip(got, ref):
        assert x == pytest.approx(y, rel=rel, abs=0.0)


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
            # each element stops on its own convergence test; numpy's
            # complex loops round e' and i differently on arrays and scalars
            assert slip[k] == s_k
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
        # zero power is a valid target, and below the no-load power too
        for target in (0.5 * no_load, 0.0):
            with pytest.raises(NoEquilibrium, match="below its zero-slip value"):
                motor_init(target, 1.0, params)

    def test_zero_voltage_has_no_torque_equilibrium(self):
        with pytest.raises(NoEquilibrium):
            init_for_torque(0.6, 0.0, make_cooling())

    def test_non_finite_torque_is_rejected(self):
        with pytest.raises(InvalidArgument, match="target nan"):
            init_for_torque(math.nan, 1.0, make_cooling())

    def test_non_finite_voltage_is_rejected(self):
        with pytest.raises(InvalidArgument, match="voltage"):
            motor_init(0.6, math.inf, make_cooling())

    @pytest.mark.parametrize("power", [False, True])
    @pytest.mark.parametrize("target", [0.3, 0.8])
    def test_a_ride_converges_within_eight_steps(self, monkeypatch, target, power):
        # the start at the linearisation and the Newton steps reach the
        # root in three to six steps; bisection would need about 60
        v = np.linspace(0.85, 1.05, 600) * np.exp(0.3j)
        params = make_cooling()
        slip, _, _ = _equilibrium(target, v, params, power)
        monkeypatch.setattr(thermal_aux, "_RTSAFE_ITER", 8)
        fast, _, _ = _equilibrium(target, v, params, power)
        assert np.allclose(fast, slip, rtol=1e-12, atol=0)

    def test_non_finite_ride_sample_is_named(self):
        v = np.linspace(0.9, 1.0, 8)
        v[5] = math.nan
        with pytest.raises(InvalidArgument, match="at sample 5"):
            _equilibrium(0.6, v, make_cooling(), power=False)


class TestCompanionOracle:
    """The Newton solve against the companion-matrix eigenvalues: the same
    slip, e' and i to 1e-12 relative, and the same NoEquilibrium decision
    and side.

    Near pull-out the two smallest roots merge into a double root, whose
    position rounding moves by about 1e-16 / sqrt(d) relative at a target
    d (relative) below pull-out.  There the bound widens to
    1e-14 / sqrt(d) once that exceeds 1e-12, i.e. within 1e-4 of
    pull-out.  Against 60-digit roots of the same quartic, 3,000 targets
    1e-12 to 1e-7 below pull-out put the Newton root within 5e-11 and the
    eigenvalue root within 8e-10 (median 5e-13 against 5e-12).  Within
    1e-9 of pull-out the decision may differ as well: the eigensolver can
    return the near-double root as a complex pair while the bracket still
    sees a sign change at the pull-out slip.  No such draw was seen in
    20,000 random ones."""

    @settings(max_examples=300, deadline=None)
    @given(params=cooling_params, v_mag=st.floats(0.3, 1.2),
           angle=st.floats(-math.pi, math.pi), frac=st.floats(-0.5, 1.5),
           power=st.booleans())
    # at the zero-slip target the quartic's constant term is one rounding
    # unit, so |v|^2 formed two ways gave two different quartics
    @example(params=make_cooling(R_s=0.0625, X_s=0.25, X_m=2.0, R_r=0.0625, X_r=0.25),
             v_mag=0.9005672308748038, angle=1.0, frac=0.0, power=True)
    def test_agrees_from_below_zero_slip_to_above_pull_out(self, params, v_mag, angle,
                                                           frac, power):
        v = v_mag * np.exp(1j * angle)
        low = curve(0.0, v, params, power)
        high = exact_pull_out(v, params, power)
        assert_agrees_with_companion(low + frac * (high - low), v, params, power, high)

    @pytest.mark.parametrize("power", [False, True])
    @pytest.mark.parametrize("share", [0.5, 0.95, 0.999, 1.001, 1.05])
    def test_unit_slip_cap(self, power, share):
        # the curves still rise at s = 1, so pull-out is the standstill value
        params = make_cooling(R_r=0.6)
        standstill = curve(1.0, 1.0, params, power)
        assert_agrees_with_companion(share * standstill, 1.0, params, power, standstill)

    def test_zero_torque_along_a_ride(self):
        assert_agrees_with_companion(0.0, np.linspace(0.0, 1.2, 7), make_cooling(),
                                     power=False)

    def test_ride_with_mixed_outcomes_per_sample(self):
        params = make_cooling()
        v = np.linspace(0.5, 1.2, 50)
        assert_agrees_with_companion(0.4 * pull_out(0.5, params, False), v, params,
                                     power=False)


class TestStall:
    def test_sustained_low_voltage_trips(self):
        params = make_cooling()
        motor = motor_init(0.6, 1.0, params)
        for _ in range(int(params.tau_stall / 0.01) + 2):
            motor = stall_update(motor, 0.4, 0.01, params)
        assert not motor.running

    def test_brief_dip_resets_timer(self):
        params = make_cooling()
        motor = motor_init(0.6, 1.0, params)
        motor = stall_update(motor, 0.4, params.tau_stall * 0.5, params)
        assert motor.stall_timer > 0.0
        motor = stall_update(motor, 1.0, 0.01, params)
        assert motor.running
        assert motor.stall_timer == 0.0

    def test_restart_after_cooldown_restores_equilibrium(self, toy2_engine):
        params = make_cooling(T_cool=0.1)
        motor = motor_init(0.6, 1.0, params)
        t_mech = motor.t_mech
        for _ in range(int(params.tau_stall / 0.01) + 2):
            motor = stall_update(motor, 0.4, 0.01, params)
        assert not motor.running
        for _ in range(int(params.T_cool / 0.01) + 2):
            motor = stall_update(motor, 1.0, 0.01, params)
        assert motor.running
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
        assert not motor.running

    def test_restart_at_zero_voltage_is_retried(self):
        params = make_cooling(T_cool=0.02)
        motor = motor_init(0.6, 1.0, params)
        for _ in range(int(params.tau_stall / 0.01) + 2):
            motor = stall_update(motor, 0.0, 0.01, params)
        for _ in range(5):
            motor = stall_update(motor, 0.0, 0.01, params)
        assert not motor.running
        assert motor.recovery_timer == 0.01
        motor = stall_update(motor, 1.0, 0.01, params)
        assert motor.running

    def test_restart_lands_in_the_frame_of_the_bus(self, toy2_engine):
        params = make_cooling(T_cool=0.05)
        v = 1.0 * np.exp(-0.5j)
        motor = motor_init(0.6, v, params)
        for _ in range(int(params.tau_stall / 0.01) + 2):
            motor = stall_update(motor, 0.4 * v, 0.01, params)
        for _ in range(int(params.T_cool / 0.01) + 2):
            motor = stall_update(motor, v, 0.01, params)
        assert motor.running
        d, _, _ = engine_motor(toy2_engine, params, motor, v)
        assert np.max(np.abs(d)) < 1e-7

    def test_rejects_nonpositive_dt(self):
        params = make_cooling()
        motor = motor_init(0.6, 1.0, params)
        with pytest.raises(InvalidArgument):
            stall_update(motor, 1.0, 0.0, params)

    def test_no_timing_at_exactly_the_stall_voltage(self):
        params = make_cooling()
        t_mech = motor_init(0.6, 1.0, params).t_mech
        for stall_timer in (0.0, 0.03125):
            assert stall_transition(True, stall_timer, 0.0, t_mech, params.V_stall,
                                    1 / 64, params) == (True, 0.0, 0.0, None)

    def test_trips_and_restarts_on_the_steps_that_end_each_delay(self):
        # sums of dt = 1/64 are exact, so each delay ends on a whole step
        params = make_cooling(tau_stall=0.25, T_cool=0.125)
        t_mech = motor_init(0.6, 1.0, params).t_mech
        state, running = (True, 0.0, 0.0), []
        for v in [0.4] * 16 + [1.0] * 8:
            *state, fresh = stall_transition(*state, t_mech, v, 1 / 64, params)
            running.append(state[0])
        # tripped on the 16th step under V_stall, restarted 8 steps later
        assert running == [True] * 15 + [False] * 8 + [True]
        assert state == [True, 0.0, 0.0] and fresh is not None


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
        # the ratio to the reference voltage V0 is what counts
        p, q = aux_power(1.0, replace(params, V0=2.0))
        assert p == pytest.approx(0.25)

    def test_pure_constant_power_voltage_independent(self):
        params = make_aux(alpha_Z=0.0, alpha_I=0.0, alpha_P=1.0)
        for v in (0.7, 0.9, 1.1):
            p, q = aux_power(v, params)
            assert p == pytest.approx(1.0)
            assert q == pytest.approx(0.3)

    def test_zero_voltage_leaves_the_constant_power_part(self):
        p, q = aux_power(0.0, make_aux())
        assert p == pytest.approx(0.3)
        assert q == pytest.approx(0.3 * 0.3)

    def test_rejects_negative_voltage(self):
        with pytest.raises(InvalidArgument):
            aux_power(-0.1, make_aux())
