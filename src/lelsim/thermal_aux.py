"""Cooling load as a third-order induction motor, auxiliary load as ZIP.

Motor equations follow the single-cage transient formulation (Milano,
"Power System Modelling and Scripting", sec. 15.2.4) in the synchronous
network reference frame: the transient EMF e' = ed' + j*eq' evolves with
open-circuit time constant T0', and the stator obeys the algebraic
relation (v - e') = (Rs + j*X') * i.  Quantities are per-unit on the
motor MVA base; torque and power coincide at synchronous speed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from lelsim.errors import InvalidArgument, NoEquilibrium

# rad/s; the equilibrium uses only the product OMEGA_SYNC * T0', where it
# cancels.  The grid engine forms T0' from the case's own f_base.
OMEGA_SYNC = 2 * math.pi * 60.0


class MotorMode(enum.Enum):
    RUNNING = "running"
    STALL_TRIPPED = "stall_tripped"


@dataclass(frozen=True)
class CoolingParams:
    R_s: float        # pu stator resistance
    X_s: float        # pu stator leakage reactance
    X_m: float        # pu magnetizing reactance
    R_r: float        # pu rotor resistance
    X_r: float        # pu rotor leakage reactance
    H_m: float        # s, inertia on motor base
    V_stall: float    # pu voltage below which the stall timer runs
    tau_stall: float  # s, sustained undervoltage before trip
    T_cool: float     # s, disconnection interval after a stall trip
    mva_base: float   # MVA of the aggregated cooling block
    load_factor: float = 0.8  # mechanical torque fraction in (0, 1]

    def __post_init__(self):
        for name in ("R_s", "X_s", "X_m", "R_r", "X_r"):
            if getattr(self, name) <= 0:
                raise InvalidArgument(f"{name} must be > 0")
        if self.H_m <= 0:
            raise InvalidArgument("H_m must be > 0")
        if not (0 < self.V_stall < 1):
            raise InvalidArgument("V_stall must lie in (0, 1)")
        if self.tau_stall < 0 or self.T_cool < 0:
            raise InvalidArgument("timers must be >= 0")
        if self.mva_base <= 0:
            raise InvalidArgument("mva_base must be > 0")
        if not (0 < self.load_factor <= 1):
            raise InvalidArgument("load_factor must lie in (0, 1]")

    @property
    def x_open(self) -> float:
        return self.X_s + self.X_m

    @property
    def x_trans(self) -> float:
        return self.X_s + self.X_m * self.X_r / (self.X_m + self.X_r)

    @property
    def t0_prime(self) -> float:
        return (self.X_r + self.X_m) / (OMEGA_SYNC * self.R_r)


@dataclass(frozen=True)
class MotorState:
    ed_p: float
    eq_p: float
    slip: float
    stall_timer: float = 0.0
    mode: MotorMode = MotorMode.RUNNING
    recovery_timer: float = 0.0
    t_mech: float = 0.0  # pu mechanical torque pinned at initialization

    def __post_init__(self):
        if not (0.0 <= self.slip <= 1.0):
            raise InvalidArgument("slip must lie in [0, 1]")
        if self.stall_timer < 0 or self.recovery_timer < 0:
            raise InvalidArgument("timers must be >= 0")


def _steady_state_at_slip(slip: float, v: complex, params: CoolingParams):
    """Closed-form transient-EMF equilibrium at a given slip.

    From de'/dt = 0:  e' = j (X0 - X') i / (1 + j ws s T0'),
    combined with the stator relation.  Returns (e', i).
    """
    x0 = params.x_open
    xp = params.x_trans
    t0p = params.t0_prime
    z = complex(params.R_s, xp)
    a = 1j * (x0 - xp) / (1 + 1j * OMEGA_SYNC * slip * t0p)
    # i = (v - e')/z and e' = a i  =>  i = v / (z + a)
    i = v / (z + a)
    return a * i, i


def _power_at_slip(slip: float, v: complex, params: CoolingParams) -> float:
    e, i = _steady_state_at_slip(slip, v, params)
    return (v * i.conjugate()).real


def _torque_at_slip(slip: float, v: complex, params: CoolingParams) -> float:
    e, i = _steady_state_at_slip(slip, v, params)
    return e.real * i.real + e.imag * i.imag


def _stable_slip(curve, target: float, v: complex, params: CoolingParams,
                 what: str) -> float:
    """Slip on the stable (low-slip) branch where curve(slip) equals target.

    A 400-point scan locates the pull-out peak of the power or torque
    curve; the root is bracketed between zero slip and that peak.
    Raises NoEquilibrium if target exceeds the pull-out value.
    """
    s_grid = np.linspace(1e-9, 0.999, 400)
    c_grid = np.array([curve(s, v, params) for s in s_grid])
    k_peak = int(np.argmax(c_grid))
    if target > c_grid[k_peak]:
        raise NoEquilibrium(
            f"{what}={target:.4f} pu above pull-out {c_grid[k_peak]:.4f} pu at V={v.real:.3f}"
        )
    if target <= c_grid[0]:
        return s_grid[0]
    return brentq(lambda s: curve(s, v, params) - target,
                  s_grid[0], s_grid[k_peak], xtol=1e-14)


def motor_init(p_target: float, v_mag: float, params: CoolingParams) -> MotorState:
    """Steady-state motor state drawing p_target pu at terminal voltage v_mag.

    Solves the torque-slip curve on the stable (low-slip) branch; the
    mechanical torque that holds the equilibrium is pinned on the
    returned state.  Raises NoEquilibrium if p_target exceeds the
    pull-out power at this voltage.
    """
    if v_mag <= 0:
        raise InvalidArgument("v_mag must be > 0")
    if p_target < 0:
        raise InvalidArgument("p_target must be >= 0")
    v = complex(v_mag, 0.0)
    slip = _stable_slip(_power_at_slip, p_target, v, params, "p_target")
    e, i = _steady_state_at_slip(slip, v, params)
    t_elec = e.real * i.real + e.imag * i.imag
    return MotorState(ed_p=e.real, eq_p=e.imag, slip=float(slip), t_mech=t_elec)


def init_for_torque(t_mech: float, v_mag: float, params: CoolingParams) -> MotorState:
    """Equilibrium state at the slip where electrical torque equals t_mech.

    Used at reconnection: the mechanical load is unchanged, so the motor
    re-enters at the operating point its own torque demands at the
    present voltage.
    """
    v = complex(v_mag, 0.0)
    slip = _stable_slip(_torque_at_slip, t_mech, v, params, "t_mech")
    e, i = _steady_state_at_slip(slip, v, params)
    return MotorState(ed_p=e.real, eq_p=e.imag, slip=float(slip), t_mech=t_mech)


def stall_update(state: MotorState, v_mag: float, dt: float,
                 params: CoolingParams) -> MotorState:
    """Advance the stall/recovery state machine by dt.

    RUNNING: undervoltage accumulates stall_timer (reset when voltage
    recovers); at tau_stall the block trips and stays off for T_cool.
    STALL_TRIPPED: counts down, then reconnects at the equilibrium for
    the present terminal voltage.
    """
    if dt <= 0:
        raise InvalidArgument("dt must be > 0")
    if state.mode is MotorMode.RUNNING:
        if v_mag < params.V_stall:
            timer = state.stall_timer + dt
            if timer >= params.tau_stall:
                return replace(state, stall_timer=0.0, mode=MotorMode.STALL_TRIPPED,
                               recovery_timer=params.T_cool)
            return replace(state, stall_timer=timer)
        if state.stall_timer != 0.0:
            return replace(state, stall_timer=0.0)
        return state
    # tripped: count down the recovery interval
    timer = state.recovery_timer - dt
    if timer <= 0.0:
        try:
            fresh = init_for_torque(state.t_mech, max(v_mag, 0.05), params)
        except NoEquilibrium:
            # voltage still too low to restart; retry next step
            return replace(state, recovery_timer=dt)
        return fresh
    return replace(state, recovery_timer=timer)


@dataclass(frozen=True)
class AuxParams:
    p_aux0: float    # MW at reference voltage
    alpha_Z: float
    alpha_I: float
    alpha_P: float
    beta_aux: float  # Q/P ratio
    V0: float = 1.0  # pu reference voltage

    def __post_init__(self):
        if abs(self.alpha_Z + self.alpha_I + self.alpha_P - 1.0) > 1e-9:
            raise InvalidArgument("ZIP coefficients must sum to 1")
        if self.p_aux0 < 0:
            raise InvalidArgument("p_aux0 must be >= 0")
        if self.V0 <= 0:
            raise InvalidArgument("V0 must be > 0")


def aux_power(v_mag: float, params: AuxParams) -> tuple[float, float]:
    """ZIP active power and proportional reactive power at voltage v_mag."""
    if v_mag < 0:
        raise InvalidArgument("v_mag must be >= 0")
    r = v_mag / params.V0
    p = params.p_aux0 * (params.alpha_Z * r * r + params.alpha_I * r + params.alpha_P)
    return p, params.beta_aux * p
