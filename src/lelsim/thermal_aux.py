"""Cooling load as a third-order induction motor, auxiliary load as ZIP.

Motor equations follow the single-cage transient formulation (Milano,
"Power System Modelling and Scripting", sec. 15.2.4) in the synchronous
network reference frame: the transient EMF e' = ed' + j*eq' evolves with
open-circuit time constant T0', and the stator obeys the algebraic
relation (v - e') = (Rs + j*X') * i.  Quantities are per-unit on the
motor MVA base; torque and power coincide at synchronous speed.

The steady state has a closed form.  With b = ws*s*T0', c = X0 - X' and
u = 1 + b^2, the torque and power drawn at terminal voltage v are

    torque(b) = |v|^2 c b u / D,   power(b) = |v|^2 (Rs u + c b) u / D,
    D = (Rs u + c b)^2 + (X' u + c)^2,

so an equilibrium at a torque or power target is a root of the quartic
target*D - numerator.  The stable (low-slip) operating point is its
smallest real non-negative root with s <= 1; without one, the target is
past pull-out and there is no equilibrium.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from lelsim.errors import InvalidArgument, NoEquilibrium, require_finite

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
        require_finite(self)
        for name in ("R_s", "X_s", "X_m", "R_r", "X_r", "H_m", "mva_base"):
            if getattr(self, name) <= 0:
                raise InvalidArgument(f"{name} must be > 0")
        if not (0 < self.V_stall < 1):
            raise InvalidArgument("V_stall must lie in (0, 1)")
        if self.tau_stall < 0 or self.T_cool < 0:
            raise InvalidArgument("timers must be >= 0")
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


def _equilibrium(target, v, params: CoolingParams, power: bool):
    """Stable-branch (slip, e', i) where the torque, or with power=True
    the power, at terminal phasor v equals target; e' and i are in the
    frame of v, and target and v broadcast over a whole voltage ride.

    The quartic is solved in y = 1/b through batched companion matrices.
    Its leading coefficient, target*D - numerator at b = 0, is positive
    exactly when the target lies above the zero-slip value (zero: slip
    0), and the stable root is the largest real y with slip <= 1.
    """
    target, v = np.broadcast_arrays(np.asarray(target, dtype=float),
                                    np.asarray(v, dtype=complex))
    r, xp, x0 = params.R_s, params.x_trans, params.x_open
    c = x0 - xp
    # coefficients of D and the numerator in ascending powers of b
    d = np.array([r * r + x0 * x0, 2 * r * c, c * c + 2 * r * r + 2 * xp * x0,
                  2 * r * c, r * r + xp * xp])
    num = np.array([r, c, 2 * r, c, r]) if power else np.array([0.0, c, 0.0, c, 0.0])
    coef = target[..., None] * d - (np.abs(v) ** 2)[..., None] * num
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
    # de'/dt = 0 gives e' = a i with a = j c / (1 + j b); the stator
    # relation then gives i = v / (Rs + j X' + a)
    a = 1j * c / (1 + 1j * b)
    i = v / (complex(r, xp) + a)
    return b / wt0, a * i, i


def motor_init(p_target: float, v: complex, params: CoolingParams) -> MotorState:
    """Steady-state motor state drawing p_target pu at terminal phasor v,
    at the stable root of the power quartic, with e' in the frame of v;
    the mechanical torque that holds the equilibrium is pinned on the
    returned state.  Raises NoEquilibrium if p_target lies above the
    pull-out power at |v| or below the no-load (zero-slip) power.
    """
    if p_target < 0:
        raise InvalidArgument("p_target must be >= 0")
    slip, e, i = _equilibrium(p_target, v, params, power=True)
    return MotorState(ed_p=float(e.real), eq_p=float(e.imag), slip=float(slip),
                      t_mech=float((e * np.conj(i)).real))


def init_for_torque(t_mech: float, v: complex, params: CoolingParams) -> MotorState:
    """Equilibrium state at the slip where electrical torque equals t_mech,
    the stable root of the torque quartic, with e' in the frame of the
    terminal phasor v.  Used at reconnection: the mechanical load is
    unchanged, so the motor re-enters at the operating point its own
    torque demands at the present voltage.  Raises NoEquilibrium past
    pull-out, which includes every positive t_mech at v = 0.
    """
    slip, e, _ = _equilibrium(t_mech, v, params, power=False)
    return MotorState(ed_p=float(e.real), eq_p=float(e.imag), slip=float(slip),
                      t_mech=t_mech)


def stall_update(state: MotorState, v: complex, dt: float,
                 params: CoolingParams) -> MotorState:
    """Advance the stall/recovery state machine by dt at terminal phasor v.

    RUNNING: undervoltage accumulates stall_timer (reset when voltage
    recovers); at tau_stall the block trips and stays off for T_cool.
    STALL_TRIPPED: counts down, then reconnects at the equilibrium for
    the present terminal voltage, in its frame.
    """
    if dt <= 0:
        raise InvalidArgument("dt must be > 0")
    if state.mode is MotorMode.RUNNING:
        if abs(v) < params.V_stall:
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
            fresh = init_for_torque(state.t_mech, v, params)
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
        require_finite(self)
        if abs(self.alpha_Z + self.alpha_I + self.alpha_P - 1.0) > 1e-9:
            raise InvalidArgument("ZIP coefficients must sum to 1")
        if self.p_aux0 < 0:
            raise InvalidArgument("p_aux0 must be >= 0")
        if self.V0 <= 0:
            raise InvalidArgument("V0 must be > 0")


def aux_power(v_mag, params: AuxParams):
    """ZIP active power and proportional reactive power at voltage v_mag,
    a scalar or an array."""
    if np.any(np.asarray(v_mag) < 0):
        raise InvalidArgument("v_mag must be >= 0")
    r = v_mag / params.V0
    p = params.p_aux0 * (params.alpha_Z * r * r + params.alpha_I * r + params.alpha_P)
    return p, params.beta_aux * p
