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
q(b) = target*D - numerator.  The stable (low-slip) operating point is its
smallest non-negative root with s <= 1; without one, the target is past
pull-out and there is no equilibrium.

Torque and power are both |v|^2 g(b) with g = numerator/D, which depends
on the impedances alone.  The positive roots of the numerator of g'
split (0, ws*T0'] into segments on which g is monotone, so q changes
sign at most once on each; they are found once per impedance set.  The
root is then solved in the first segment whose right end has q <= 0, by
Newton's method safeguarded with bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from lelsim.errors import InvalidArgument, NoEquilibrium, require_finite

# rad/s; the equilibrium uses only the product OMEGA_SYNC * T0', where it
# cancels.  The grid engine forms T0' from the case's own f_base.
OMEGA_SYNC = 2 * math.pi * 60.0

# The equilibrium solve stops an element once its step is below this
# share of its root, or after _RTSAFE_ITER steps.  From the linearisation
# at b = 0 a 600-sample ride converges in five; bisection alone
# would need about 60 from the widest bracket.
_RTSAFE_TOL = 1e-14
_RTSAFE_ITER = 100


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
    running: bool = True
    recovery_timer: float = 0.0
    t_mech: float = 0.0  # pu mechanical torque pinned at initialization

    def __post_init__(self):
        if not (0.0 <= self.slip <= 1.0):
            raise InvalidArgument("slip must lie in [0, 1]")
        if self.stall_timer < 0 or self.recovery_timer < 0:
            raise InvalidArgument("timers must be >= 0")


# Cached because calibrations repeat one impedance set across all their
# evaluations.  Measured on the benchmark (2-core host), dropping the
# cache raised calibrate_cooling call_s from 0.0132 to 0.0154 s (worse in
# 7 of 7 pairs) and grid_fault call_s by 2.4 %.
@lru_cache(maxsize=64)
def _monotone_segments(r: float, xp: float, x0: float, b_max: float, power: bool):
    """(d, num, starts, ends, d_end, num_end) for one impedance set: the
    coefficients of D and of the torque (or power) numerator in ascending
    powers of b, the left and right ends of the segments of [0, b_max] on
    which their ratio g is monotone, and D and the numerator at the right
    ends.  The arrays are shared by every caller and read-only."""
    c = x0 - xp
    d = np.array([r * r + x0 * x0, 2 * r * c, c * c + 2 * r * r + 2 * xp * x0,
                  2 * r * c, r * r + xp * xp])
    num = np.array([r, c, 2 * r, c, r]) if power else np.array([0.0, c, 0.0, c, 0.0])
    # numerator of g' = num' D - num D'; its degree-7 terms cancel exactly
    k = np.arange(1.0, 5.0)
    slope = np.convolve(k * num[1:], d) - np.convolve(num, k * d[1:])
    roots = np.roots(slope[6::-1])
    # a near-real pair counts as real: a spurious end only splits a segment
    real = roots.real[(abs(roots.imag) <= 1e-6 * abs(roots))
                      & (roots.real > 0) & (roots.real < b_max)]
    ends = np.append(np.sort(real), b_max)
    powers = ends[:, None] ** np.arange(5)
    out = (d, num, np.append(0.0, ends[:-1]), ends, powers @ d, powers @ num)
    for a in out:
        a.flags.writeable = False
    return out


def _rtsafe(c, lo, hi):
    """Root in [lo, hi] of the quartic c[0] + c[1] b + ... + c[4] b^4 with
    c[0] > 0, positive at lo and not positive at hi: Newton's method from the
    linearisation at b = 0, clipped into the bracket, bisecting whenever
    the Newton step would leave the bracket or would not halve the step
    before last (rtsafe; Press et al., Numerical Recipes, sec. 9.4).
    Works elementwise on arrays, c of shape (5, m) and lo, hi of shape
    (m,), and freezes each element once its step falls below _RTSAFE_TOL
    of it, so an element's root does not depend on the others."""
    c0, c1, c2, c3, c4 = c
    d1, d2, d3 = 2 * c2, 3 * c3, 4 * c4
    # c0 > 0, so the linearisation crosses zero only where c1 < 0
    x = np.where(c1 < 0, -c0 / np.where(c1 < 0, c1, -1.0), hi)
    x = np.where(x < lo, lo, np.where(x > hi, hi, x))
    step = step_old = hi - lo
    done = False
    for _ in range(_RTSAFE_ITER):
        q = (((c4 * x + c3) * x + c2) * x + c1) * x + c0
        dq = ((d3 * x + d2) * x + d1) * x + c1
        above = q > 0
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        # dq = 0 with q != 0 always bisects, so the Newton division is safe
        bisect = ((((x - hi) * dq - q) * ((x - lo) * dq - q) > 0)
                  | (abs(2 * q) > abs(step_old * dq)))
        x_new = np.where(bisect, 0.5 * (lo + hi),
                         x - q / np.where(bisect | (q == 0), 1.0, dq))
        step_old, step = step, x_new - x
        converged = abs(step) <= _RTSAFE_TOL * x_new
        x = np.where(done, x, x_new)
        done = done | converged
        if np.all(done):
            break
    return x


def _equilibrium(target, v, params: CoolingParams, power: bool):
    """Stable-branch (slip, e', i) where the torque, or with power=True
    the power, at terminal phasor v equals target; e' and i are in the
    frame of v, and target and v broadcast over a whole voltage ride.

    q(0), the quartic's constant term, is positive exactly when the target
    lies above the zero-slip value (zero: slip 0).  The root is the first
    sign change of q on the monotone segments of (0, ws*T0'], solved from
    the linearisation of q at b = 0 by safeguarded Newton (`_rtsafe`);
    no segment end with q <= 0 means the target is above pull-out.
    """
    target, v = np.broadcast_arrays(np.asarray(target, dtype=float),
                                    np.asarray(v, dtype=complex))
    if not np.isfinite(target + v).all():
        for name, x in (("target", target), ("voltage", v)):
            bad = ~np.isfinite(x)
            if bad.any():
                k = np.flatnonzero(bad)[0]
                raise InvalidArgument(f"{name} {x.flat[k]} at sample {k} is not finite")
    r, xp, x0 = params.R_s, params.x_trans, params.x_open
    wt0 = OMEGA_SYNC * params.t0_prime
    d, num, starts, ends, d_end, num_end = _monotone_segments(r, xp, x0, wt0, power)
    # np.square, not ** 2: a NumPy scalar's ** 2 calls pow(), which can
    # round |v|^2 one ulp away from the x * x that arrays use
    vv = np.square(np.abs(v))
    coef = target[..., None] * d - vv[..., None] * num
    lead = coef[..., 0]
    crossed = target[..., None] * d_end - vv[..., None] * num_end <= 0
    solve = lead > 0
    missing = (lead < 0) | (solve & ~crossed.any(axis=-1))
    if missing.any():
        k = np.flatnonzero(missing)[0]
        side = "below its zero-slip value" if lead.flat[k] < 0 else "above pull-out"
        raise NoEquilibrium(f"{'power' if power else 'torque'} {target.flat[k]:.4f} pu "
                            f"{side} at |V|={abs(v.flat[k]):.3f} pu")
    b = np.zeros(lead.shape)
    if solve.any():
        c = coef[solve]
        seg = crossed[solve].argmax(axis=-1)
        b[solve] = _rtsafe(c.T.copy(), starts[seg], ends[seg])
    # de'/dt = 0 gives e' = a i with a = j c / (1 + j b); the stator
    # relation then gives i = v / (Rs + j X' + a)
    a = 1j * (x0 - xp) / (1 + 1j * b)
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

    Running: undervoltage accumulates stall_timer (reset when voltage
    recovers); at tau_stall the block trips and stays off for T_cool.
    Tripped: counts down, then reconnects at the equilibrium for the
    present terminal voltage, in its frame.  A thin wrapper over
    `stall_transition`.
    """
    if dt <= 0:
        raise InvalidArgument("dt must be > 0")
    running, stall, recovery, fresh = stall_transition(
        state.running, state.stall_timer, state.recovery_timer, state.t_mech, v, dt, params)
    if fresh is not None:
        return fresh
    return replace(state, running=running, stall_timer=stall, recovery_timer=recovery)


def stall_transition(running: bool, stall_timer: float, recovery_timer: float,
                     t_mech: float, v: complex, dt: float, params: CoolingParams) -> tuple:
    """One step of the machine on plain values: whether the motor runs,
    its stall and recovery timers and pinned torque, the terminal phasor
    and dt > 0.  Returns (running, stall_timer, recovery_timer, fresh),
    fresh being the equilibrium MotorState on a restart and None on any
    other step.  The stall timer is 0 while tripped and the recovery
    timer 0 while running.  Running with |v| >= V_stall and a zero stall
    timer returns the state unchanged; the grid engine skips the call
    then."""
    if running:
        if abs(v) < params.V_stall:
            stall_timer += dt
            if stall_timer >= params.tau_stall:
                return False, 0.0, params.T_cool, None
            return True, stall_timer, 0.0, None
        return True, 0.0, 0.0, None
    # tripped: count down the recovery interval
    recovery_timer -= dt
    if recovery_timer <= 0.0:
        try:
            fresh = init_for_torque(t_mech, v, params)
        except NoEquilibrium:
            # voltage still too low to restart; retry next step
            return False, 0.0, dt, None
        return True, 0.0, 0.0, fresh
    return False, 0.0, recovery_timer, None


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
