"""Multi-machine transient simulator with embedded LEL instances.

Generators are classical second-order machines (constant EMF behind the
transient reactance, swing equation with damping that emulates aggregate
primary frequency response).  Non-LEL loads become constant admittances
at the power-flow solution; LELs inject currents from their workload,
motor, and ZIP subsystems scaled by the protection retention factor.
The workload and ZIP draw constant power W = P - jQ through one current
law, I = W(m) V / m^2 with m = max(|V|, V_FLOOR): W / conj(V) above the
floor and the floor's admittance, W(V_FLOOR) V / V_FLOOR^2, below it.

Each fixed step solves the trapezoidal-discretized differential
equations simultaneously with the network algebraic equations
(simultaneous-implicit scheme; Stott 1979).  The state vector holds the
real states first and the complex ones as interleaved (re, im) pairs,
[delta, omega, slip | e' | V], so the device functions read the motor
EMFs e' and the bus voltages V, and write de'/dt and the network current
mismatch, through complex views of it.  The step starts from a
prediction: explicit Euler on the differential states, and the bus
voltages extrapolated linearly from the starts of the last two steps
(held instead where the voltages jump: after a network re-solve, a motor
stall trip or a restart).

One damped Newton, `newton`, solves the power flow, the network re-solve
after a switching event and each step.  The step's chord updates reuse
the LU factorization of the analytic Jacobian, made when an update first
needs it and dropped once it has served JACOBIAN_MAX_AGE steps (CVODE
re-forms its Newton matrix at least every 20 steps; Hindmarsh et al.
2005).  A chord pass that has not converged after CHORD_MAX_ITER updates
falls back to full Newton, refactoring every iteration; a pass that
converges on its last update ends the step.  The power flow and the
re-solve take full Newton from their first update.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import astuple, dataclass, replace

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

from lelsim.cases import GridCase, LelPlacement, bus_islands, nearest_generator
from lelsim.errors import InvalidArgument, SimulationCollapse
from lelsim.lel import Archetype, LelParams, archetype_defaults
from lelsim.metrics import (KAPPA_FULL_TOL, clear_time, frequency_overshoot,
                             reconnection_delay, voltage_nadir)
from lelsim.protection import ProtectionMode, ProtectionState, in_band, protection_transition
from lelsim.thermal_aux import OMEGA_SYNC, aux_power, motor_init, stall_transition
from lelsim.traceio import off_grid, step_count
from lelsim.workload import workload_path, workload_power
# Not called: the engine steps the LELs' machines through the plain-value
# transitions and takes load paths from workload_path.  The names stay
# bound because the benchmark's tracer names them as boundaries here.
from lelsim.protection import protection_step  # noqa: F401
from lelsim.thermal_aux import stall_update  # noqa: F401
from lelsim.workload import ou_step  # noqa: F401

FAULT_ADMITTANCE = -1e4j  # near-bolted three-phase fault shunt, pu

# constant-power current I = W(m) V / m^2 with m = max(|V|, V_FLOOR): below
# this terminal voltage, the admittance of constant power at the floor
V_FLOOR = 0.05

NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 20
# updates a chord pass may make before the step falls back to full Newton
CHORD_MAX_ITER = 8
# steps a chord factorization serves before it is dropped at the start of
# the next one
JACOBIAN_MAX_AGE = 20

# collapse detector: generator angle spread above pi sustained this long
ANGLE_SPREAD_LIMIT = math.pi
ANGLE_SPREAD_HOLD = 1.0

# steps whose bus voltages run_simulation holds before it writes their
# |V| and angles.  Measured on the benchmark's grid_fault workload (2-core
# host): writing |V| and the angle every step (with motor_mode and the
# workload fold, both since moved out of the step) cost 3.7 % in call_s,
# and holding the whole horizon's complex voltages instead of one block
# raised peak RSS by 3.9 MB.
RECORD_BLOCK = 256


@dataclass(frozen=True)
class Event:
    time: float
    kind: str              # fault | clear_fault | branch_trip
    bus: int | None = None
    branch: tuple[int, int] | None = None
    admittance: complex = FAULT_ADMITTANCE


def fault_events(bus: int, t_fault: float, duration: float = 0.1,
                 admittance: complex = FAULT_ADMITTANCE) -> list[Event]:
    return [Event(time=t_fault, kind="fault", bus=bus, admittance=admittance),
            Event(time=t_fault + duration, kind="clear_fault", bus=bus,
                  admittance=admittance)]


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 40.0
    seed: int = 0

    def __post_init__(self):
        step_count(self.horizon, self.dt)


@dataclass
class EventRecord:
    time: float
    lel_id: int | None
    kind: str


@dataclass
class SimResult:
    time: np.ndarray              # (T,) row k at k * dt
    v_mag: np.ndarray             # (T, n)
    v_ang: np.ndarray             # (T, n)
    gen_omega: np.ndarray         # (T, ng)
    gen_delta: np.ndarray         # (T, ng)
    lel_p: np.ndarray             # (T, K) MW drawn after retention
    lel_q: np.ndarray             # (T, K)
    lel_kappa: np.ndarray         # (T, K)
    lel_mode: np.ndarray          # (T, K) ProtectionMode value
    motor_mode: np.ndarray        # (T, K) 0 running / 1 tripped
    events: list[EventRecord]
    bus_ids: list[int]
    gen_buses: list[int]
    lel_ids: list[int]
    lel_kappa_full: np.ndarray    # (K,)
    collapsed: bool = False
    collapse_reason: str = ""

    @property
    def bus_index(self) -> dict[int, int]:
        return {b: i for i, b in enumerate(self.bus_ids)}

    @property
    def lel_index(self) -> dict[int, int]:
        return {b: i for i, b in enumerate(self.lel_ids)}


# SimResult's per-sample arrays, the ones a collapse cuts short
_SERIES = ("time", "v_mag", "v_ang", "gen_omega", "gen_delta", "lel_p", "lel_q",
           "lel_kappa", "lel_mode", "motor_mode")


def lu_solve(lu_piv, b):
    """x with A x = b, from lu_factor's (lu, piv) of A: LAPACK getrs
    without scipy's per-call checks (newton checks b is finite)."""
    return dgetrs(*lu_piv, b)[0]


def newton(residual, jacobian, z, lu, n_chord):
    """Damped Newton on residual(z) = 0 from z: up to n_chord chord
    updates with the factorization lu of the Jacobian (factored when an
    update needs it and none is held), then, unless they converged, up
    to NEWTON_MAX_ITER full updates, each refactored.  Every update
    halves its step, up to six times, while the residual max-norm does
    not fall (the injection model has a kink at the low-voltage guard).

    Stops as soon as the max-norm is below NEWTON_TOL or not finite, and
    returns (z, max-norm, lu): the last iterate, and the factorization
    held then, or None when the updates ran out.  A non-finite Jacobian
    factors unchecked and yields a non-finite max-norm."""
    R = residual(z)
    rmax = np.abs(R).max(initial=0.0)
    for chord, n_iter in ((True, n_chord), (False, NEWTON_MAX_ITER)):
        for _ in range(n_iter):
            if rmax < NEWTON_TOL or not math.isfinite(rmax):
                return z, rmax, lu
            if lu is None or not chord:
                lu = lu_factor(jacobian(z), check_finite=False)
            dz = lu_solve(lu, R)
            alpha = 1.0
            for _bt in range(6):
                z_try = z - alpha * dz
                R_try = residual(z_try)
                r_try = np.abs(R_try).max(initial=0.0)
                if r_try < rmax or r_try < NEWTON_TOL:
                    break
                alpha *= 0.5
            z, R, rmax = z_try, R_try, r_try
    return z, rmax, lu if rmax < NEWTON_TOL else None


# ---------------------------------------------------------------------------
# network construction and power flow
# ---------------------------------------------------------------------------

def build_ybus(case: GridCase) -> np.ndarray:
    """Bus admittance matrix with off-nominal taps on the from side."""
    return _stamp(case, case.branches)


def _stamp(case: GridCase, branches) -> np.ndarray:
    """Admittance matrix of the given branches of the case."""
    idx = case.bus_index()
    n = case.n_bus
    Y = np.zeros((n, n), dtype=complex)
    for br in branches:
        f, t = idx[br.from_bus], idx[br.to_bus]
        y = 1.0 / complex(br.r, br.x)
        bsh = 1j * br.b_shunt / 2.0
        a = br.tap if br.tap else 1.0
        Y[f, f] += (y + bsh) / (a * a)
        Y[t, t] += y + bsh
        Y[f, t] += -y / a
        Y[t, f] += -y / a
    return Y


def power_flow(case: GridCase) -> np.ndarray:
    """Newton-Raphson power flow from a flat start; returns complex bus V."""
    idx = case.bus_index()
    n = case.n_bus
    Y = build_ybus(case)
    types = np.array([{"slack": 0, "pv": 1, "pq": 2}[b.type] for b in case.buses])
    p_spec = np.array([-b.p_load for b in case.buses]) / case.s_base
    q_spec = np.array([-b.q_load for b in case.buses]) / case.s_base
    vset = np.ones(n)
    for g in case.generators:
        k = idx[g.bus]
        if types[k] != 0:
            p_spec[k] += g.p_set / case.s_base
        vset[k] = g.v_set

    vm = np.where(types == 2, 1.0, vset)
    va = np.zeros(n)
    pv = np.flatnonzero(types == 1)
    pq = np.flatnonzero(types == 2)
    ang_idx = np.concatenate([pv, pq])
    na = len(ang_idx)

    # the unknowns x are the angles at ang_idx, then the magnitudes at pq
    def voltages(x):
        va[ang_idx] = x[:na]
        vm[pq] = x[na:]
        return vm * np.exp(1j * va)

    def mismatch(x):
        V = voltages(x)
        S = V * np.conj(Y @ V)
        return np.concatenate([S.real[ang_idx] - p_spec[ang_idx], S.imag[pq] - q_spec[pq]])

    def jacobian(x):
        # MATPOWER-style analytic sensitivities
        V = voltages(x)
        Ibus = Y @ V
        diagV = np.diag(V)
        dS_dVa = 1j * diagV @ np.conj(np.diag(Ibus) - Y @ diagV)
        dS_dVm = diagV @ np.conj(Y @ np.diag(V / vm)) + np.conj(np.diag(Ibus)) @ np.diag(V / vm)
        J11 = dS_dVa[np.ix_(ang_idx, ang_idx)].real
        J12 = dS_dVm[np.ix_(ang_idx, pq)].real
        J21 = dS_dVa[np.ix_(pq, ang_idx)].imag
        J22 = dS_dVm[np.ix_(pq, pq)].imag
        return np.block([[J11, J12], [J21, J22]])

    x, rmax, _ = newton(mismatch, jacobian, np.concatenate([va[ang_idx], vm[pq]]), None, 0)
    if not rmax < NEWTON_TOL:
        raise InvalidArgument(
            f"power flow did not converge in {NEWTON_MAX_ITER} iterations "
            f"(final mismatch {rmax:.3e} pu)")
    return voltages(x)


# ---------------------------------------------------------------------------
# dynamic initialization
# ---------------------------------------------------------------------------

def _scaled_lel_params(placement: LelPlacement, p_mw: float, v_mag: float) -> LelParams:
    """Rescale an archetype bundle so the LEL draws p_mw at voltage v_mag
    (the engine's compensation shunts keep the t=0 Q balance exact).

    Raises InvalidArgument when the bus has no demand or a block cannot
    carry its share: the cooling motor always draws power, so its share
    must be positive, and a workload block that draws nothing at mu_eta
    cannot be scaled up."""
    base = placement.params
    sw, sc, sa = placement.shares
    where = f"LEL at bus {placement.bus}"
    if p_mw <= 0:
        raise InvalidArgument(f"{where} has no demand to allocate")
    if sc <= 0:
        raise InvalidArgument(f"{where}: the cooling block cannot carry a zero share "
                              f"(its motor always draws power)")
    # workload block scaled so workload_power(mu_eta) hits its share
    w = base.work
    p0 = workload_power(w.mu_eta, w)
    if sw > 0 and p0 <= 0:
        raise InvalidArgument(f"{where}: the workload block draws no power at "
                              f"mu_eta={w.mu_eta}, so it cannot carry share {sw}")
    scale = sw * p_mw / p0 if sw > 0 else 0.0
    work = replace(w, p_base=w.p_base * scale, p_full=w.p_full * scale)
    # auxiliary block scaled at the operating voltage
    zipf = aux_power(v_mag, replace(base.aux, p_aux0=1.0))[0]
    aux = replace(base.aux, p_aux0=sa * p_mw / zipf)
    # cooling block: motor MVA base sized so load_factor pu equals the share
    cool = replace(base.cool, mva_base=sc * p_mw / base.cool.load_factor)
    # protection band referenced to the local operating voltage
    prot = replace(base.prot, V_ref=v_mag)
    return LelParams(work=work, cool=cool, aux=aux, prot=prot, archetype=base.archetype)


def init_dynamics(case: GridCase, V: np.ndarray) -> _Engine:
    """The grid engine at the t=0 equilibrium of power-flow voltages V."""
    return _Engine(case, V)


# ---------------------------------------------------------------------------
# the simultaneous-implicit engine
# ---------------------------------------------------------------------------

# along the Jacobian columns (e_d, e_q, s, v_re, v_im): the change of a
# motor's e = e_d + j e_q, of its slip s and of z i = v - e
_E_DIR = np.array([1, 1j, 0, 0, 0])[:, None]
_S_DIR = np.array([0, 0, 1, 0, 0])[:, None]
_I_DIR = np.array([-1, -1j, 0, 1, 1j])[:, None]


class _Engine:
    """Parameters and discrete states of the whole grid: classical
    machines, the network with its load and compensation shunts, and K
    LELs (per-LEL constants of the device laws plus, per LEL, the scaled
    bundle, nearest generator and bus id).

    Each LEL's discrete states are plain values that `step_machines`
    replaces in place: `prot[k]` holds ProtectionState's five fields in
    order, `motor[k]` holds (running, stall_timer, recovery_timer) of its
    motor, and the arrays the device functions and the record read
    mirror them, `kappa` and `running` (K,) and the ProtectionMode values
    `prot_ord` (K,).  Nothing holds a ProtectionState or a MotorState.

    The continuous states live in the caller's state vector z, laid out
    as [delta (ng), omega (ng), slip (K) | e' (K) | V (n)] with the
    complex EMFs e' and bus voltages V as interleaved (re, im) pairs, so
    `unpack` reads them through .view(complex).  oo, om, oe and ov are
    the offsets of omega, the slips, e' and V, and N is z's length.  The
    motor block em = z[om:ov] holds the slips, then e'; em0 holds it at
    t=0; a restart writes the fresh equilibrium into em.
    The derivatives f, the residual and the Jacobian's rows and columns
    follow z's order: the network rows are each bus's current mismatch
    as an (Re, Im) pair.

    `running` holds which motors run (assign a new array to change it;
    `step_machines` does after a motor stall trip or restart, and says
    so); `w0` holds each LEL's constant-power term (K,), the `work_term`
    of its workload draw, which the caller sets per step.  `kept` holds
    the last evaluation's derivatives and LEL currents before retention,
    (f, u), until the caller drops it (sets None) at a jump of the state
    they were evaluated at: a network re-solve or a motor switch."""

    def __init__(self, case: GridCase, V: np.ndarray):
        """Build the t=0 equilibrium: machine EMFs, load admittances, and
        LEL subsystem states, such that every time derivative vanishes."""
        idx = case.bus_index()
        n = self.n = case.n_bus
        self.s_base = case.s_base
        self.wb = 2 * math.pi * case.f_base
        self.jwb = 1j * self.wb
        self.V0 = V.copy()
        Y = build_ybus(case)

        # classical machines: Pe equals the injected power (lossless Xd')
        gens = case.generators
        self.gbus = np.array([idx[g.bus] for g in gens])
        xd = np.array([g.xd_p for g in gens])
        S_load = np.array([complex(b.p_load, b.q_load) for b in case.buses]) / self.s_base
        Ig = np.conj((V * np.conj(Y @ V) + S_load)[self.gbus] / V[self.gbus])
        Ephasor = V[self.gbus] + 1j * xd * Ig
        self.E, self.delta0 = np.abs(Ephasor), np.angle(Ephasor)
        self.yg = 1.0 / (1j * xd)
        # the swing equation's coefficients over 2H; Pe = Im(E conj(V)) / xd'
        two_h = 2 * np.array([g.H for g in gens])
        self.pm_2h = (Ephasor * np.conj(Ig)).real / two_h
        self.d_2h = np.array([g.D for g in gens]) / two_h
        self.pe_2h = 1.0 / (xd * two_h)

        # LEL subsystems at their bus demand
        self.lbus = np.array([idx[p.bus] for p in case.lels], dtype=int)
        self.lel_ids = [p.bus for p in case.lels]
        self.near = nearest_generator(case)[self.lbus]
        self.params = [_scaled_lel_params(p, case.buses[b].p_load, abs(V[b]))
                       for p, b in zip(case.lels, self.lbus)]
        motors = [motor_init(p.cool.load_factor, V[b], p.cool)
                  for p, b in zip(self.params, self.lbus)]
        self.prot = [astuple(ProtectionState())] * len(motors)
        self.motor = [(m.running, m.stall_timer, m.recovery_timer) for m in motors]

        ng = self.ng = len(gens)
        K = self.K = len(self.params)
        self.oo = ng
        self.om = 2 * ng
        self.oe = self.om + K
        self.ov = self.om + 3 * K
        self.N = self.ov + 2 * n

        # motor constants: stator current i = (v - e') m_y, and
        # de'/dt = m_a i - (m_b + j wb s) e', with T0' rescaled to the
        # case's own synchronous speed, so the slip term and the rotor
        # time constant agree at any f_base
        cool = [p.cool for p in self.params]
        t0 = np.array([c.t0_prime * (OMEGA_SYNC / self.wb) for c in cool])
        self.m_y = 1.0 / np.array([complex(c.R_s, c.x_trans) for c in cool], dtype=complex)
        self.m_a = 1j * np.array([c.x_open - c.x_trans for c in cool]) / t0
        self.m_b = 1.0 / t0
        self.m_two_h = 2 * np.array([c.H_m for c in cool])
        self.m_ratio = np.array([c.mva_base / self.s_base for c in cool])
        # ZIP draw P_aux(m) (1 - j beta) / s_base = (zip2 m + zip1) m + zip0
        aux = [p.aux for p in self.params]
        scale = np.array([a.p_aux0 * (1 - 1j * a.beta_aux) for a in aux],
                         dtype=complex) / self.s_base
        v0 = np.array([a.V0 for a in aux])
        self.zip2 = scale * np.array([a.alpha_Z for a in aux]) / (v0 * v0)
        self.zip1 = scale * np.array([a.alpha_I for a in aux]) / v0
        self.zip0 = scale * np.array([a.alpha_P for a in aux])

        # mutable per-step state; w0 starts at the workload draw at
        # utilization mu_eta and then holds the step's row of the load path
        self.w0 = self.work_term(np.array([workload_power(p.work.mu_eta, p.work)
                                           for p in self.params]))
        self.em0 = np.array([m.slip for m in motors]
                            + [x for m in motors for x in (m.ed_p, m.eq_p)])
        self.tmech = np.array([m.t_mech for m in motors])
        self.running = [m[0] for m in self.motor]
        self.kappa = np.array([p[1] for p in self.prot])
        self.prot_ord = np.array([p[0] for p in self.prot], dtype=int)
        self.kept = None

        # non-LEL loads become constant admittances; fold generator Nortons
        other = np.ones(n, dtype=bool)
        other[self.lbus] = False
        Y[other, other] += np.conj(S_load[other]) / np.abs(V[other]) ** 2
        Y[self.gbus, self.gbus] += self.yg
        # compensation shunts absorb the residual injection (power-flow
        # tolerance plus the LEL reactive allocation) so t=0 is exact
        self.Y = Y
        I_mis = self.current_mismatch(V, self.E * np.exp(1j * self.delta0),
                                      self.lel_currents(V[self.lbus], self.em0))
        Y[np.arange(n), np.arange(n)] += -I_mis / V

    @property
    def running(self) -> np.ndarray:
        """Whether each LEL's motor runs (K,), read-only."""
        return self._running

    @running.setter
    def running(self, flags):
        self._running = np.array(flags, dtype=bool)
        self._running.flags.writeable = False
        # motor_f skips its masks while this holds
        self._all_running = bool(self._running.all())

    def work_term(self, p):
        """The constant-power term w0 = zip0 + p / s_base of workload draws
        p (MW), one row (K,) or one row per step."""
        return self.zip0 + p / self.s_base

    # -- device functions -------------------------------------------------

    def gen_f(self, delta, omega, Vg, out):
        """The machines' (d delta/dt, d omega/dt), written into out (2 ng,);
        returns the EMF phasors."""
        Eg = self.E * np.exp(1j * delta)
        fd, fo = out[:self.ng], out[self.ng:]
        np.subtract(omega, 1.0, out=fd)
        np.multiply(self.d_2h, fd, out=fo)
        fd *= self.wb
        np.subtract(self.pm_2h, fo, out=fo)
        fo -= (Eg * np.conj(Vg)).imag * self.pe_2h
        return Eg

    def motor_states(self, em):
        """Views of a motor block em (3K,): the slips and the complex
        EMFs e' (K,)."""
        return em[:self.K], em[self.K:].view(complex)

    def motor_f(self, em, Vm, out=None):
        """Derivatives of the motor block em (laid out as em, written into
        out when given) and the stator currents i_m (K,) complex at
        terminal voltages Vm; both are zero for a tripped motor."""
        slip, e = self.motor_states(em)
        i = (Vm - e) * self.m_y
        f = np.empty(3 * self.K) if out is None else out
        fs, fe = self.motor_states(f)
        # de'/dt = (j c i - e') / T0' - j wb s e'
        np.subtract(self.m_a * i, (self.m_b + self.jwb * slip) * e, out=fe)
        # Te = Re(conj(e) i)
        np.subtract(self.tmech, (e.conj() * i).real, out=fs)
        fs /= self.m_two_h
        if not self._all_running:
            stopped = ~self._running
            fs[stopped] = 0.0
            fe[stopped] = 0.0
            i = np.where(self._running, i, 0.0)
        return f, i

    def pe_power(self, m):
        """W = conj(S) = P - jQ (pu) of each LEL's constant-power (workload
        + aux) draw at m = max(|V|, V_FLOOR)."""
        return (self.zip2 * m + self.zip1) * m + self.w0

    def pe_injection(self, Vl):
        """Constant-power (workload + aux) current per LEL, I = W(m) Vl / m^2
        with m = max(|Vl|, V_FLOOR).  Returns complex current (K,)."""
        m = np.maximum(np.abs(Vl), V_FLOOR)
        return self.pe_power(m) * Vl / (m * m)

    def lel_currents(self, Vl, em, out=None):
        """LEL currents before retention (kappa) at terminal voltages Vl
        for motor states em; the motor derivatives go into out when given."""
        return self.pe_injection(Vl) + self.motor_f(em, Vl, out)[1] * self.m_ratio

    def current_mismatch(self, V, Eg, u, out=None):
        """Complex current mismatch Y V - I_gen + I_lel at every bus, for
        generator EMF phasors Eg and LEL currents before retention u,
        written into out when given.  validate_case keeps generator buses
        distinct and LEL buses distinct, so a fancy-index scatter adds
        each term once."""
        I = np.matmul(self.Y, V, out=out)
        I[self.gbus] -= Eg * self.yg
        I[self.lbus] += self.kappa * u
        return I

    # -- state vector, residual and Jacobian -------------------------------

    def pack(self, delta, omega, em, V):
        """The state vector z of these states; unpack reads them back."""
        return np.concatenate([delta, omega, em,
                               np.ascontiguousarray(V, dtype=complex).view(float)])

    def unpack(self, z):
        """Views of the state vector z: delta, omega, the motor block em
        and the complex bus voltages."""
        return (z[:self.oo], z[self.oo:self.om], z[self.om:self.ov],
                z[self.ov:].view(complex))

    def derivatives(self, z):
        """Time derivatives (ov,) of z's differential states, with the
        bus voltages of z, the generator EMF phasors and the LEL currents
        before retention; the derivatives and currents become `kept`."""
        delta, omega, em, V = self.unpack(z)
        f = np.empty(self.ov)
        Eg = self.gen_f(delta, omega, V[self.gbus], f[:self.om])
        u = self.lel_currents(V[self.lbus], em, f[self.om:])
        self.kept = f, u
        return f, V, Eg, u

    def evaluation(self, z):
        """Derivatives and LEL currents before retention, (f, u), at z:
        the kept ones, which the caller vouches were evaluated at z, or
        fresh ones."""
        if self.kept is None:
            self.derivatives(z)
        return self.kept

    def residual(self, z, x0, f0, dt):
        """Trapezoidal rule on the differential states from x0, whose
        derivatives are f0, then the network current mismatch."""
        f, V, Eg, u = self.derivatives(z)
        R = np.empty(self.N)
        Rx = R[:self.ov]
        np.add(f, f0, out=Rx)
        Rx *= -0.5 * dt
        Rx += z[:self.ov]
        Rx -= x0
        self.current_mismatch(V, Eg, u, out=R[self.ov:].view(complex))
        return R

    def jacobian(self, z, dt):
        K = self.K
        oo, om, oe, ov = self.oo, self.om, self.oe, self.ov
        delta, _, em, V = self.unpack(z)
        J = np.zeros((self.N, self.N))
        # each generator's and each LEL's V_re column (and row Re); V_im follows
        vg, vl = ov + 2 * self.gbus, ov + 2 * self.lbus

        # swing rows: gen_f's Pe / 2H = Im(E conj(V)) pe_2h along delta,
        # v_re and v_im
        r = np.arange(self.ng)
        J[r, r] = 1.0
        J[r, oo + r] = -0.5 * dt * self.wb
        Eg = self.E * np.exp(1j * delta)
        h = 0.5 * dt * self.pe_2h
        J[oo + r, oo + r] = 1.0 + 0.5 * dt * self.d_2h
        J[oo + r, r] = h * (Eg * np.conj(V[self.gbus])).real
        J[oo + r, vg] = h * Eg.imag
        J[oo + r, vg + 1] = -h * Eg.real

        # motor rows: the trapezoidal identity on the own states minus
        # dt/2 times the partials over (e_d, e_q, s, v_re, v_im)
        dfm, di = self._motor_partials(em, V[self.lbus])
        k = np.arange(K)
        rows = np.array([oe + 2 * k, oe + 2 * k + 1, om + k])          # (3, K)
        cols = np.concatenate([rows, [vl, vl + 1]])
        blk = -0.5 * dt * dfm
        blk[np.arange(3), np.arange(3)] += 1.0
        J[rows[:, None], cols] = blk
        # the stator current's e_d, e_q columns in the network rows
        dI = di[:2] * (self.kappa * self.m_ratio * self.running)
        J[vl, cols[:2]] = dI.real
        J[vl + 1, cols[:2]] = dI.imag

        # network rows over the voltages
        J[ov:, ov:] += self.network_jacobian(V)

        # generator source term -I_E(delta)
        dIE = 1j * Eg * self.yg  # d(I_E)/d delta
        J[vg, r] += -dIE.real
        J[vg + 1, r] += -dIE.imag
        return J

    def _motor_partials(self, em, Vm):
        """(3, 5, K) partials of the motor f (rows e_d, e_q, s) over the
        columns (e_d, e_q, s, v_re, v_im), zero for a tripped motor, and
        the (5, K) partials of the stator current over the same columns:
        motor_f's expressions differentiated along each column's
        direction of e, s and i."""
        slip, e = self.motor_states(em)
        i = (Vm - e) * self.m_y
        di = _I_DIR * self.m_y
        dde = (self.m_a * di - self.m_b * _E_DIR
               - self.jwb * (_S_DIR * e + slip * _E_DIR))
        dte = (np.conj(_E_DIR) * i + np.conj(e) * di).real
        return np.array([dde.real, dde.imag, -dte / self.m_two_h]) * self.running, di

    def network_jacobian(self, V):
        """d(mismatch)/d(V_re, V_im) in z's order, an (Re, Im) row pair
        and a (V_re, V_im) column pair per bus: the admittance blocks
        [[G, -B], [B, G]], built from `Y` on every call, plus each LEL's
        kappa-scaled voltage derivatives of its stator current and of its
        constant-power current."""
        # constant-power current I = g V with g = W(m) / m^2 and
        # m = max(|V|, V_FLOOR): dI = (W'(m) / m^2 - 2 g / m) V dm + g dV,
        # where dm/d(V_re, V_im) = (V_re, V_im) / m above the floor, 0 below
        Vl = V[self.lbus]
        m = np.maximum(np.abs(Vl), V_FLOOR)
        g = self.pe_power(m) / (m * m)
        dI_dm = ((2 * self.zip2 * m + self.zip1) / (m * m) - 2 * g / m) * Vl
        dm = np.where(m > V_FLOOR, np.array([Vl.real, Vl.imag]) / m, 0.0)
        d_pe = (dI_dm * dm + np.array([g, 1j * g])) * self.kappa
        d_motor = _I_DIR[3:] * self.m_y * (self.kappa * self.m_ratio * self.running)

        G, B = self.Y.real, self.Y.imag
        Jn = np.stack([np.stack([G, -B], -1), np.stack([B, G], -1)], 1).reshape(
            2 * self.n, 2 * self.n)
        lb = 2 * self.lbus + np.arange(2)[:, None]
        at = (lb[:, None], lb[None, :])      # (row Re|Im, column V_re|V_im, K)
        for dI in (d_motor, d_pe):
            Jn[at] += np.array([dI.real, dI.imag])
        return Jn

    # -- discrete states ----------------------------------------------------

    def step_machines(self, V, omega, em, dt, t, log):
        """Advance each LEL's motor-stall and protection machines by dt at
        bus voltages V and machine speeds omega, logging their events at
        time t into log; returns whether a motor stalled or restarted.

        Each machine is skipped where its transition would return its
        input: a running motor at |v| >= V_stall with a zero stall timer,
        a protection CONNECTED and `in_band`.  So a settled LEL costs one
        band test and a few float compares.  A restart writes the motor's
        equilibrium into em, and a stall trip or a restart changes
        `running`; the caller drops `kept`, whose currents they change.

        The protection events follow the modes: `shed` when the mode
        becomes SHED from any mode but RECOVERY_WAIT (whose load is
        already shed), `ramp_start` when SHED or RECOVERY_WAIT becomes
        RAMPING, and `reconnected` when RAMPING becomes CONNECTED."""
        P = ProtectionMode
        switched = False
        Vl = V[self.lbus]
        for k, (v, v_mag, w, prev, motor, params) in enumerate(zip(
                Vl.tolist(), np.abs(Vl).tolist(), omega[self.near].tolist(), self.prot,
                self.motor, self.params)):
            ok = in_band(v_mag, w, params.prot)
            if not (motor[0] and motor[1] == 0.0 and abs(v) >= params.cool.V_stall):
                running, stall, recovery, fresh = stall_transition(
                    *motor, self.tmech[k], v, dt, params.cool)
                self.motor[k] = running, stall, recovery
                if running is not motor[0]:
                    switched = True
                    if running:
                        slip, e = self.motor_states(em)
                        slip[k], e[k] = fresh.slip, complex(fresh.ed_p, fresh.eq_p)
                    log.append(EventRecord(t, self.lel_ids[k], "motor_restart" if running
                                           else "motor_stall_trip"))
            if ok and prev[0] is P.CONNECTED:
                continue

            prot = self.prot[k] = protection_transition(*prev, ok, dt, params.prot)
            mode, was = prot[0], prev[0]
            self.kappa[k] = prot[1]
            if mode is not was:
                self.prot_ord[k] = mode
                if mode is P.SHED and was is not P.RECOVERY_WAIT:
                    log.append(EventRecord(t, self.lel_ids[k], "shed"))
                elif mode is P.RAMPING and was in (P.SHED, P.RECOVERY_WAIT):
                    log.append(EventRecord(t, self.lel_ids[k], "ramp_start"))
                elif mode is P.CONNECTED and was is P.RAMPING:
                    log.append(EventRecord(t, self.lel_ids[k], "reconnected"))
        if switched:
            self.running = [m[0] for m in self.motor]
        return switched

    # -- solves -------------------------------------------------------------

    def solve_network(self, V, delta, em):
        """Full Newton on the algebraic network equations with frozen
        differential states; returns the voltages and whether they meet
        NEWTON_TOL."""
        Eg = self.E * np.exp(1j * delta)

        def mismatch(x):
            V = x.view(complex)
            return self.current_mismatch(V, Eg, self.lel_currents(V[self.lbus], em)).view(float)

        x, rmax, _ = newton(mismatch, lambda x: self.network_jacobian(x.view(complex)),
                            np.array(V, dtype=complex).view(float), None, 0)
        return x.view(complex), rmax < NEWTON_TOL


# ---------------------------------------------------------------------------
# time-domain driver
# ---------------------------------------------------------------------------

LOG_KIND = {"fault": "fault_applied", "clear_fault": "fault_cleared",
            "branch_trip": "branch_tripped"}


def make_schedule(case: GridCase, events, cfg: SimConfig) -> dict[int, list[tuple]]:
    """The events in time order as (log kind, change of the network
    admittance matrix, whether the network is then split into islands),
    keyed by the step that applies them.

    Rejects, naming the first bad event in time order: events at a
    non-finite time, before t=0, of unknown kind, off the step grid, or at
    the horizon (the last step starts at horizon - dt, so they would never
    be applied); faults with a non-finite admittance; events whose bus or
    branch the case lacks; clears of no fault of equal admittance on at
    their bus, or at the step that applies that fault (the network would
    never see it); and repeated trips (one trip removes every parallel
    copy, so a second would subtract the stamp again and leave a
    negative-admittance line)."""
    buses = case.bus_index()
    dt = cfg.dt
    # branch ends; ((bus, admittance), time) of the faults on
    tripped, faults = [], []
    schedule = {}
    for ev in sorted(events, key=lambda e: e.time):
        if not 0.0 <= ev.time < math.inf:
            raise InvalidArgument(f"event at t={ev.time} before t=0 or not finite")
        if ev.kind not in LOG_KIND:
            raise InvalidArgument(f"unknown event kind {ev.kind!r}")
        if off_grid(ev.time, dt):
            raise InvalidArgument(f"{ev.kind} at t={ev.time} is off the step grid dt={dt}")
        if ev.time > cfg.horizon - dt / 2:
            raise InvalidArgument(
                f"{ev.kind} at t={ev.time} is at the horizon or past it (never applied)")
        step = round(ev.time / dt)
        if ev.kind == "branch_trip":
            if ev.branch is None:
                raise InvalidArgument(f"branch_trip at t={ev.time} names no branch")
            ends = set(ev.branch)
            copies = [br for br in case.branches if {br.from_bus, br.to_bus} == ends]
            if not copies:
                raise InvalidArgument(f"no branch {ev.branch[0]}-{ev.branch[1]} in case")
            if ends in tripped:
                raise InvalidArgument(
                    f"branch {ev.branch[0]}-{ev.branch[1]} tripped more than once")
            tripped.append(ends)
            dY = -_stamp(case, copies)
            live = [br for br in case.branches if {br.from_bus, br.to_bus} not in tripped]
            islands = bool(bus_islands(case, live).max() > 0)
        else:
            if ev.bus not in buses:
                raise InvalidArgument(f"{ev.kind} at t={ev.time}: no bus {ev.bus} in case")
            if not cmath.isfinite(ev.admittance):
                raise InvalidArgument(f"{ev.kind} at t={ev.time}: non-finite admittance")
            fault = (ev.bus, ev.admittance)
            if ev.kind == "fault":
                faults.append((fault, ev.time))
            else:
                on = next((f for f in faults if f[0] == fault), None)
                if on is None:
                    raise InvalidArgument(f"clear_fault at t={ev.time}: no fault of admittance "
                                          f"{ev.admittance} on at bus {ev.bus}")
                if round(on[1] / dt) == step:
                    raise InvalidArgument(f"clear_fault at t={ev.time} is at the step of its "
                                          f"fault at t={on[1]}, so the fault is never seen")
                faults.remove(on)
            # -0.0 is the exact additive identity, so Y + dY leaves every
            # other entry as it is
            dY = np.full((case.n_bus, case.n_bus), complex(-0.0, -0.0))
            b = buses[ev.bus]
            dY[b, b] = ev.admittance if ev.kind == "fault" else -ev.admittance
            islands = False
        schedule.setdefault(step, []).append((LOG_KIND[ev.kind], dY, islands))
    return schedule


def run_simulation(case: GridCase, events, cfg: SimConfig) -> SimResult:
    """Integrate the full system and return trajectories plus an event log.

    Events are checked and resolved before the power flow.  Each step
    applies its events and re-solves the network, predicts (explicit
    Euler on the differential states, bus voltages V = 2 V_n - V_(n-1)
    from the starts of this step and the last), runs `newton` with
    CHORD_MAX_ITER chord updates on the flat state vector, steps each
    LEL's motor-stall and protection machines (`_Engine.step_machines`;
    their discrete states live in the engine as plain values), and
    records.  One clock: row k of `time` is k * dt, and a step's events,
    collapse and angle-spread hold read its start step * dt or its end
    (step + 1) * dt, each one rounding of a product (a Python float);
    no time is a running sum of dt.  The record writes each step's row of
    the result but for time, v_mag and v_ang: it keeps the bus voltages
    of up to RECORD_BLOCK rows and fills those two per block, at the
    horizon and on every collapse.
    motor_mode starts with every motor running; a motor stall trip or
    restart writes it into the rows from its own on.

    The step's chord factorization `lu` is a local held across steps.
    It is dropped by a switching event (the network changed) and at the
    start of a step once it has served JACOBIAN_MAX_AGE steps; its age
    restarts whenever `newton` returns a new one (the full-Newton
    fallback's too).

    The step's last residual is evaluated at the accepted state, so its
    derivatives and LEL currents (the engine's `kept`) serve the record
    and the next step's start derivatives f0 without a second device
    evaluation.  A network re-solve and a motor stall trip or restart
    change them, so both jumps drop `kept` (the next use evaluates
    afresh) and the voltage history (the next step predicts its voltages
    unchanged, so no extrapolation spans a jump).

    Raises SimulationCollapse (with the truncated result attached) on
    Newton failure, a non-finite step residual, a failed network re-solve,
    sustained generator angle separation, or a branch trip that splits
    the network into islands.
    """
    schedule = make_schedule(case, events, cfg)
    V0 = power_flow(case)
    eng = init_dynamics(case, V0)
    n, ng, K, ov = eng.n, eng.ng, eng.K, eng.ov
    dt = float(cfg.dt)   # so every logged time is a Python float
    n_steps = step_count(cfg.horizon, dt)

    z = eng.pack(eng.delta0, np.ones(ng), eng.em0, V0)
    # each LEL's workload power over the horizon, held constant across
    # each step, folded into its constant-power term once; it does not
    # depend on the grid state
    p_path = np.empty((n_steps, K))
    for k, params in enumerate(eng.params):
        p_path[:, k] = workload_path(params.work, n_steps, dt, (cfg.seed, k))
    w0_path = eng.work_term(p_path)

    T = n_steps + 1
    res = SimResult(time=np.arange(T) * dt, v_mag=np.empty((T, n)), v_ang=np.empty((T, n)),
                    gen_omega=np.empty((T, ng)), gen_delta=np.empty((T, ng)),
                    lel_p=np.empty((T, K)), lel_q=np.empty((T, K)),
                    lel_kappa=np.empty((T, K)), lel_mode=np.empty((T, K), dtype=int),
                    motor_mode=np.zeros((T, K), dtype=int), events=[],
                    bus_ids=[b.id for b in case.buses],
                    gen_buses=[g.bus for g in case.generators], lel_ids=eng.lel_ids,
                    lel_kappa_full=np.array([p.prot.kappa_full for p in eng.params]))
    log = res.events
    # the bus voltages of the rows from `filled` on, whose v_mag and
    # v_ang are not yet written
    v_rows = np.empty((min(RECORD_BLOCK, T), n), dtype=complex)
    filled = 0

    def fill(upto):
        """Write v_mag and v_ang of the held rows up to upto."""
        nonlocal filled
        rows = v_rows[:upto - filled]
        res.v_mag[filled:upto] = np.abs(rows)
        res.v_ang[filled:upto] = np.angle(rows)
        filled = upto

    def record(i):
        v_rows[i - filled] = V
        res.gen_omega[i] = omega
        res.gen_delta[i] = delta
        S = V[eng.lbus] * np.conj(eng.kappa * eng.evaluation(z)[1]) * eng.s_base
        res.lel_p[i] = S.real
        res.lel_q[i] = S.imag
        res.lel_kappa[i] = eng.kappa
        res.lel_mode[i] = eng.prot_ord
        if i + 1 - filled == len(v_rows):
            fill(i + 1)

    def collapse(reason, step, t, upto, residual=0.0):
        fill(upto)
        partial = replace(res, collapsed=True, collapse_reason=reason,
                          **{f: getattr(res, f)[:upto] for f in _SERIES})
        return SimulationCollapse(reason, step, t, residual, partial)

    spread_since = None
    delta, omega, em, V = eng.unpack(z)
    record(0)
    # the bus voltages at the start of the previous step, None when that
    # step's solution is no base for a prediction (set wherever `kept` is
    # dropped); the step's chord factorization and the number of steps
    # it has served
    v_last = None
    lu, lu_age = None, 0

    for step in range(n_steps):
        # the step's start and end times, each one rounding of k * dt
        t, t_new = step * dt, (step + 1) * dt
        eng.w0 = w0_path[step]
        if step in schedule:
            lu = None
            for kind, dY, islands in schedule[step]:
                eng.Y = eng.Y + dY
                log.append(EventRecord(t, None, kind))
                if islands:
                    raise collapse("islanding", step, t, step + 1)
            V, ok = eng.solve_network(V, delta, em)
            if not ok:
                raise collapse("network_solve", step, t, step + 1, math.inf)
            z[ov:] = V.view(float)
            eng.kept = v_last = None
        if lu_age >= JACOBIAN_MAX_AGE:
            lu = None

        x0 = z[:ov].copy()
        # the last residual of the previous step was evaluated at this z
        f0 = eng.evaluation(z)[0]
        # predict: explicit Euler on the differential states, the bus
        # voltages extrapolated linearly from the last two steps
        z[:ov] += dt * f0
        v_start = z[ov:].copy()
        if v_last is not None:
            z[ov:] += v_start - v_last
        v_last = v_start
        z, rmax, held = newton(lambda z: eng.residual(z, x0, f0, dt),
                               lambda z: eng.jacobian(z, dt), z, lu, CHORD_MAX_ITER)
        if held is not lu:
            lu, lu_age = held, 0
        if not rmax < NEWTON_TOL:
            reason = "newton" if math.isfinite(rmax) else "non_finite"
            raise collapse(reason, step, t_new, step + 1, float(rmax))
        lu_age += 1

        delta, omega, em, V = eng.unpack(z)

        # a restarted motor writes its states into z through the em view
        if eng.step_machines(V, omega, em, dt, t_new, log):
            res.motor_mode[step + 1:] = ~eng.running
            eng.kept = v_last = None

        record(step + 1)

        # sustained angle separation counts as collapse
        if max(d := delta.tolist()) - min(d) > ANGLE_SPREAD_LIMIT:
            if spread_since is None:
                spread_since = t_new
            elif t_new - spread_since >= ANGLE_SPREAD_HOLD:
                raise collapse("angle_separation", step, t_new, step + 2)
        else:
            spread_since = None

    fill(T)
    return res


# ---------------------------------------------------------------------------
# placement, sweeps, and regime detection
# ---------------------------------------------------------------------------

def eligible_lel_buses(case: GridCase) -> list[int]:
    taken = {p.bus for p in case.lels}
    return sorted(b.id for b in case.buses
                  if b.type == "pq" and b.p_load > 0 and b.id not in taken)


def place_lels(case: GridCase, k: int, seed: int) -> GridCase:
    """Attach k more LELs, with the default block shares, at a
    seed-determined subset of the load buses that have none; the case's
    own LELs stay.

    Placements are nested: for a fixed seed the buses chosen for k are
    the first k of the ordering chosen for any larger k, so penetration
    sweeps compare like with like.
    """
    buses = eligible_lel_buses(case)
    if not 0 <= k <= len(buses):
        raise InvalidArgument(f"k={k} LELs: need 0 <= k <= {len(buses)} eligible buses")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(buses))
    chosen = [buses[i] for i in perm[:k]]
    placements = []
    archetypes = list(Archetype)
    for b in chosen:
        arch_rng = np.random.default_rng([seed, b])
        arch = archetypes[arch_rng.integers(len(archetypes))]
        placements.append(LelPlacement(bus=b, params=archetype_defaults(arch)))
    return case.with_lels(case.lels + tuple(placements))


def pick_fault_bus(case: GridCase, seed: int) -> int:
    """Deterministic fault-location draw, independent of LEL count."""
    rng = np.random.default_rng([seed, 0xFA])
    # faults are drawn at load-serving buses; radial no-load corners are
    # electrically remote and produce degenerate scenarios
    candidates = sorted(b.id for b in case.buses
                        if b.type == "pq" and b.p_load > 0)
    return int(candidates[rng.integers(len(candidates))])


# fault-severity palette for seeded scenario draws: shunt susceptances from
# a high-impedance sag to a near-bolted short
FAULT_SEVERITIES = (-8j, -30j, -150j, FAULT_ADMITTANCE)


def sample_scenario(case: GridCase, k: int, seed: int, t_fault: float = 5.0,
                    duration: float = 0.1) -> tuple[GridCase, list[Event]]:
    """Seeded draw of one disturbance scenario: k LEL placements plus a
    fault of seed-dependent location and severity."""
    placed = place_lels(case, k, seed)
    bus = pick_fault_bus(case, seed)
    rng = np.random.default_rng([seed, 0x5E])
    adm = FAULT_SEVERITIES[rng.integers(len(FAULT_SEVERITIES))]
    return placed, fault_events(bus, t_fault, duration, admittance=adm)


def regime_flags(result: SimResult) -> dict[str, bool]:
    """Boolean detectors for the four qualitative response regimes."""
    sheds = [(e.time, e.lel_id) for e in result.events if e.kind == "shed"]
    ramps = [(e.time, e.lel_id) for e in result.events if e.kind == "ramp_start"]
    t_clear = clear_time(result)
    ride_through = len(sheds) == 0 and not result.collapsed

    mass = False
    if len(sheds) >= 3:
        times = np.array(sorted(t for t, _ in sheds))
        window = np.any(times[2:] - times[:-2] <= 0.2)
        omega_high = False
        if t_clear is not None:
            mask = result.time > t_clear
            if mask.any():
                omega_high = result.gen_omega[mask].max() > 1.0 + 1e-4
        mass = bool(window and omega_high)

    staggered = any(ts > tr for ts, _ in sheds for tr, _ in ramps)

    never = result.collapsed
    if not never and len(result.time):
        # an LEL that tripped and ends below its full reconnection target
        k = [result.lel_index[lid] for _, lid in sheds]
        never = bool(np.any(result.lel_kappa[-1, k] < result.lel_kappa_full[k] - KAPPA_FULL_TOL))

    return {"ride_through": ride_through, "mass_disconnection": mass,
            "staggered_interaction": staggered, "delayed_or_collapse": never}


def penetration_sweep(case: GridCase, k_values, n_trials: int, cfg: SimConfig,
                      base_seed: int = 0, t_fault: float = 5.0,
                      fault_duration: float = 0.1) -> list[dict]:
    """Median severity metrics versus LEL count.

    Each trial fixes a fault location and a nested placement ordering,
    then reruns the identical disturbance at every k.  Collapsed runs
    contribute worst-case metric values.  Rejects a k listed twice.
    """
    if n_trials < 1:
        raise InvalidArgument(f"n_trials must be >= 1, got {n_trials}")
    for i, k in enumerate(k_values):
        if k in k_values[:i]:
            raise InvalidArgument(f"k={k} repeated in k_values")
    per_k = {k: {"nadir": [], "overshoot": [], "recon": []} for k in k_values}
    for trial in range(n_trials):
        seed = base_seed + 1000 * trial
        fault_bus = pick_fault_bus(case, seed)
        for k in k_values:
            placed = place_lels(case, k, seed)
            evs = fault_events(fault_bus, t_fault, fault_duration)
            try:
                res = run_simulation(placed, evs, replace(cfg, seed=seed))
            except SimulationCollapse as exc:
                res = exc.partial
            if res.collapsed:
                per_k[k]["nadir"].append(0.0)
                per_k[k]["overshoot"].append(1.0)
                per_k[k]["recon"].append(cfg.horizon)
                continue
            per_k[k]["nadir"].append(voltage_nadir(res, fault_bus))
            per_k[k]["overshoot"].append(frequency_overshoot(res))
            delays = [reconnection_delay(res, lid) for lid in res.lel_ids]
            per_k[k]["recon"].append(max((cfg.horizon if d == "never" else d for d in delays),
                                         default=0.0))
    return [{"k": k, "nadir_median": float(np.median(per_k[k]["nadir"])),
             "overshoot_median": float(np.median(per_k[k]["overshoot"])),
             "reconnection_median": float(np.median(per_k[k]["recon"]))}
            for k in k_values]


# ---------------------------------------------------------------------------
# result serialization
# ---------------------------------------------------------------------------

def result_to_csv(result: SimResult) -> str:
    cols = ["t"]
    cols += [f"v_mag_bus{b}" for b in result.bus_ids]
    cols += [f"omega_gen{b}" for b in result.gen_buses]
    cols += [f"kappa_lel{b}" for b in result.lel_ids]
    cols += [f"p_lel{b}" for b in result.lel_ids]
    data = np.column_stack([result.time, result.v_mag, result.gen_omega,
                            result.lel_kappa, result.lel_p])
    lines = [",".join(cols)] + [",".join(repr(float(x)) for x in row) for row in data]
    return "\n".join(lines) + "\n"


def events_to_csv(result: SimResult) -> str:
    lines = ["time,lel_id,kind"]
    for e in result.events:
        lel = "" if e.lel_id is None else str(e.lel_id)
        lines.append(f"{e.time!r},{lel},{e.kind}")
    return "\n".join(lines) + "\n"
