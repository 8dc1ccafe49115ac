"""Multi-machine transient simulator with embedded LEL instances.

Generators are classical second-order machines (constant EMF behind the
transient reactance, swing equation with damping that emulates aggregate
primary frequency response).  Non-LEL loads become constant admittances
at the power-flow solution; LELs inject currents from their workload,
motor, and ZIP subsystems scaled by the protection retention factor.

Each fixed step solves the trapezoidal-discretized differential
equations simultaneously with the network algebraic equations
(simultaneous-implicit scheme) by chord Newton: the iterations reuse the
LU factorization of the analytic Jacobian from an earlier step, and when
that stalls the step falls back to full Newton, refactoring every
iteration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

from lelsim.cases import GridCase, LelPlacement, bus_islands
from lelsim.errors import (
    InvalidArgument,
    NoEquilibrium,
    SimulationCollapse,
    ValidationError,
)
from lelsim.lel import Archetype, LelParams, archetype_defaults
from lelsim.protection import ProtectionMode, ProtectionState, protection_step
from lelsim.thermal_aux import (OMEGA_SYNC, MotorMode, MotorState, aux_power,
                                motor_init, stall_update)
# ou_step is not called (load paths come from workload_path); the name
# stays bound because the benchmark's tracer counts OU steps here.
from lelsim.workload import ou_step, workload_path, workload_power  # noqa: F401

FAULT_ADMITTANCE = -1e4j  # near-bolted three-phase fault shunt, pu

# below this terminal voltage, constant-power behavior is replaced by the
# equivalent admittance computed at the floor
V_FLOOR = 0.05

NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 20

# collapse detector: generator angle spread above pi sustained this long
ANGLE_SPREAD_LIMIT = math.pi
ANGLE_SPREAD_HOLD = 1.0


@dataclass(frozen=True)
class Event:
    time: float
    kind: str              # fault | clear_fault | branch_trip
    bus: int | None = None
    branch: tuple[int, int] | None = None
    admittance: complex = FAULT_ADMITTANCE


def make_schedule(events) -> list[Event]:
    """The events sorted by time; _check_events checks them against cfg."""
    evs = sorted(events, key=lambda e: e.time)
    for ev in evs:
        if ev.time < 0.0:
            raise InvalidArgument(f"event at t={ev.time} before t=0")
        if ev.kind not in ("fault", "clear_fault", "branch_trip"):
            raise InvalidArgument(f"unknown event kind {ev.kind!r}")
    return evs


def fault_events(bus: int, t_fault: float, duration: float = 0.1,
                 admittance: complex = FAULT_ADMITTANCE) -> list[Event]:
    return [Event(time=t_fault, kind="fault", bus=bus, admittance=admittance),
            Event(time=t_fault + duration, kind="clear_fault", bus=bus,
                  admittance=admittance)]


def _off_grid(t: float, dt: float) -> bool:
    """Whether t misses the step grid k*dt by more than the dt*1e-6 the
    step loop allows when it applies an event."""
    return abs(t - round(t / dt) * dt) > dt * 1e-6


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 40.0
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= self.dt:
            raise InvalidArgument("need horizon > dt > 0")
        if _off_grid(self.horizon, self.dt):
            raise InvalidArgument(
                f"horizon {self.horizon} is not a whole number of steps dt={self.dt}")


@dataclass
class EventRecord:
    time: float
    lel_id: int | None
    kind: str


@dataclass
class SimResult:
    time: np.ndarray              # (T,)
    v_mag: np.ndarray             # (T, n)
    v_ang: np.ndarray             # (T, n)
    gen_omega: np.ndarray         # (T, ng)
    gen_delta: np.ndarray         # (T, ng)
    lel_p: np.ndarray             # (T, K) MW drawn after retention
    lel_q: np.ndarray             # (T, K)
    lel_kappa: np.ndarray         # (T, K)
    lel_mode: np.ndarray          # (T, K) ProtectionMode ordinal
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


PROT_MODE_ORD = {m: i for i, m in enumerate(ProtectionMode)}


def lu_solve(lu_piv, b):
    """x with A x = b, from lu_factor's (lu, piv) of A: LAPACK getrs
    without scipy's per-call checks (the step loop checks b is finite)."""
    return dgetrs(*lu_piv, b)[0]


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
        if br.r == 0 and br.x == 0:
            raise InvalidArgument(f"zero-impedance branch {br.from_bus}-{br.to_bus}")
        f, t = idx[br.from_bus], idx[br.to_bus]
        y = 1.0 / complex(br.r, br.x)
        bsh = 1j * br.b_shunt / 2.0
        a = br.tap if br.tap else 1.0
        Y[f, f] += (y + bsh) / (a * a)
        Y[t, t] += y + bsh
        Y[f, t] += -y / a
        Y[t, f] += -y / a
    return Y


def _parallel_branches(case: GridCase, ends) -> list:
    """Every branch of the case that joins the two buses in ends."""
    return [br for br in case.branches if {br.from_bus, br.to_bus} == set(ends)]


def power_flow(case: GridCase, tol: float = 1e-8, max_iter: int = 50) -> np.ndarray:
    """Newton-Raphson power flow from a flat start; returns complex bus V."""
    idx = case.bus_index()
    n = case.n_bus
    Y = build_ybus(case)
    types = np.array([{"slack": 0, "pv": 1, "pq": 2}[b.type] for b in case.buses])
    p_spec = np.array([-b.p_load for b in case.buses]) / case.s_base
    q_spec = np.array([-b.q_load for b in case.buses]) / case.s_base
    vset = np.ones(n)
    for b in case.buses:
        if b.type in ("pv", "slack"):
            vset[idx[b.id]] = b.v_set
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

    for it in range(max_iter):
        V = vm * np.exp(1j * va)
        S = V * np.conj(Y @ V)
        dP = p_spec[ang_idx] - S.real[ang_idx]
        dQ = q_spec[pq] - S.imag[pq]
        mismatch = np.concatenate([dP, dQ])
        if np.max(np.abs(mismatch)) < tol:
            return V
        # MATPOWER-style analytic sensitivities
        Ibus = Y @ V
        diagV = np.diag(V)
        dS_dVa = 1j * diagV @ np.conj(np.diag(Ibus) - Y @ diagV)
        dS_dVm = diagV @ np.conj(Y @ np.diag(V / vm)) + np.conj(np.diag(Ibus)) @ np.diag(V / vm)
        J11 = dS_dVa[np.ix_(ang_idx, ang_idx)].real
        J12 = dS_dVm[np.ix_(ang_idx, pq)].real
        J21 = dS_dVa[np.ix_(pq, ang_idx)].imag
        J22 = dS_dVm[np.ix_(pq, pq)].imag
        J = np.block([[J11, J12], [J21, J22]])
        dx = np.linalg.solve(J, mismatch)
        va[ang_idx] += dx[:len(ang_idx)]
        vm[pq] += dx[len(ang_idx):]
    V = vm * np.exp(1j * va)
    S = V * np.conj(Y @ V)
    final = max(np.max(np.abs(p_spec[ang_idx] - S.real[ang_idx])),
                np.max(np.abs(q_spec[pq] - S.imag[pq])) if len(pq) else 0.0)
    raise ValidationError(
        f"power flow did not converge in {max_iter} iterations "
        f"(final mismatch {final:.3e} pu)")


def nearest_generator(case: GridCase) -> np.ndarray:
    """Per-bus index (into case.generators) of the electrically nearest
    machine by minimum series-|Z| path."""
    from scipy.sparse import lil_matrix
    from scipy.sparse.csgraph import dijkstra

    idx = case.bus_index()
    n = case.n_bus
    W = lil_matrix((n, n))
    for br in case.branches:
        w = abs(complex(br.r, br.x))
        f, t = idx[br.from_bus], idx[br.to_bus]
        if W[f, t] == 0 or W[f, t] > w:
            W[f, t] = w
            W[t, f] = w
    gen_idx = [idx[g.bus] for g in case.generators]
    dist = dijkstra(W.tocsr(), directed=False, indices=gen_idx)
    return np.argmin(dist, axis=0)


# ---------------------------------------------------------------------------
# dynamic initialization
# ---------------------------------------------------------------------------

@dataclass
class _LelRuntime:
    bus: int                      # position index
    bus_id: int
    params: LelParams             # demand-scaled bundle
    motor: MotorState
    prot: ProtectionState
    nearest_gen: int


@dataclass
class DynamicSystem:
    case: GridCase
    V0: np.ndarray
    Y_dyn: np.ndarray             # network + loads + Norton + compensation
    gbus: np.ndarray
    E: np.ndarray
    delta0: np.ndarray
    Pm: np.ndarray
    H: np.ndarray
    D: np.ndarray
    yg: np.ndarray
    lels: list[_LelRuntime]
    omega_base: float


def _scaled_lel_params(placement: LelPlacement, p_mw: float, v_mag: float) -> LelParams:
    """Rescale an archetype bundle so the LEL draws p_mw at voltage v_mag
    (init_dynamics' compensation shunts keep the t=0 Q balance exact)."""
    base = placement.params
    sw, sc, sa = placement.shares
    if p_mw <= 0:
        raise NoEquilibrium(f"LEL bus {placement.bus} has no demand to allocate")
    # workload block scaled so workload_power(mu_eta) hits its share
    w = base.work
    p0 = workload_power(w.mu_eta, w)
    scale = sw * p_mw / p0 if p0 > 0 else 0.0
    work = replace(w, p_base=w.p_base * scale, p_full=w.p_full * scale)
    # auxiliary block scaled at the operating voltage
    zipf = aux_power(v_mag, replace(base.aux, p_aux0=1.0))[0]
    aux = replace(base.aux, p_aux0=sa * p_mw / zipf)
    # cooling block: motor MVA base sized so load_factor pu equals the share
    c = base.cool
    p_cool = sc * p_mw
    cool = replace(c, mva_base=p_cool / c.load_factor if p_cool > 0 else c.mva_base)
    # protection band referenced to the local operating voltage
    prot = replace(base.prot, V_ref=v_mag)
    return LelParams(work=work, cool=cool, aux=aux, prot=prot, archetype=base.archetype)


def init_dynamics(case: GridCase, V: np.ndarray) -> DynamicSystem:
    """Build the t=0 equilibrium: machine EMFs, load admittances, and LEL
    subsystem states, such that every time derivative vanishes."""
    idx = case.bus_index()
    n = case.n_bus
    s_base = case.s_base
    Y = build_ybus(case)

    lel_bus_pos = {idx[p.bus] for p in case.lels}
    near = nearest_generator(case)

    # classical machines: Pe equals the injected power (lossless Xd')
    gbus = np.array([idx[g.bus] for g in case.generators])
    xd = np.array([g.xd_p for g in case.generators])
    S_load = np.array([complex(b.p_load, b.q_load) for b in case.buses]) / s_base
    Ig = np.conj((V * np.conj(Y @ V) + S_load)[gbus] / V[gbus])
    Ephasor = V[gbus] + 1j * xd * Ig
    E, delta0 = np.abs(Ephasor), np.angle(Ephasor)
    Pm = (Ephasor * np.conj(Ig)).real
    yg = 1.0 / (1j * xd)

    # non-LEL loads become constant admittances; fold generator Nortons
    Y_dyn = Y.copy()
    other = np.array([b not in lel_bus_pos for b in range(n)])
    Y_dyn[other, other] += np.conj(S_load[other]) / np.abs(V[other]) ** 2
    Y_dyn[gbus, gbus] += yg

    # LEL subsystems at their bus demand
    lels: list[_LelRuntime] = []
    for p in case.lels:
        b = idx[p.bus]
        params = _scaled_lel_params(p, case.buses[b].p_load, abs(V[b]))
        motor = motor_init(params.cool.load_factor, V[b], params.cool)
        lels.append(_LelRuntime(bus=b, bus_id=p.bus, params=params, motor=motor,
                                prot=ProtectionState(), nearest_gen=int(near[b])))

    dyn = DynamicSystem(case=case, V0=V.copy(), Y_dyn=Y_dyn, gbus=gbus, E=E,
                        delta0=delta0, Pm=Pm,
                        H=np.array([g.H for g in case.generators]),
                        D=np.array([g.D for g in case.generators]),
                        yg=yg, lels=lels, omega_base=2 * math.pi * case.f_base)

    # compensation shunts absorb the residual injection (power-flow
    # tolerance plus the LEL reactive allocation) so t=0 is exact
    eng = _Engine(dyn, SimConfig(dt=1e-3, horizon=1.0, seed=0))
    I_mis = eng.current_mismatch(V, dyn.E * np.exp(1j * dyn.delta0), eng._em_array())
    comp = -I_mis / V
    dyn.Y_dyn[np.arange(n), np.arange(n)] += comp
    return dyn


# ---------------------------------------------------------------------------
# the simultaneous-implicit engine
# ---------------------------------------------------------------------------

class _Engine:
    def __init__(self, dyn: DynamicSystem, cfg: SimConfig):
        self.dyn = dyn
        self.cfg = cfg
        self.n = len(dyn.V0)
        self.ng = len(dyn.E)
        self.K = len(dyn.lels)
        self.wb = dyn.omega_base
        self.s_base = dyn.case.s_base

        # unknown layout: delta, omega, edp, eqp, slip, Vre, Vim
        ng, K, n = self.ng, self.K, self.n
        self.od = 0
        self.oo = ng
        self.om = 2 * ng
        self.ovr = 2 * ng + 3 * K
        self.ovi = self.ovr + n
        self.N = self.ovi + n

        # motor/lel parameter arrays
        ls = dyn.lels
        self.lbus = np.array([l.bus for l in ls], dtype=int)
        self.m_z = np.array([complex(l.params.cool.R_s, l.params.cool.x_trans)
                             for l in ls], dtype=complex)
        self.m_c = np.array([l.params.cool.x_open - l.params.cool.x_trans for l in ls])
        # T0' rescaled to the case's own synchronous speed, so the slip
        # term and the rotor time constant agree at any f_base
        self.m_t0 = np.array([l.params.cool.t0_prime * (OMEGA_SYNC / self.wb)
                              for l in ls])
        self.m_h = np.array([l.params.cool.H_m for l in ls])
        self.m_ratio = np.array([l.params.cool.mva_base / self.s_base for l in ls])
        self.aux_p0 = np.array([l.params.aux.p_aux0 for l in ls])
        self.aux_az = np.array([l.params.aux.alpha_Z for l in ls])
        self.aux_ai = np.array([l.params.aux.alpha_I for l in ls])
        self.aux_ap = np.array([l.params.aux.alpha_P for l in ls])
        self.aux_v0 = np.array([l.params.aux.V0 for l in ls])
        self.aux_beta = np.array([l.params.aux.beta_aux for l in ls])
        w_pb = np.array([l.params.work.p_base for l in ls])
        w_pf = np.array([l.params.work.p_full for l in ls])

        # mutable per-step views; p_work (MW) starts at utilization mu_eta
        # and then holds the step's row of the workload path
        mu = np.array([l.params.work.mu_eta for l in ls])
        self.p_work = w_pb + mu * (w_pf - w_pb)
        self.tmech = np.array([l.motor.t_mech for l in ls])
        self.running = np.array([l.motor.mode is MotorMode.RUNNING for l in ls], dtype=bool)
        self.kappa = np.array([l.prot.kappa for l in ls])

        self.set_network(dyn.Y_dyn.copy())

    # -- device functions -------------------------------------------------

    def gen_f(self, delta, omega, Vg):
        Eg = self.dyn.E * np.exp(1j * delta)
        Pe = (np.conj(self.dyn.yg) * (self.dyn.E**2 - Eg * np.conj(Vg))).real
        fd = self.wb * (omega - 1.0)
        fo = (self.dyn.Pm - Pe - self.dyn.D * (omega - 1.0)) / (2 * self.dyn.H)
        return fd, fo, Eg

    def motor_f(self, em, Vm):
        """em is (3, K): edp, eqp, slip.  Returns (f (3,K), i_m complex (K,))."""
        edp, eqp, slip = em
        i = (Vm - (edp + 1j * eqp)) / self.m_z
        te = edp * i.real + eqp * i.imag
        f = np.empty((3, self.K))
        f[0] = self.wb * slip * eqp - (edp + self.m_c * i.imag) / self.m_t0
        f[1] = -self.wb * slip * edp - (eqp - self.m_c * i.real) / self.m_t0
        f[2] = (self.tmech - te) / (2 * self.m_h)
        f[:, ~self.running] = 0.0
        i = np.where(self.running, i, 0.0)
        return f, i

    def pe_injection(self, Vl):
        """Constant-power (workload + aux) current per LEL, with the
        low-voltage admittance guard.  Returns complex current (K,)."""
        vm = np.abs(Vl)
        r = np.maximum(vm, V_FLOOR) / self.aux_v0
        p_aux = self.aux_p0 * (self.aux_az * r * r + self.aux_ai * r + self.aux_ap)
        S = ((self.p_work + p_aux) + 1j * (self.aux_beta * p_aux)) / self.s_base
        safe_v = np.where(vm > V_FLOOR, Vl, 1.0)
        I_cp = np.conj(S / safe_v)
        y_floor = np.conj(S) / V_FLOOR**2
        return np.where(vm > V_FLOOR, I_cp, y_floor * Vl)

    def lel_injection(self, Vl, em, i_m=None):
        """LEL currents at terminal voltages Vl for motor states em, or
        for stator currents i_m when the caller already has them."""
        i_m = self.motor_f(em, Vl)[1] if i_m is None else i_m
        return self.kappa * (self.pe_injection(Vl) + i_m * self.m_ratio)

    def current_mismatch(self, V, Eg, em, i_m=None):
        """Complex current mismatch Y V - I_gen + I_lel at every bus, for
        generator EMF phasors Eg and motor states em (stator currents
        i_m).  validate_case keeps generator buses distinct and LEL buses
        distinct, so a fancy-index scatter adds each term once."""
        I = self.Y @ V
        I[self.dyn.gbus] -= Eg * self.dyn.yg
        I[self.lbus] += self.lel_injection(V[self.lbus], em, i_m)
        return I

    def _em_array(self):
        return np.array([[l.motor.ed_p for l in self.dyn.lels],
                         [l.motor.eq_p for l in self.dyn.lels],
                         [l.motor.slip for l in self.dyn.lels]]).reshape(3, self.K)

    # -- residual and Jacobian --------------------------------------------

    def residual(self, z, xk, f0, dt):
        ng, K, n = self.ng, self.K, self.n
        delta = z[self.od:self.od + ng]
        omega = z[self.oo:self.oo + ng]
        em = z[self.om:self.om + 3 * K].reshape(3, K)
        V = z[self.ovr:self.ovr + n] + 1j * z[self.ovi:self.ovi + n]

        fd, fo, Eg = self.gen_f(delta, omega, V[self.dyn.gbus])
        fm, i_m = self.motor_f(em, V[self.lbus])

        R = np.empty(self.N)
        R[self.od:self.od + ng] = delta - xk["delta"] - 0.5 * dt * (fd + f0["fd"])
        R[self.oo:self.oo + ng] = omega - xk["omega"] - 0.5 * dt * (fo + f0["fo"])
        R[self.om:self.om + 3 * K] = (em - xk["em"] - 0.5 * dt * (fm + f0["fm"])).ravel()
        I = self.current_mismatch(V, Eg, em, i_m)
        R[self.ovr:self.ovr + n] = I.real
        R[self.ovi:self.ovi + n] = I.imag
        return R

    def set_network(self, Y):
        """Install a new network admittance matrix; the LU factorization
        derived from the old one is dropped."""
        self.Y = Y
        self._lu = None

    def jacobian(self, z, dt):
        ng, K, n = self.ng, self.K, self.n
        od, oo, om, ovr, ovi = self.od, self.oo, self.om, self.ovr, self.ovi
        delta = z[od:od + ng]
        em = z[om:om + 3 * K].reshape(3, K)
        V = z[ovr:ovr + n] + 1j * z[ovi:ovi + n]
        J = np.zeros((self.N, self.N))

        # swing rows
        r = np.arange(ng)
        J[od + r, od + r] = 1.0
        J[od + r, oo + r] = -0.5 * dt * self.wb
        Eg = self.dyn.E * np.exp(1j * delta)
        Vg = V[self.dyn.gbus]
        cyg = np.conj(self.dyn.yg)
        dPe_dd = (-1j * cyg * Eg * np.conj(Vg)).real
        dPe_dvre = (-cyg * Eg).real
        dPe_dvim = (1j * cyg * Eg).real
        h2 = 0.5 * dt / (2 * self.dyn.H)
        J[oo + r, oo + r] = 1.0 + 0.5 * dt * self.dyn.D / (2 * self.dyn.H)
        J[oo + r, od + r] = h2 * dPe_dd
        J[oo + r, ovr + self.dyn.gbus] = h2 * dPe_dvre
        J[oo + r, ovi + self.dyn.gbus] = h2 * dPe_dvim

        # motor rows + their network coupling
        self._motor_jacobian(J, em, V, dt)

        # network rows: linear admittance part (added, the motor block
        # already wrote its couplings into these rows)
        J[ovr:, ovr:] += self._admittance_block()

        # generator source term -I_E(delta)
        dIE = 1j * Eg * self.dyn.yg  # d(I_E)/d delta
        J[ovr + self.dyn.gbus, od + r] += -dIE.real
        J[ovi + self.dyn.gbus, od + r] += -dIE.imag

        # constant-power injection sensitivity to local voltage
        self._pe_jacobian(J, V, ovr, ovi, ovr, ovi)
        return J

    def _admittance_block(self):
        """d(Y V)/d(Vre, Vim) of the rows (Re, Im): [[G, -B], [B, G]]."""
        G, B = self.Y.real, self.Y.imag
        return np.block([[G, -B], [B, G]])

    def _motor_jacobian(self, J, em, V, dt):
        K = self.K
        om, ovr, ovi = self.om, self.ovr, self.ovi
        edp, eqp, slip = em
        Vm = V[self.lbus]
        zinv = 1.0 / self.m_z
        i = (Vm - (edp + 1j * eqp)) * zinv
        c, t0, wb = self.m_c, self.m_t0, self.wb
        run = self.running.astype(float)

        # complex derivatives of the stator current
        di = {"edp": -zinv, "eqp": -1j * zinv, "vre": zinv, "vim": 1j * zinv}

        def dfm(var):
            """(3, K) derivative of the motor f w.r.t. one scalar variable."""
            d_i = di.get(var, np.zeros(K, complex))
            out = np.zeros((3, K))
            out[0] = -(c * d_i.imag) / t0
            out[1] = (c * d_i.real) / t0
            dte = edp * d_i.real + eqp * d_i.imag
            if var == "edp":
                out[1] += -wb * slip
                dte = dte + i.real
            elif var == "eqp":
                out[0] += wb * slip
                dte = dte + i.imag
            elif var == "slip":
                out[0] = wb * eqp
                out[1] = -wb * edp
                dte = np.zeros(K)
            out[0] -= (1.0 / t0) if var == "edp" else 0.0
            out[1] -= (1.0 / t0) if var == "eqp" else 0.0
            out[2] = -dte / (2 * self.m_h)
            return out * run

        rows = [om, om + K, om + 2 * K]
        kk = np.arange(K)
        cols = {"edp": om + kk, "eqp": om + K + kk, "slip": om + 2 * K + kk,
                "vre": ovr + self.lbus, "vim": ovi + self.lbus}
        for var, col in cols.items():
            for rrow, drow in zip(rows, dfm(var)):
                J[rrow + kk, col] += -0.5 * dt * drow
        # trapezoidal identity on own states
        for rrow in rows:
            J[rrow + kk, rrow + kk] += 1.0
        # motor current contribution to the network rows
        ratio = self.kappa * self.m_ratio * run
        for var in ("edp", "eqp"):
            dI = di[var] * ratio
            J[ovr + self.lbus, cols[var]] += dI.real
            J[ovi + self.lbus, cols[var]] += dI.imag
        self._motor_current_jacobian(J, ovr, ovi, ovr, ovi)

    def _pe_jacobian(self, J, V, ro_re, ro_im, co_re, co_im):
        """Add d(I_pe)/dV blocks into J at the given row/column offsets."""
        Vl = V[self.lbus]
        vm = np.abs(Vl)
        above = vm > V_FLOOR
        vm_eff = np.maximum(vm, V_FLOOR)
        r = vm_eff / self.aux_v0
        p_aux = self.aux_p0 * (self.aux_az * r * r + self.aux_ai * r + self.aux_ap)
        P = (self.p_work + p_aux) / self.s_base
        Q = self.aux_beta * p_aux / self.s_base
        W = P - 1j * Q
        dP_dvm = np.where(above,
                          self.aux_p0 * (2 * self.aux_az * vm_eff / self.aux_v0**2
                                         + self.aux_ai / self.aux_v0) / self.s_base,
                          0.0)
        dW_dvm = (1.0 - 1j * self.aux_beta) * dP_dvm
        cV = np.conj(Vl)
        safe = np.where(above, cV, 1.0)
        dvm_dvre = np.where(vm > 0, Vl.real / np.maximum(vm, 1e-300), 0.0)
        dvm_dvim = np.where(vm > 0, Vl.imag / np.maximum(vm, 1e-300), 0.0)
        # I = W / conj(V) above the floor; I = conj(S)/Vf^2 * V below it
        dI_dvre = np.where(above,
                           dW_dvm * dvm_dvre / safe - W / safe**2,
                           np.conj(W * self.s_base) / self.s_base / V_FLOOR**2)
        dI_dvim = np.where(above,
                           dW_dvm * dvm_dvim / safe - W / safe**2 * (-1j),
                           1j * np.conj(W * self.s_base) / self.s_base / V_FLOOR**2)
        dI_dvre = dI_dvre * self.kappa
        dI_dvim = dI_dvim * self.kappa
        J[ro_re + self.lbus, co_re + self.lbus] += dI_dvre.real
        J[ro_im + self.lbus, co_re + self.lbus] += dI_dvre.imag
        J[ro_re + self.lbus, co_im + self.lbus] += dI_dvim.real
        J[ro_im + self.lbus, co_im + self.lbus] += dI_dvim.imag

    # -- solves -------------------------------------------------------------

    def solve_network(self, V, delta, em, tol=NEWTON_TOL):
        """Damped Newton on the algebraic network equations with frozen
        differential states."""
        n = self.n
        Eg = self.dyn.E * np.exp(1j * delta)
        I = self.current_mismatch(V, Eg, em)
        rmax = np.max(np.abs(I))
        for _ in range(2 * NEWTON_MAX_ITER):
            if rmax < tol:
                return V, True
            Jn = self._admittance_block()
            self._pe_jacobian(Jn, V, 0, n, 0, n)
            self._motor_current_jacobian(Jn, 0, n, 0, n)
            rhs = np.concatenate([I.real, I.imag])
            dx = np.linalg.solve(Jn, rhs)
            dV = dx[:n] + 1j * dx[n:]
            alpha = 1.0
            for _bt in range(10):
                V_try = V - alpha * dV
                I_try = self.current_mismatch(V_try, Eg, em)
                r_try = np.max(np.abs(I_try))
                if r_try < rmax or r_try < tol:
                    break
                alpha *= 0.5
            V, I, rmax = V_try, I_try, r_try
        return V, rmax < tol

    def _motor_current_jacobian(self, J, ro_re, ro_im, co_re, co_im):
        """Stator-current sensitivity to the terminal voltage only."""
        zinv = 1.0 / self.m_z
        ratio = self.kappa * self.m_ratio * self.running.astype(float)
        for off, dval in ((co_re, zinv), (co_im, 1j * zinv)):
            dI = dval * ratio
            J[ro_re + self.lbus, off + self.lbus] += dI.real
            J[ro_im + self.lbus, off + self.lbus] += dI.imag


# ---------------------------------------------------------------------------
# time-domain driver
# ---------------------------------------------------------------------------

def _check_events(case: GridCase, schedule: list[Event], cfg: SimConfig) -> None:
    """Reject events off the step grid or at the horizon (the last step
    starts at horizon - dt, so they would never be applied), faults with
    a non-finite admittance, events whose bus or branch the case lacks,
    and repeated trips: one trip removes every parallel copy, so a second
    would subtract the stamp again and leave a negative-admittance line."""
    buses = case.bus_index()
    dt = cfg.dt
    tripped = []
    for ev in schedule:
        if _off_grid(ev.time, dt):
            raise InvalidArgument(f"{ev.kind} at t={ev.time} is off the step grid dt={dt}")
        if ev.time > cfg.horizon - dt / 2:
            raise InvalidArgument(
                f"{ev.kind} at t={ev.time} is at the horizon or past it (never applied)")
        if ev.kind != "branch_trip":
            if ev.bus not in buses:
                raise InvalidArgument(f"{ev.kind} at t={ev.time}: no bus {ev.bus} in case")
            if not cmath.isfinite(ev.admittance):
                raise InvalidArgument(f"{ev.kind} at t={ev.time}: non-finite admittance")
            continue
        if ev.branch is None:
            raise InvalidArgument(f"branch_trip at t={ev.time} names no branch")
        ends = set(ev.branch)
        if not _parallel_branches(case, ends):
            raise InvalidArgument(f"no branch {ev.branch[0]}-{ev.branch[1]} in case")
        if ends in tripped:
            raise InvalidArgument(
                f"branch {ev.branch[0]}-{ev.branch[1]} tripped more than once")
        tripped.append(ends)


def run_simulation(case: GridCase, events, cfg: SimConfig) -> SimResult:
    """Integrate the full system and return trajectories plus an event log.

    Raises SimulationCollapse (with the truncated result attached) on
    Newton failure, a non-finite step residual, a failed network re-solve,
    sustained generator angle separation, or a branch trip that splits
    the network into islands.
    """
    schedule = make_schedule(events)
    _check_events(case, schedule, cfg)
    V0 = power_flow(case)
    dyn = init_dynamics(case, V0)
    eng = _Engine(dyn, cfg)
    n, ng, K = eng.n, eng.ng, eng.K
    dt = cfg.dt
    n_steps = int(round(cfg.horizon / dt))

    delta = dyn.delta0.copy()
    omega = np.ones(ng)
    em = eng._em_array()
    V = dyn.V0.copy()
    # each LEL's workload power over the horizon, held constant across
    # each step; it does not depend on the grid state
    p_path = np.empty((n_steps, K))
    for k, l in enumerate(dyn.lels):
        p_path[:, k] = workload_path(l.params.work, n_steps, dt, (cfg.seed, k))

    T = n_steps + 1
    rec_t = np.empty(T)
    rec_vm = np.empty((T, n))
    rec_va = np.empty((T, n))
    rec_om = np.empty((T, ng))
    rec_dl = np.empty((T, ng))
    rec_lp = np.empty((T, K))
    rec_lq = np.empty((T, K))
    rec_kp = np.empty((T, K))
    rec_pm = np.empty((T, K), dtype=int)
    rec_mm = np.empty((T, K), dtype=int)
    log: list[EventRecord] = []
    kappa_full = np.array([l.params.prot.kappa_full for l in dyn.lels])
    bus_ids = [b.id for b in case.buses]
    lel_ids = [l.bus_id for l in dyn.lels]

    def record(i, t):
        rec_t[i] = t
        rec_vm[i] = np.abs(V)
        rec_va[i] = np.angle(V)
        rec_om[i] = omega
        rec_dl[i] = delta
        S = V[eng.lbus] * np.conj(eng.lel_injection(V[eng.lbus], em)) * eng.s_base
        rec_lp[i] = S.real
        rec_lq[i] = S.imag
        rec_kp[i] = eng.kappa
        rec_pm[i] = [PROT_MODE_ORD[l.prot.mode] for l in dyn.lels]
        rec_mm[i] = (~eng.running).astype(int)

    def make_result(upto, reason=""):
        return SimResult(time=rec_t[:upto], v_mag=rec_vm[:upto], v_ang=rec_va[:upto],
                         gen_omega=rec_om[:upto], gen_delta=rec_dl[:upto],
                         lel_p=rec_lp[:upto], lel_q=rec_lq[:upto],
                         lel_kappa=rec_kp[:upto], lel_mode=rec_pm[:upto],
                         motor_mode=rec_mm[:upto], events=log, bus_ids=bus_ids,
                         gen_buses=[g.bus for g in case.generators],
                         lel_ids=lel_ids, lel_kappa_full=kappa_full,
                         collapsed=bool(reason), collapse_reason=reason)

    def collapse(reason, step, t, upto, residual=0.0):
        return SimulationCollapse(reason, step, t, residual,
                                  make_result(upto, reason))

    ev_i = 0
    tripped = []
    spread_since = None
    record(0, 0.0)

    for step in range(n_steps):
        t = step * dt
        # discrete network changes scheduled at or before this instant;
        # each installs a new matrix, so Y_before keeps the old one
        Y_before = eng.Y
        while ev_i < len(schedule) and schedule[ev_i].time <= t + dt * 1e-6:
            ev = schedule[ev_i]
            bidx = case.bus_index()[ev.bus] if ev.bus is not None else None
            Y = eng.Y.copy()
            if ev.kind == "fault":
                Y[bidx, bidx] += ev.admittance
                log.append(EventRecord(t, None, "fault_applied"))
            elif ev.kind == "clear_fault":
                Y[bidx, bidx] -= ev.admittance
                log.append(EventRecord(t, None, "fault_cleared"))
            else:
                Y -= _stamp(case, _parallel_branches(case, ev.branch))
                log.append(EventRecord(t, None, "branch_tripped"))
                tripped.append(set(ev.branch))
                live = [br for br in case.branches if {br.from_bus, br.to_bus} not in tripped]
                if bus_islands(case, live).max() > 0:
                    raise collapse("islanding", step, t, step + 1)
            eng.set_network(Y)
            ev_i += 1
        net_changed = eng.Y is not Y_before

        eng.p_work = p_path[step]
        if net_changed:
            V, ok = eng.solve_network(V, delta, em)
            if not ok:
                # ramp the network change in; recovers solvable cases where
                # Newton fails from the pre-event start point
                Y_after = eng.Y
                V = rec_vm[step] * np.exp(1j * rec_va[step])
                for frac in (0.03, 0.1, 0.3, 1.0):
                    eng.set_network(Y_before + frac * (Y_after - Y_before))
                    V, ok = eng.solve_network(V, delta, em)
                    if not ok:
                        break
                eng.set_network(Y_after)
            if not ok:
                raise collapse("network_solve", step, t, step + 1, math.inf)

        fd0, fo0, _ = eng.gen_f(delta, omega, V[dyn.gbus])
        fm0, _ = eng.motor_f(em, V[eng.lbus])
        f0 = {"fd": fd0, "fo": fo0, "fm": fm0}
        xk = {"delta": delta, "omega": omega, "em": em}

        z = np.concatenate([delta + dt * fd0, omega + dt * fo0,
                            (em + dt * fm0).ravel(), V.real, V.imag])
        # chord pass reusing the last factorization, then full Newton
        # (refactored every iteration) if the chord stalls
        converged = False
        R = eng.residual(z, xk, f0, dt)
        rmax = np.max(np.abs(R))
        for attempt in range(2):
            if eng._lu is None:
                eng._lu = lu_factor(eng.jacobian(z, dt))
            budget = 8 if attempt == 0 else NEWTON_MAX_ITER
            for _ in range(budget):
                if rmax < NEWTON_TOL:
                    converged = True
                    break
                if not math.isfinite(rmax):
                    break
                if attempt == 1:
                    eng._lu = lu_factor(eng.jacobian(z, dt))
                dz = lu_solve(eng._lu, R)
                # backtrack when the full step overshoots (the injection
                # model has a kink at the low-voltage guard)
                alpha = 1.0
                for _bt in range(6):
                    z_try = z - alpha * dz
                    R_try = eng.residual(z_try, xk, f0, dt)
                    r_try = np.max(np.abs(R_try))
                    if r_try < rmax or r_try < NEWTON_TOL:
                        break
                    alpha *= 0.5
                z, R, rmax = z_try, R_try, r_try
            if converged or not math.isfinite(rmax):
                break
            eng._lu = None
        if not converged:
            reason = "newton" if math.isfinite(rmax) else "non_finite"
            raise collapse(reason, step, t + dt, step + 1, float(rmax))

        delta = z[eng.od:eng.od + ng].copy()
        omega = z[eng.oo:eng.oo + ng].copy()
        em = z[eng.om:eng.om + 3 * K].reshape(3, K).copy()
        V = z[eng.ovr:eng.ovr + n] + 1j * z[eng.ovi:eng.ovi + n]
        t_new = t + dt

        # motor stall and protection state machines
        vm_l = np.abs(V[eng.lbus])
        for k, l in enumerate(dyn.lels):
            was_running = l.motor.mode is MotorMode.RUNNING
            l.motor = stall_update(l.motor, V[eng.lbus[k]], dt, l.params.cool)
            now_running = l.motor.mode is MotorMode.RUNNING
            if was_running and not now_running:
                eng.running[k] = False
                log.append(EventRecord(t_new, l.bus_id, "motor_stall_trip"))
            elif not was_running and now_running:
                em[:, k] = l.motor.ed_p, l.motor.eq_p, l.motor.slip
                eng.tmech[k] = l.motor.t_mech
                eng.running[k] = True
                log.append(EventRecord(t_new, l.bus_id, "motor_restart"))

            prev = l.prot
            om_near = omega[l.nearest_gen]
            l.prot = protection_step(prev, vm_l[k], om_near, dt, l.params.prot)
            eng.kappa[k] = l.prot.kappa
            if prev.mode is not l.prot.mode:
                m = l.prot.mode
                if m is ProtectionMode.SHED and prev.mode in (
                        ProtectionMode.CONNECTED, ProtectionMode.VIOLATION_TIMING):
                    if prev.kappa > l.prot.kappa:
                        log.append(EventRecord(t_new, l.bus_id, "shed"))
                elif m is ProtectionMode.RAMPING and prev.mode in (
                        ProtectionMode.SHED, ProtectionMode.RECOVERY_WAIT):
                    log.append(EventRecord(t_new, l.bus_id, "ramp_start"))
                elif m is ProtectionMode.CONNECTED and prev.kappa < 1.0:
                    log.append(EventRecord(t_new, l.bus_id, "reconnected"))

        record(step + 1, t_new)

        # sustained angle separation counts as collapse
        if ng > 1 and (delta.max() - delta.min()) > ANGLE_SPREAD_LIMIT:
            if spread_since is None:
                spread_since = t_new
            elif t_new - spread_since >= ANGLE_SPREAD_HOLD:
                raise collapse("angle_separation", step, t_new, step + 2)
        else:
            spread_since = None

    return make_result(T)


# ---------------------------------------------------------------------------
# placement, sweeps, and regime detection
# ---------------------------------------------------------------------------

def eligible_lel_buses(case: GridCase) -> list[int]:
    taken = {p.bus for p in case.lels}
    gen_buses = {g.bus for g in case.generators}
    return sorted(b.id for b in case.buses
                  if b.type == "pq" and b.p_load > 0
                  and b.id not in taken and b.id not in gen_buses)


def place_lels(case: GridCase, k: int, seed: int,
               shares: tuple[float, float, float] = (0.6, 0.3, 0.1)) -> GridCase:
    """Attach k LELs at a seed-determined subset of load buses.

    Placements are nested: for a fixed seed the buses chosen for k are
    the first k of the ordering chosen for any larger k, so penetration
    sweeps compare like with like.
    """
    buses = eligible_lel_buses(case)
    if k > len(buses):
        raise InvalidArgument(f"only {len(buses)} eligible buses for k={k}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(buses))
    chosen = [buses[i] for i in perm[:k]]
    placements = []
    archetypes = list(Archetype)
    for b in chosen:
        arch_rng = np.random.default_rng([seed, b])
        arch = archetypes[arch_rng.integers(len(archetypes))]
        placements.append(LelPlacement(bus=b, params=archetype_defaults(arch),
                                       shares=shares))
    return case.with_lels(placements)


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
    t_clear = None
    for e in result.events:
        if e.kind == "fault_cleared":
            t_clear = e.time
    ride_through = len(sheds) == 0 and not result.collapsed

    mass = False
    if len(sheds) >= 3:
        times = np.array(sorted(t for t, _ in sheds))
        window = np.any(times[2:] - times[:-2] <= 0.2) if len(times) >= 3 else False
        omega_high = False
        if t_clear is not None:
            mask = result.time > t_clear
            if mask.any():
                omega_high = result.gen_omega[mask].max() > 1.0 + 1e-4
        mass = bool(window and omega_high)

    staggered = any(ts > tr for ts, _ in sheds for tr, _ in ramps)

    never = result.collapsed
    if not never and len(result.time) and len(sheds):
        final = result.lel_kappa[-1]
        tripped = {l for _, l in sheds}
        for lid in tripped:
            k = result.lel_index[lid]
            if final[k] < result.lel_kappa_full[k] - 1e-9:
                never = True
                break

    return {"ride_through": ride_through, "mass_disconnection": mass,
            "staggered_interaction": staggered, "delayed_or_collapse": never}


def penetration_sweep(case: GridCase, k_values, n_trials: int, cfg: SimConfig,
                      base_seed: int = 0, t_fault: float = 5.0,
                      fault_duration: float = 0.1) -> list[dict]:
    """Median severity metrics versus LEL count.

    Each trial fixes a fault location and a nested placement ordering,
    then reruns the identical disturbance at every k.  Collapsed runs
    contribute worst-case metric values.
    """
    from lelsim.metrics import frequency_overshoot, reconnection_delay, voltage_nadir

    rows = []
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
            if res is None or res.collapsed:
                per_k[k]["nadir"].append(0.0)
                per_k[k]["overshoot"].append(1.0)
                per_k[k]["recon"].append(cfg.horizon)
                continue
            per_k[k]["nadir"].append(voltage_nadir(res, fault_bus))
            per_k[k]["overshoot"].append(frequency_overshoot(res))
            delays = []
            for lid in res.lel_ids:
                d = reconnection_delay(res, lid)
                delays.append(cfg.horizon if d == "never" else d)
            per_k[k]["recon"].append(max(delays) if delays else 0.0)
    for k in k_values:
        rows.append({"k": k,
                     "nadir_median": float(np.median(per_k[k]["nadir"])),
                     "overshoot_median": float(np.median(per_k[k]["overshoot"])),
                     "reconnection_median": float(np.median(per_k[k]["recon"]))})
    return rows


# ---------------------------------------------------------------------------
# result serialization
# ---------------------------------------------------------------------------

def result_to_csv(result: SimResult) -> str:
    cols = ["t"]
    cols += [f"v_mag_bus{b}" for b in result.bus_ids]
    cols += [f"omega_gen{b}" for b in result.gen_buses]
    cols += [f"kappa_lel{b}" for b in result.lel_ids]
    cols += [f"p_lel{b}" for b in result.lel_ids]
    data = np.column_stack([result.time, result.v_mag, result.gen_omega] +
                           ([result.lel_kappa, result.lel_p] if len(result.lel_ids)
                            else []))
    lines = [",".join(cols)]
    for row in data:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def events_to_csv(result: SimResult) -> str:
    lines = ["time,lel_id,kind"]
    for e in result.events:
        lel = "" if e.lel_id is None else str(e.lel_id)
        lines.append(f"{e.time!r},{lel},{e.kind}")
    return "\n".join(lines) + "\n"
