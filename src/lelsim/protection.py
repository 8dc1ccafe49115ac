"""Grid-interfacing protection and staged-recovery state machine.

A violation of the voltage or frequency band must persist for
t_delay_trip before the retained-load fraction kappa steps down to
kappa_min.  Restoration requires the bus to sit in-band continuously
for t_wait_recon and at least t_delay_recon to have elapsed since the
trip, after which kappa ramps back at rate r_kappa.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from lelsim.errors import InvalidArgument, ValidationError, require_finite


class ProtectionMode(enum.Enum):
    CONNECTED = "connected"
    VIOLATION_TIMING = "violation_timing"
    SHED = "shed"
    RECOVERY_WAIT = "recovery_wait"
    RAMPING = "ramping"


# the standardized disclosure form's keys, in form order, and the
# ProtectionParams field each one holds
_FIELD_MAP = {
    "v_ref": "V_ref", "omega_ref": "omega_ref", "delta_v": "dV",
    "delta_omega": "dOmega", "t_delay_trip": "t_delay_trip",
    "t_wait_recon": "t_wait_recon", "t_delay_recon": "t_delay_recon",
    "kappa_min": "kappa_min", "kappa_max": "kappa_max", "r_kappa": "r_kappa",
}
# exact key set of the standardized disclosure form
DISCLOSURE_FIELDS = tuple(_FIELD_MAP)


@dataclass(frozen=True)
class ProtectionParams:
    V_ref: float          # pu nominal voltage
    omega_ref: float      # pu nominal frequency
    dV: float             # pu voltage band half-width
    dOmega: float         # pu frequency band half-width
    t_delay_trip: float   # s, sustained violation before shedding
    t_wait_recon: float   # s, continuous in-band dwell before ramping
    t_delay_recon: float  # s, minimum time since trip before ramping
    kappa_min: float
    kappa_max: float
    r_kappa: float        # 1/s restoration ramp rate

    def __post_init__(self):
        require_finite(self, ValidationError)
        if not (0 < self.kappa_min <= self.kappa_max <= 1):
            raise ValidationError("need 0 < kappa_min <= kappa_max <= 1")
        for name in ("t_delay_trip", "t_wait_recon", "t_delay_recon"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.dV <= 0 or self.dOmega <= 0:
            raise ValidationError("dV and dOmega must be > 0")
        if self.r_kappa <= 0:
            raise ValidationError("r_kappa must be > 0")

    @property
    def kappa_full(self) -> float:
        """Target reached at full reconnection: min(kappa_max, 1)."""
        return min(self.kappa_max, 1.0)


@dataclass(frozen=True)
class ProtectionState:
    mode: ProtectionMode = ProtectionMode.CONNECTED
    kappa: float = 1.0
    violation_timer: float = 0.0
    stable_timer: float = 0.0
    since_trip_timer: float = 0.0


def in_band(v_mag: float, omega: float, params: ProtectionParams) -> bool:
    return (abs(v_mag - params.V_ref) <= params.dV
            and abs(omega - params.omega_ref) <= params.dOmega)


def protection_step(state: ProtectionState, v_mag: float, omega: float,
                    dt: float, params: ProtectionParams) -> ProtectionState:
    """Advance the protection state machine by one step of length dt.

    Timers advance by exactly dt per step and threshold comparisons use
    >=.  Deterministic: identical input sequences give identical
    mode/kappa sequences.
    """
    if dt <= 0:
        raise InvalidArgument("dt must be > 0")
    ok = in_band(v_mag, omega, params)
    mode = state.mode

    if mode is ProtectionMode.CONNECTED:
        if ok:
            return state
        return _tick_violation(state, dt, params, kappa=1.0)

    if mode is ProtectionMode.VIOLATION_TIMING:
        if ok:
            # violation cleared before the trip delay: full reset
            if state.kappa >= 1.0:
                return ProtectionState()
            # re-violation during ramping was being timed; resume ramping
            return replace(state, mode=ProtectionMode.RAMPING, violation_timer=0.0,
                           since_trip_timer=state.since_trip_timer + dt)
        return _tick_violation(state, dt, params, kappa=state.kappa)

    if mode in (ProtectionMode.SHED, ProtectionMode.RECOVERY_WAIT):
        since = state.since_trip_timer + dt
        if not ok:
            # a violation resets the dwell clock; no re-trip needed, load is shed
            return replace(state, mode=ProtectionMode.SHED, stable_timer=0.0,
                           since_trip_timer=since)
        stable = state.stable_timer + dt
        if stable >= params.t_wait_recon and since >= params.t_delay_recon:
            return replace(state, mode=ProtectionMode.RAMPING, stable_timer=stable,
                           since_trip_timer=since)
        return replace(state, mode=ProtectionMode.RECOVERY_WAIT, stable_timer=stable,
                       since_trip_timer=since)

    # RAMPING
    since = state.since_trip_timer + dt
    if not ok:
        # hold kappa and time the new violation; may trip this step
        return _tick_violation(replace(state, stable_timer=0.0), dt, params,
                               kappa=state.kappa)
    target = params.kappa_full
    kappa = min(state.kappa + params.r_kappa * dt, target)
    if kappa >= 1.0:
        return ProtectionState()  # fully reconnected
    # a kappa_max below unity caps the ramp: kappa then holds at the cap
    return replace(state, kappa=kappa, since_trip_timer=since)


def _tick_violation(state: ProtectionState, dt: float, params: ProtectionParams,
                    kappa: float) -> ProtectionState:
    timer = state.violation_timer + dt
    since = state.since_trip_timer + dt if state.kappa < 1.0 else 0.0
    if timer >= params.t_delay_trip:
        return ProtectionState(mode=ProtectionMode.SHED, kappa=params.kappa_min,
                               violation_timer=0.0, stable_timer=0.0,
                               since_trip_timer=0.0)
    return replace(state, mode=ProtectionMode.VIOLATION_TIMING,
                   violation_timer=timer, kappa=kappa, since_trip_timer=since)


def parse_kv_document(text: str) -> dict[str, str]:
    """Flat key = value (or key: value) structured text; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, val = line.split(sep, 1)
                out[key.strip()] = val.strip()
                break
        else:
            raise ValidationError(f"line {lineno}: expected 'key = value'")
    return out


def load_protection_disclosure(document: str) -> ProtectionParams:
    """Parse a standardized disclosure form into validated ProtectionParams."""
    kv = parse_kv_document(document)
    missing = [f for f in DISCLOSURE_FIELDS if f not in kv]
    if missing:
        raise ValidationError(f"disclosure form missing field(s): {', '.join(missing)}")
    values = {}
    for key, attr in _FIELD_MAP.items():
        try:
            values[attr] = float(kv[key])
        except ValueError as exc:
            raise ValidationError(f"field {key}: {exc}") from exc
    return ProtectionParams(**values)


def dump_protection_disclosure(params: ProtectionParams) -> str:
    """Serialize ProtectionParams as a disclosure form (parse round-trips)."""
    lines = [f"{key} = {getattr(params, attr)!r}" for key, attr in _FIELD_MAP.items()]
    return "\n".join(lines) + "\n"
