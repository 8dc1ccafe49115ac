"""Grid-interfacing protection and staged-recovery state machine.

A violation of the voltage or frequency band must persist for
t_delay_trip before the retained-load fraction kappa steps down to
kappa_min.  Restoration requires the bus to sit in-band continuously
for t_wait_recon and at least t_delay_recon to have elapsed since the
trip, after which kappa ramps back at rate r_kappa.  A violation during
the ramp holds kappa while it is timed, and the ramp resumes if it
clears before the trip delay.

Each timer runs only in the modes that read it and is held at 0 in every
other: the violation timer in VIOLATION_TIMING, the dwell and since-trip
timers while the load is shed (SHED and RECOVERY_WAIT).
"""

from __future__ import annotations

import enum
from dataclasses import astuple, dataclass

from lelsim.errors import InvalidArgument, require_finite


class ProtectionMode(enum.IntEnum):
    """Each mode's value is the ordinal the grid engine records.  CONNECTED
    is 0 and so false: compare modes, never test their truth."""
    CONNECTED = 0
    VIOLATION_TIMING = 1
    SHED = 2
    RECOVERY_WAIT = 3
    RAMPING = 4


# the standardized disclosure form's keys, in form order, and the
# ProtectionParams field each one holds
_FIELD_MAP = {
    "v_ref": "V_ref", "omega_ref": "omega_ref", "delta_v": "dV",
    "delta_omega": "dOmega", "t_delay_trip": "t_delay_trip",
    "t_wait_recon": "t_wait_recon", "t_delay_recon": "t_delay_recon",
    "kappa_min": "kappa_min", "kappa_max": "kappa_max", "r_kappa": "r_kappa",
}


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
        require_finite(self)
        if not (0 < self.kappa_min <= self.kappa_max <= 1):
            raise InvalidArgument("need 0 < kappa_min <= kappa_max <= 1")
        for name in ("t_delay_trip", "t_wait_recon", "t_delay_recon"):
            if getattr(self, name) < 0:
                raise InvalidArgument(f"{name} must be >= 0")
        if self.dV <= 0 or self.dOmega <= 0:
            raise InvalidArgument("dV and dOmega must be > 0")
        if self.r_kappa <= 0:
            raise InvalidArgument("r_kappa must be > 0")

    @property
    def kappa_full(self) -> float:
        """Target reached at full reconnection: min(kappa_max, 1)."""
        return min(self.kappa_max, 1.0)


@dataclass(frozen=True)
class ProtectionState:
    mode: ProtectionMode = ProtectionMode.CONNECTED
    kappa: float = 1.0
    # each timer is read in the modes named and is 0 in every other mode
    violation_timer: float = 0.0   # s out of band: VIOLATION_TIMING
    stable_timer: float = 0.0      # s in band since shed: SHED, RECOVERY_WAIT
    since_trip_timer: float = 0.0  # s since the trip: SHED, RECOVERY_WAIT


def in_band(v_mag: float, omega: float, params: ProtectionParams) -> bool:
    return (abs(v_mag - params.V_ref) <= params.dV
            and abs(omega - params.omega_ref) <= params.dOmega)


def protection_step(state: ProtectionState, v_mag: float, omega: float,
                    dt: float, params: ProtectionParams) -> ProtectionState:
    """Advance the protection state machine by one step of length dt.

    Each timer adds dt per step in floating point and thresholds compare
    with >=, so a delay of a whole number of steps can take one step more
    when the sum rounds low: 2.0 s at dt = 5 ms takes 401 steps (ROADMAP
    item 8).  Deterministic: identical input sequences give identical
    mode/kappa sequences.  A thin wrapper over `protection_transition`.
    """
    if dt <= 0:
        raise InvalidArgument("dt must be > 0")
    return ProtectionState(*protection_transition(
        state.mode, state.kappa, state.violation_timer, state.stable_timer,
        state.since_trip_timer, in_band(v_mag, omega, params), dt, params))


_RESET = astuple(ProtectionState())


def protection_transition(mode: ProtectionMode, kappa: float, violation_timer: float,
                          stable_timer: float, since_trip_timer: float, ok: bool,
                          dt: float, params: ProtectionParams) -> tuple:
    """One step of the machine on plain values: ProtectionState's fields
    in order, whether the bus is in band, and dt > 0.  Returns the five
    fields after the step, each timer 0 outside the modes that read it.
    CONNECTED and in band returns the reset state, which is then its
    input; the grid engine skips the call."""
    P = ProtectionMode
    if mode is P.SHED or mode is P.RECOVERY_WAIT:
        since = since_trip_timer + dt
        if not ok:
            # a violation resets the dwell clock; no re-trip needed, load is shed
            return P.SHED, kappa, 0.0, 0.0, since
        stable = stable_timer + dt
        if stable >= params.t_wait_recon and since >= params.t_delay_recon:
            return P.RAMPING, kappa, 0.0, 0.0, 0.0
        return P.RECOVERY_WAIT, kappa, 0.0, stable, since

    if not ok:
        # time the violation holding kappa; shed once it lasts t_delay_trip
        timer = violation_timer + dt
        if timer >= params.t_delay_trip:
            return P.SHED, params.kappa_min, 0.0, 0.0, 0.0
        return P.VIOLATION_TIMING, kappa, timer, 0.0, 0.0

    if mode is P.RAMPING:
        kappa = min(kappa + params.r_kappa * dt, params.kappa_full)
    if kappa >= 1.0:
        return _RESET  # connected, or fully reconnected
    # a violation that cleared before the trip delay resumes the ramp on
    # the next step; a kappa_max below unity caps the ramp, and kappa then
    # holds at the cap
    return P.RAMPING, kappa, 0.0, 0.0, 0.0


def parse_kv_document(text: str) -> dict[str, str]:
    """Flat key = value (or key: value) structured text; '#' starts a
    comment.  A key given twice is rejected naming both lines."""
    out, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, val = (part.strip() for part in line.split(sep, 1))
                break
        else:
            raise InvalidArgument(f"line {lineno}: expected 'key = value'")
        if key in out:
            raise InvalidArgument(f"line {lineno}: key {key!r} repeats line {lines[key]}")
        out[key], lines[key] = val, lineno
    return out


def reject_unknown_keys(kv: dict[str, str], known, form: str) -> None:
    """An InvalidArgument naming every key of kv outside known."""
    unknown = [key for key in kv if key not in known]
    if unknown:
        raise InvalidArgument(f"{form} has unknown key(s) {', '.join(unknown)}")


def read_fields(kv: dict[str, str], keys: dict[str, str], cls, form: str):
    """cls built from the float values in kv of keys, which maps each key
    of the form to the field of cls it holds.  An InvalidArgument names
    every missing key, or else the first value that is not a number."""
    missing = [key for key in keys if key not in kv]
    if missing:
        raise InvalidArgument(f"{form} missing {', '.join(missing)}")
    values = {}
    for key, name in keys.items():
        try:
            values[name] = float(kv[key])
        except ValueError as exc:
            raise InvalidArgument(f"{key}: {exc}") from exc
    return cls(**values)


def load_protection_disclosure(document: str) -> ProtectionParams:
    """Parse a standardized disclosure form into validated ProtectionParams."""
    kv = parse_kv_document(document)
    reject_unknown_keys(kv, _FIELD_MAP, "disclosure form")
    return read_fields(kv, _FIELD_MAP, ProtectionParams, "disclosure form")


def dump_protection_disclosure(params: ProtectionParams) -> str:
    """Serialize ProtectionParams as a disclosure form (parse round-trips)."""
    lines = [f"{key} = {getattr(params, attr)!r}" for key, attr in _FIELD_MAP.items()]
    return "\n".join(lines) + "\n"
