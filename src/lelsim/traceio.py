"""Uniformly sampled multi-channel traces, their CSV round-trip, and the
step grid that simulations sample them on."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from lelsim.errors import InvalidArgument

# Relative jitter allowed in the time column before it is rejected
# as non-uniform.
_MAX_REL_JITTER = 1e-9


def off_grid(t: float, dt: float) -> bool:
    """Whether t misses the step grid k*dt by more than dt*1e-6; a time
    on the grid belongs to step round(t / dt)."""
    return abs(t - round(t / dt) * dt) > dt * 1e-6


def step_count(horizon: float, dt: float) -> int:
    """The number of steps dt in a finite horizon > dt > 0, which must be
    a whole number of them."""
    if not 0 < dt < horizon < math.inf:
        raise InvalidArgument("need finite horizon > dt > 0")
    if off_grid(horizon, dt):
        raise InvalidArgument(f"horizon {horizon} is not a whole number of steps dt={dt}")
    return round(horizon / dt)


@dataclass
class Trace:
    """Multi-channel time series with a fixed sample period.

    channels maps channel name -> 1-D float array; all channels have the
    same length.
    """

    sample_period: float
    channels: dict[str, np.ndarray]

    def __post_init__(self):
        if self.sample_period <= 0:
            raise InvalidArgument("sample_period must be > 0")
        if not self.channels:
            raise InvalidArgument("trace needs at least one channel")
        lengths = {len(v) for v in self.channels.values()}
        if len(lengths) != 1:
            raise InvalidArgument("all channels must have the same length")
        self.channels = {k: np.asarray(v, dtype=float) for k, v in self.channels.items()}

    def __len__(self):
        return len(next(iter(self.channels.values())))

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self)) * self.sample_period

    def first_channel(self) -> np.ndarray:
        return next(iter(self.channels.values()))


def read_trace(path) -> Trace:
    """Read the trace CSV at path, with header ``t,<channel>,...``.

    It needs at least two data rows, and the time column must be strictly
    increasing and uniform within relative jitter 1e-9.  Raises
    InvalidArgument naming the offending row or channel.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InvalidArgument("empty trace file")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "t":
        raise InvalidArgument("first column of a trace file must be 't'")
    names = header[1:]
    if not names:
        raise InvalidArgument("trace file has no data channels")
    for j, name in enumerate(names):
        if name in names[:j]:
            raise InvalidArgument(f"channel {name!r} appears more than once in the header")

    data = np.empty((len(rows) - 1, len(header)), dtype=float)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise InvalidArgument(f"row {i}: expected {len(header)} fields, got {len(row)}")
        try:
            data[i - 2] = [float(x) for x in row]
        except ValueError as exc:
            raise InvalidArgument(f"row {i}: {exc}") from exc
    if not np.isfinite(data).all():
        bad = int(np.argwhere(~np.isfinite(data))[0, 0]) + 2
        raise InvalidArgument(f"row {bad}: non-finite value")
    t = data[:, 0]
    if len(t) < 2:
        raise InvalidArgument(f"trace file has {len(t)} data row(s); a sample "
                              "period needs at least 2")
    steps = np.diff(t)
    if (steps <= 0).any():
        bad = int(np.argmax(steps <= 0)) + 3
        raise InvalidArgument(f"row {bad}: time column not strictly increasing")
    dt = float(steps[0])
    if np.abs(steps - dt).max() > _MAX_REL_JITTER * max(abs(t[-1]), dt):
        bad = int(np.argmax(np.abs(steps - dt))) + 3
        raise InvalidArgument(f"row {bad}: non-uniform sample period")
    channels = {name: data[:, j + 1].copy() for j, name in enumerate(names)}
    return Trace(sample_period=dt, channels=channels)


def write_trace(trace: Trace, path) -> None:
    """Write a trace as CSV to path (inverse of read_trace, full precision)."""
    names = list(trace.channels)
    t = trace.times
    cols = [trace.channels[n] for n in names]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + names)
        for i in range(len(trace)):
            writer.writerow([repr(float(t[i]))] + [repr(float(c[i])) for c in cols])
