"""Shape-similarity metrics and system-level disturbance metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lelsim.errors import InvalidArgument, UndefinedMetric


@dataclass(frozen=True)
class MetricReport:
    dtw: float
    max_xcorr: float
    cosine: float

    def csv_row(self, label: str) -> str:
        return f"{label},{self.dtw!r},{self.max_xcorr!r},{self.cosine!r}"


def z_normalize(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    sd = x.std()
    if sd == 0:
        return x - x.mean()
    return (x - x.mean()) / sd


def dtw_distance(a, b, normalize: bool = True) -> float:
    """Classic DP dynamic time warping with absolute-difference cost.

    Inputs are z-normalized by default; pass normalize=False for the raw
    distance.  Symmetric, >= 0, and 0 for identical sequences.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise InvalidArgument("dtw_distance inputs must be non-empty")
    if normalize:
        a = z_normalize(a)
        b = z_normalize(b)
    n, m = len(a), len(b)
    # anti-diagonal DP: every cell on diagonal i+j=k depends only on
    # diagonals k-1 and k-2, so each diagonal updates as one vector op
    prev2 = np.full(n, np.inf)  # D over rows on diagonal k-2
    prev1 = np.full(n, np.inf)  # ... on diagonal k-1
    cur = np.full(n, np.inf)
    for k in range(n + m - 1):
        lo = max(0, k - m + 1)
        hi = min(n - 1, k)
        i = np.arange(lo, hi + 1)
        cost = np.abs(a[i] - b[k - i])
        left = prev1[lo:hi + 1]                      # D[i, j-1]
        up = np.full(len(i), np.inf)                 # D[i-1, j]
        diag = np.full(len(i), np.inf)               # D[i-1, j-1]
        if lo > 0:
            up = prev1[lo - 1:hi]
            diag = prev2[lo - 1:hi]
        elif len(i) > 1:
            up[1:] = prev1[lo:hi]
            diag[1:] = prev2[lo:hi]
        best = np.minimum(np.minimum(left, up), diag)
        if k == 0:
            best = np.zeros(1)
        cur.fill(np.inf)
        cur[lo:hi + 1] = cost + best
        prev2, prev1, cur = prev1, cur, prev2
    return float(prev1[n - 1])


def max_cross_correlation(a, b, max_lag_frac: float = 0.25) -> float:
    """Max Pearson correlation of overlapping segments over lags.

    Lags range over |l| <= max_lag_frac * len; raises UndefinedMetric on a
    zero-variance overlap of either input.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 4 or len(b) < 4:
        raise InvalidArgument("series must have length >= 4")
    if not (0 < max_lag_frac <= 0.5):
        raise InvalidArgument("max_lag_frac must lie in (0, 0.5]")
    n = min(len(a), len(b))
    max_lag = int(max_lag_frac * n)
    best = -np.inf
    defined = False
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            xa, xb = a[lag:lag + n - lag], b[:n - lag]
        else:
            xa, xb = a[:n + lag], b[-lag:n]
        if len(xa) < 2:
            continue
        sa, sb = xa.std(), xb.std()
        if sa == 0 or sb == 0:
            continue
        if np.array_equal(xa, xb):
            # identical overlap: exact unity, bypassing rounding
            r = 1.0
        else:
            r = float(np.corrcoef(xa, xb)[0, 1])
        best = max(best, r)
        defined = True
    if not defined:
        raise UndefinedMetric("constant series: cross-correlation undefined")
    return min(1.0, max(-1.0, best))


def cosine_similarity(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InvalidArgument("series must have equal length")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise InvalidArgument("cosine similarity undefined for a zero vector")
    if np.array_equal(a, b):
        # identical vectors: exact unity, bypassing rounding
        return 1.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def metric_report(a, b, max_lag_frac: float = 0.25) -> MetricReport:
    return MetricReport(dtw=dtw_distance(a, b),
                        max_xcorr=max_cross_correlation(a, b, max_lag_frac),
                        cosine=cosine_similarity(a, b))


# ---------------------------------------------------------------------------
# system-level metrics on a SimResult
# ---------------------------------------------------------------------------

def clear_time(result):
    """Time of the first fault clearing in the event log, or None."""
    for ev in result.events:
        if ev.kind == "fault_cleared":
            return ev.time
    return None


def voltage_nadir(result, bus: int) -> float:
    """Minimum post-fault-clear |V| at a bus.

    Without a fault in the event log the minimum is taken over the full
    horizon.
    """
    if bus not in result.bus_index:
        raise InvalidArgument(f"unknown bus {bus}")
    v = result.v_mag[:, result.bus_index[bus]]
    t_clear = clear_time(result)
    if t_clear is None:
        return float(v.min())
    mask = result.time > t_clear
    if not mask.any():
        raise InvalidArgument("no samples after fault clearing")
    return float(v[mask].min())


def frequency_overshoot(result) -> float:
    """Max |omega - 1| over all generators after fault clearing."""
    t_clear = clear_time(result)
    dev = np.abs(result.gen_omega - 1.0)
    if t_clear is None:
        return float(dev.max())
    mask = result.time > t_clear
    if not mask.any():
        raise InvalidArgument("no samples after fault clearing")
    return float(dev[mask].max())


def reconnection_delay(result, lel: int):
    """Seconds from fault clearing until kappa first returns to its full
    reconnection target; "never" if that does not happen within the
    horizon; 0 for an LEL that never tripped.
    """
    if lel not in result.lel_index:
        raise InvalidArgument(f"unknown LEL id {lel}")
    k = result.lel_index[lel]
    kappa = result.lel_kappa[:, k]
    target = result.lel_kappa_full[k]
    t_clear = clear_time(result)
    if t_clear is None:
        t_clear = 0.0
    after = result.time > t_clear
    tripped = kappa[after] < target - 1e-12
    if not tripped.any():
        return 0.0
    # first return to target after the first post-clear trip
    idx_after = np.flatnonzero(after)
    first_trip = idx_after[np.argmax(tripped)]
    restored = np.flatnonzero(kappa >= target - 1e-12)
    restored = restored[restored > first_trip]
    if len(restored) == 0:
        return "never"
    return float(result.time[restored[0]] - t_clear)
