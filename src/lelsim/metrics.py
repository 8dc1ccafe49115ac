"""Shape-similarity metrics and system-level disturbance metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lelsim.errors import InvalidArgument

MAX_LAG_FRAC = 0.25
# a kappa this close below its full reconnection target counts as back at it
KAPPA_FULL_TOL = 1e-9


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

    D is the (n+1) x (m+1) table with an infinite border and D[0, 0] = 0
    (Sakoe & Chiba 1978).  Cells on the anti-diagonal i + j = k depend only
    on diagonals k-1 and k-2: three rows indexed by i hold those, and each
    diagonal is one slice update (reversing b makes its costs a slice).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise InvalidArgument("dtw_distance inputs must be non-empty")
    if normalize:
        a = z_normalize(a)
        b = z_normalize(b)
    n, m = len(a), len(b)
    br = b[::-1]  # b[j-1] = br[m-k+i] on diagonal k
    prev2, prev1, cur = np.full((3, n + 1), np.inf)
    prev2[0] = 0.0
    for k in range(2, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1) + 1
        cur.fill(np.inf)
        # D[i, j] = |a[i-1] - b[j-1]| + min(D[i, j-1], D[i-1, j], D[i-1, j-1])
        cur[lo:hi] = np.abs(a[lo - 1:hi - 1] - br[m - k + lo:m - k + hi]) + np.minimum(
            np.minimum(prev1[lo:hi], prev1[lo - 1:hi - 1]), prev2[lo - 1:hi - 1])
        prev2, prev1, cur = prev1, cur, prev2
    return float(prev1[n])


def max_cross_correlation(a, b) -> float:
    """Max Pearson correlation of overlapping segments over lags.

    Lags range over |l| <= MAX_LAG_FRAC * len; raises InvalidArgument on a
    zero-variance overlap of either input.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 4 or len(b) < 4:
        raise InvalidArgument("series must have length >= 4")
    n = min(len(a), len(b))
    max_lag = int(MAX_LAG_FRAC * n)
    best = -np.inf
    defined = False
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            xa, xb = a[lag:lag + n - lag], b[:n - lag]
        else:
            xa, xb = a[:n + lag], b[-lag:n]
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
        raise InvalidArgument("constant series: cross-correlation undefined")
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


def metric_report(a, b) -> MetricReport:
    return MetricReport(dtw=dtw_distance(a, b),
                        max_xcorr=max_cross_correlation(a, b),
                        cosine=cosine_similarity(a, b))


# ---------------------------------------------------------------------------
# system-level metrics on a SimResult
# ---------------------------------------------------------------------------

def clear_time(result):
    """Time of the first fault clearing in the event log, or None."""
    return next((ev.time for ev in result.events if ev.kind == "fault_cleared"), None)


def _after_clearing(result):
    """Index of the samples after the first fault clearing: all samples
    when the log has no clearing, else the mask time > t_clear."""
    t_clear = clear_time(result)
    if t_clear is None:
        return slice(None)
    after = result.time > t_clear
    if not after.any():
        raise InvalidArgument("no samples after fault clearing")
    return after


def voltage_nadir(result, bus: int) -> float:
    """Minimum |V| at a bus after fault clearing, or over the full
    horizon when the event log has no clearing."""
    if bus not in result.bus_index:
        raise InvalidArgument(f"unknown bus {bus}")
    return float(result.v_mag[_after_clearing(result), result.bus_index[bus]].min())


def frequency_overshoot(result) -> float:
    """Max |omega - 1| over all generators after fault clearing, or over
    the full horizon when the event log has no clearing."""
    return float(np.abs(result.gen_omega[_after_clearing(result)] - 1.0).max())


def reconnection_delay(result, lel: int):
    """Seconds from fault clearing until kappa first returns to its full
    reconnection target; "never" if that does not happen within the
    horizon; 0 for an LEL that never tripped.
    """
    if lel not in result.lel_index:
        raise InvalidArgument(f"unknown LEL id {lel}")
    k = result.lel_index[lel]
    kappa = result.lel_kappa[:, k]
    target = result.lel_kappa_full[k] - KAPPA_FULL_TOL
    t_clear = clear_time(result) or 0.0
    low = (kappa < target) & (result.time > t_clear)
    if not low.any():
        return 0.0
    first = low.argmax()
    back = np.flatnonzero(kappa[first:] >= target)
    if len(back) == 0:
        return "never"
    return float(result.time[first + back[0]] - t_clear)
