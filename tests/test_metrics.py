"""Unit tests for trace similarity metrics and simulation-level metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelsim.errors import InvalidArgument
from lelsim.grid import EventRecord, SimResult
from lelsim.metrics import (
    KAPPA_FULL_TOL,
    cosine_similarity,
    dtw_distance,
    frequency_overshoot,
    max_cross_correlation,
    metric_report,
    reconnection_delay,
    voltage_nadir,
    z_normalize,
)


def textbook_dtw(a, b):
    """DTW by the double loop over an (n+1) x (m+1) table with an
    infinite border and D[0, 0] = 0."""
    n, m = len(a), len(b)
    D = np.full((n + 1, m + 1), np.inf)
    D[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            D[i, j] = abs(a[i - 1] - b[j - 1]) + min(D[i - 1, j], D[i, j - 1],
                                                     D[i - 1, j - 1])
    return float(D[n, m])


class TestDtw:
    def test_hand_computed_example(self):
        # alignment 1-1, 2-2, 2(extra)-2, 3-3 costs zero
        assert dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0],
                            normalize=False) == 0.0

    def test_hand_computed_nonzero(self):
        # best path: |1-2| + |3-2| with the middle 2 matched free
        assert dtw_distance([1.0, 2.0, 3.0], [2.0, 2.0, 2.0],
                            normalize=False) == pytest.approx(2.0)

    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        assert dtw_distance(x, x) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(30), rng.standard_normal(40)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = rng.standard_normal(15), rng.standard_normal(15)
            assert dtw_distance(a, b) >= 0.0

    def test_at_most_pointwise_cost(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(25), rng.standard_normal(25)
        pointwise = float(np.sum(np.abs(a - b)))
        assert dtw_distance(a, b, normalize=False) <= pointwise + 1e-12

    def test_shift_invariance_via_normalization(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(30)
        assert dtw_distance(a, a + 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgument):
            dtw_distance([], [1.0])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
           st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
           st.booleans())
    def test_bitwise_equal_to_the_textbook_recurrence(self, a, b, normalize):
        a, b = np.array(a), np.array(b)
        want = (textbook_dtw(z_normalize(a), z_normalize(b)) if normalize
                else textbook_dtw(a, b))
        got = dtw_distance(a, b, normalize=normalize)
        assert np.array_equal(np.float64(got), np.float64(want))


class TestCosine:
    def test_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(20)
        assert cosine_similarity(x, x) == 1.0

    def test_antiparallel(self):
        x = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(x, -x) == -1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidArgument):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_vectors_at_45_degrees(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / np.sqrt(2))


def reference_xcorr(a, b):
    """Max Pearson correlation of the pairs (a[t + lag], b[t]), t and
    t + lag both below the shorter length n, over |lag| <= n / 4."""
    n = min(len(a), len(b))
    max_lag = int(0.25 * n)
    best = -np.inf
    for lag in range(-max_lag, max_lag + 1):
        t = np.array([t for t in range(n) if 0 <= t + lag < n])
        best = max(best, np.corrcoef(a[t + lag], b[t])[0, 1])
    return best


class TestMaxCrossCorrelation:
    def test_identity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(40)
        assert max_cross_correlation(x, x) == 1.0

    def test_recovers_shifted_copy(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100)
        assert max_cross_correlation(x[:80], x[10:90]) == pytest.approx(1.0)

    def test_constant_series_undefined(self):
        with pytest.raises(InvalidArgument):
            max_cross_correlation(np.ones(20), np.arange(20.0))

    def test_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = rng.standard_normal(20), rng.standard_normal(20)
            assert -1.0 <= max_cross_correlation(a, b) <= 1.0

    @pytest.mark.parametrize("short", [3, 2])
    def test_series_shorter_than_four_rejected(self, short):
        x = np.arange(10.0) % 3
        for a, b in ((x[:short], x), (x, x[:short])):
            with pytest.raises(InvalidArgument, match="length >= 4"):
                max_cross_correlation(a, b)

    def test_series_of_four_accepted(self):
        assert max_cross_correlation([0.0, 1.0, 0.0, 2.0], [0.0, 1.0, 0.0, 2.0]) == 1.0

    @pytest.mark.parametrize("la, lb", [(30, 41), (41, 30), (36, 36)])
    def test_unequal_lengths_use_the_first_samples_of_the_longer(self, la, lb):
        rng = np.random.default_rng(la * lb)
        a, b = rng.standard_normal(la), rng.standard_normal(lb)
        assert max_cross_correlation(a, b) == pytest.approx(reference_xcorr(a, b),
                                                            rel=1e-12)

    @pytest.mark.parametrize("lead", [True, False])
    def test_best_overlap_at_the_largest_lag_is_found(self, lead):
        # n = 40 allows |lag| <= 10; b is a shifted 10 samples either way
        x = np.random.default_rng(12).standard_normal(50)
        a, b = (x[:40], x[10:]) if lead else (x[10:], x[:40])
        assert max_cross_correlation(a, b) == 1.0


class TestZNormalize:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(9)
        z = z_normalize(rng.standard_normal(50) * 3 + 7)
        assert abs(z.mean()) < 1e-12
        assert z.std() == pytest.approx(1.0)

    def test_constant_input_centered_only(self):
        z = z_normalize(np.full(5, 4.0))
        assert np.allclose(z, 0.0)


class TestMetricReport:
    def test_self_report_identities(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(40)
        report = metric_report(x, x)
        assert report.dtw == 0.0
        assert report.cosine == 1.0
        assert report.max_xcorr == 1.0

    def test_csv_row_format(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(40)
        row = metric_report(x, x).csv_row("self")
        parts = row.split(",")
        assert parts[0] == "self"
        assert len(parts) == 4


def sim_result(v=None, omega=None, kappa=None, kappa_full=None, t_clear=None):
    """A hand-built SimResult on t = 0, 0.25, ..., 2 s with one bus (id 1),
    one generator and one LEL (id 7); a fault applied at 0.5 s and cleared
    at t_clear when t_clear is given."""
    t = 0.25 * np.arange(9)
    T = len(t)
    one = np.ones((T, 1))
    events = []
    if t_clear is not None:
        events = [EventRecord(0.5, None, "fault_applied"),
                  EventRecord(t_clear, None, "fault_cleared")]
    kappa = one if kappa is None else np.asarray(kappa, dtype=float)[:, None]
    return SimResult(
        time=t, v_mag=one if v is None else np.asarray(v, dtype=float)[:, None],
        v_ang=0 * one, gen_omega=one if omega is None else np.asarray(omega)[:, None],
        gen_delta=0 * one, lel_p=one, lel_q=0 * one, lel_kappa=kappa,
        lel_mode=0 * one, motor_mode=0 * one, events=events, bus_ids=[1],
        gen_buses=[1], lel_ids=[7],
        lel_kappa_full=np.array([1.0 if kappa_full is None else kappa_full]))


class TestSeverityMetrics:
    # the deepest sag and the largest swing sit at t = 0.5 s, before and at
    # the clearing; the post-clearing extremes sit at t = 1.25 s
    V = [1.0, 0.99, 0.2, 0.6, 0.95, 0.9, 0.97, 0.99, 1.0]
    OMEGA = [1.0, 1.0, 1.01, 0.998, 1.002, 1.003, 1.001, 1.0, 1.0]

    def test_nadir_over_the_whole_horizon_without_a_clearing(self):
        assert voltage_nadir(sim_result(v=self.V), 1) == 0.2

    def test_nadir_after_the_clearing_only(self):
        assert voltage_nadir(sim_result(v=self.V, t_clear=0.75), 1) == 0.9

    def test_overshoot_over_the_whole_horizon_without_a_clearing(self):
        assert frequency_overshoot(sim_result(omega=self.OMEGA)) == abs(1.01 - 1.0)

    def test_overshoot_after_the_clearing_only(self):
        result = sim_result(omega=self.OMEGA, t_clear=0.75)
        assert frequency_overshoot(result) == abs(1.003 - 1.0)

    def test_clearing_at_the_last_sample_rejected(self):
        result = sim_result(v=self.V, omega=self.OMEGA, t_clear=2.0)
        with pytest.raises(InvalidArgument, match="after fault clearing"):
            voltage_nadir(result, 1)
        with pytest.raises(InvalidArgument, match="after fault clearing"):
            frequency_overshoot(result)

    def test_unknown_bus_and_lel_rejected(self):
        result = sim_result(t_clear=0.75)
        with pytest.raises(InvalidArgument, match="unknown bus"):
            voltage_nadir(result, 2)
        with pytest.raises(InvalidArgument, match="unknown LEL"):
            reconnection_delay(result, 8)

    @pytest.mark.parametrize("kappa_full", [1.0, 0.8])
    def test_delay_zero_for_an_lel_that_never_tripped(self, kappa_full):
        # at its target, or KAPPA_FULL_TOL below it
        for kappa in (kappa_full, kappa_full - KAPPA_FULL_TOL):
            result = sim_result(kappa=[kappa] * 9, kappa_full=kappa_full, t_clear=0.75)
            assert reconnection_delay(result, 7) == 0.0

    def test_delay_reads_only_the_samples_after_the_clearing(self):
        # kappa is low up to the clearing sample at 0.75 s and full after it
        kappa = [0.0] * 4 + [1.0] * 5
        assert reconnection_delay(sim_result(kappa=kappa, t_clear=0.75), 7) == 0.0

    @pytest.mark.parametrize("kappa_full", [1.0, 0.8])
    def test_delay_never_for_an_lel_below_target_at_the_horizon(self, kappa_full):
        kappa = [kappa_full] * 3 + [0.0] * 3 + [0.5] * 3
        result = sim_result(kappa=kappa, kappa_full=kappa_full, t_clear=0.75)
        assert reconnection_delay(result, 7) == "never"

    @pytest.mark.parametrize("kappa_full", [1.0, 0.8])
    def test_delay_to_the_first_return_to_target(self, kappa_full):
        # trips at 1.0 s, is back at the target, or KAPPA_FULL_TOL below
        # it, at 1.75 s, 1.0 s after clearing
        for back in (kappa_full, kappa_full - KAPPA_FULL_TOL):
            kappa = [kappa_full] * 4 + [0.0, 0.3, 0.6, back, back]
            result = sim_result(kappa=kappa, kappa_full=kappa_full, t_clear=0.75)
            assert reconnection_delay(result, 7) == 1.0

    def test_delay_counted_from_zero_without_a_clearing(self):
        kappa = [1.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]
        assert reconnection_delay(sim_result(kappa=kappa), 7) == 1.0
