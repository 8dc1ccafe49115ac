"""Unit tests for window segmentation, the contrastive encoder, and
pattern vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelsim.errors import InvalidArgument
from lelsim.tcl import (
    TrainConfig,
    augment,
    default_stride,
    encode_windows,
    init_encoder,
    loss_and_gradients,
    pattern_vector,
    segment_windows,
    train_encoder,
)
from lelsim.traceio import Trace


class TestSegmentation:
    def test_origins_and_shapes(self):
        x = np.arange(20.0)
        X = segment_windows(x, 6, stride=3)
        assert X.shape == (5, 6)
        for i, o in enumerate([0, 3, 6, 9, 12]):
            assert np.array_equal(X[i], x[o:o + 6])

    def test_default_stride_is_half_window(self):
        assert default_stride(5) == 2
        assert default_stride(2) == 1
        X = segment_windows(np.arange(10.0), 4)
        assert np.array_equal(X[:, 0], [0.0, 2.0, 4.0, 6.0])

    def test_windows_are_copies(self):
        x = np.arange(10.0)
        X = segment_windows(x, 4, stride=2)
        x[0] = 99.0
        assert X[0, 0] == 0.0
        X[1, 0] = -1.0
        assert x[2] == 2.0

    def test_rejects_short_trace(self):
        with pytest.raises(InvalidArgument):
            segment_windows(np.arange(3.0), 5)

    def test_rejects_bad_stride(self):
        with pytest.raises(InvalidArgument):
            segment_windows(np.arange(10.0), 4, stride=5)

    def test_rejects_multidimensional_series(self):
        with pytest.raises(InvalidArgument, match="1-D"):
            segment_windows(np.zeros((12, 2)), 4)

    def test_accepts_trace_object(self):
        trace = Trace(sample_period=1.0, channels={"p": np.arange(12.0),
                                                   "q": -np.arange(12.0)})
        X = segment_windows(trace, 4)
        assert np.array_equal(X, segment_windows(np.arange(12.0), 4))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_block_matches_slices(self, data):
        L = data.draw(st.integers(2, 12), label="L")
        n = data.draw(st.integers(L, 60), label="n")
        stride = data.draw(st.integers(1, L), label="stride")
        x = np.random.default_rng(n * 100 + L).standard_normal(n)
        X = segment_windows(x, L, stride)
        assert X.shape == ((n - L) // stride + 1, L)
        assert X.flags.c_contiguous
        assert not np.shares_memory(X, x)
        for i in range(X.shape[0]):
            assert np.array_equal(X[i], x[i * stride:i * stride + L])


class TestEncoder:
    def test_encode_deterministic(self):
        rng = np.random.default_rng(0)
        enc = init_encoder(5, 8, 4, rng, window_length=5)
        X = np.arange(5.0)[None, :]
        assert np.array_equal(encode_windows(enc, X), encode_windows(enc, X))

    def test_encode_windows_matches_single(self):
        rng = np.random.default_rng(1)
        enc = init_encoder(5, 8, 4, rng, window_length=5)
        X = segment_windows(np.sin(np.arange(30.0)), 5, stride=2)
        Z = encode_windows(enc, X)
        assert Z.shape == (X.shape[0], 4)
        for i in range(X.shape[0]):
            assert np.allclose(Z[i], encode_windows(enc, X[i:i + 1])[0])

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        enc = init_encoder(5, 8, 4, rng, window_length=5)
        with pytest.raises(InvalidArgument):
            encode_windows(enc, np.arange(7.0)[None, :])
        with pytest.raises(InvalidArgument):
            encode_windows(enc, np.arange(5.0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        enc = init_encoder(5, 8, 4, rng, window_length=5)
        X1 = rng.standard_normal((6, 5))
        X2 = X1 + 0.05 * rng.standard_normal((6, 5))
        loss, grads = loss_and_gradients(enc, X1, X2, temperature=0.2)
        eps = 1e-6
        for name in ("W1", "b1", "W2", "b2"):
            arr = getattr(enc, name)
            idx = tuple(rng.integers(s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, _ = loss_and_gradients(enc, X1, X2, temperature=0.2)
            arr[idx] = orig - eps
            lm, _ = loss_and_gradients(enc, X1, X2, temperature=0.2)
            arr[idx] = orig
            fd = (lp - lm) / (2 * eps)
            assert grads[name][idx] == pytest.approx(fd, rel=1e-4, abs=1e-10)


class TestTraining:
    def test_training_reduces_loss(self):
        rng = np.random.default_rng(5)
        x = np.sin(0.3 * np.arange(300)) + 0.1 * rng.standard_normal(300)
        X = segment_windows(x, 5)
        cfg = TrainConfig(d=8, h=16, epochs=30, batch=16)
        enc = train_encoder(X, cfg, seed=0)
        # compare contrastive loss of trained vs untrained weights on a
        # fixed augmented batch
        X1, X2 = augment(X[:16], cfg, np.random.default_rng(100))
        raw = init_encoder(5, 16, 8, np.random.default_rng(0), window_length=5)
        loss_raw, _ = loss_and_gradients(raw, X1, X2, cfg.temperature)
        loss_trained, _ = loss_and_gradients(enc, X1, X2, cfg.temperature)
        assert loss_trained < loss_raw

    def test_training_deterministic_given_seed(self):
        x = np.sin(0.3 * np.arange(100))
        X = segment_windows(x, 5)
        cfg = TrainConfig(d=4, h=8, epochs=5, batch=8)
        a = train_encoder(X, cfg, seed=3)
        b = train_encoder(X, cfg, seed=3)
        assert np.array_equal(a.W1, b.W1)
        assert np.array_equal(a.W2, b.W2)


class TestPatternVector:
    def test_mean_and_population_variance(self):
        Z = np.array([[1.0, 2.0], [3.0, 6.0]])
        pv = pattern_vector(Z)
        assert np.allclose(pv[:2], [2.0, 4.0])
        assert np.allclose(pv[2:], [1.0, 4.0])

    def test_as_array_concatenates(self):
        Z = np.array([[1.0, 2.0], [3.0, 6.0]])
        arr = pattern_vector(Z)
        assert arr.shape == (4,)
        assert np.allclose(arr, [2.0, 4.0, 1.0, 4.0])

    def test_single_embedding_has_zero_variance(self):
        pv = pattern_vector(np.array([[1.0, -2.0]]))
        assert np.allclose(pv[2:], 0.0)

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgument):
            pattern_vector(np.empty((0, 3)))


class TestAugment:
    def test_zero_noise_pure_scaling(self):
        X = np.arange(1.0, 11.0).reshape(2, 5)
        cfg = TrainConfig(scale_range=(0.5, 2.0), noise_frac=0.0)
        for view in augment(X, cfg, np.random.default_rng(1)):
            ratio = view / X
            assert np.allclose(ratio, ratio[:, :1])
            assert np.all((0.5 <= ratio) & (ratio <= 2.0))
