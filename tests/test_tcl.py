"""Unit tests for window segmentation, the contrastive encoder, and
pattern vectors."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lelsim import tcl
from lelsim.errors import InvalidArgument
from lelsim.tcl import (
    BATCH,
    NOISE_FRAC,
    SCALE_RANGE,
    STEP_SIZE,
    TEMPERATURE,
    TrainConfig,
    _forward,
    _loss_and_embedding_grads,
    augment,
    encode_windows,
    init_encoder,
    loss_and_gradients,
    pattern_vector,
    segment_windows,
    train_encoder,
)


class TestSegmentation:
    def test_origins_and_shapes(self):
        x = np.arange(20.0)
        X = segment_windows(x, 6)
        assert X.shape == (5, 6)
        for i, o in enumerate([0, 3, 6, 9, 12]):
            assert np.array_equal(X[i], x[o:o + 6])

    def test_stride_is_half_window(self):
        X = segment_windows(np.arange(10.0), 4)
        assert np.array_equal(X[:, 0], [0.0, 2.0, 4.0, 6.0])
        X = segment_windows(np.arange(10.0), 2)
        assert np.array_equal(X[:, 0], np.arange(9.0))

    def test_windows_are_copies(self):
        x = np.arange(10.0)
        X = segment_windows(x, 4)
        x[0] = 99.0
        assert X[0, 0] == 0.0
        X[1, 0] = -1.0
        assert x[2] == 2.0

    def test_rejects_short_trace(self):
        with pytest.raises(InvalidArgument):
            segment_windows(np.arange(3.0), 5)

    def test_rejects_multidimensional_series(self):
        with pytest.raises(InvalidArgument, match="1-D"):
            segment_windows(np.zeros((12, 2)), 4)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_block_matches_slices(self, data):
        L = data.draw(st.integers(2, 12), label="L")
        n = data.draw(st.integers(L, 60), label="n")
        stride = max(1, L // 2)
        x = np.random.default_rng(n * 100 + L).standard_normal(n)
        X = segment_windows(x, L)
        assert X.shape == ((n - L) // stride + 1, L)
        assert X.flags.c_contiguous
        assert not np.shares_memory(X, x)
        for i in range(X.shape[0]):
            assert np.array_equal(X[i], x[i * stride:i * stride + L])


class TestEncoder:
    def test_encode_deterministic(self):
        rng = np.random.default_rng(0)
        enc = init_encoder(5, 8, 4, rng)
        X = np.arange(5.0)[None, :]
        assert np.array_equal(encode_windows(enc, X), encode_windows(enc, X))

    def test_encode_windows_matches_single(self):
        rng = np.random.default_rng(1)
        enc = init_encoder(5, 8, 4, rng)
        X = segment_windows(np.sin(np.arange(30.0)), 5)
        Z = encode_windows(enc, X)
        assert Z.shape == (X.shape[0], 4)
        for i in range(X.shape[0]):
            assert np.allclose(Z[i], encode_windows(enc, X[i:i + 1])[0])

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        enc = init_encoder(5, 8, 4, rng)
        with pytest.raises(InvalidArgument):
            encode_windows(enc, np.arange(7.0)[None, :])
        with pytest.raises(InvalidArgument):
            encode_windows(enc, np.arange(5.0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        enc = init_encoder(5, 8, 4, rng)
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

    def test_init_is_glorot_scaled(self):
        enc = init_encoder(40, 60, 20, np.random.default_rng(4))
        assert enc.W1.shape == (60, 40) and enc.W2.shape == (20, 60)
        assert enc.W1.std() == pytest.approx(np.sqrt(2.0 / (40 + 60)), rel=0.1)
        assert enc.W2.std() == pytest.approx(np.sqrt(2.0 / (60 + 20)), rel=0.1)
        assert not enc.b1.any() and not enc.b2.any()

    def test_contrastive_loss_rejects_bad_input(self):
        z = np.random.default_rng(6).standard_normal((3, 4))
        with pytest.raises(InvalidArgument, match="temperature"):
            _loss_and_embedding_grads(z, z, 0.0)
        with pytest.raises(InvalidArgument, match="equal-shape"):
            _loss_and_embedding_grads(z, z[:2], TEMPERATURE)

    def test_contrastive_loss_of_one_pair_is_zero(self):
        z = np.array([[1.0, 2.0, 3.0]])
        loss, dz1, dz2 = _loss_and_embedding_grads(z, 2 * z, TEMPERATURE)
        assert loss == 0.0
        assert not dz1.any() and not dz2.any()


class TestTraining:
    def test_training_reduces_loss(self):
        rng = np.random.default_rng(5)
        x = np.sin(0.3 * np.arange(300)) + 0.1 * rng.standard_normal(300)
        X = segment_windows(x, 5)
        cfg = TrainConfig(d=8, epochs=30)
        enc = train_encoder(X, cfg, seed=0)
        # compare contrastive loss of trained vs untrained weights on a
        # fixed augmented batch
        X1, X2 = augment(X[:16], np.random.default_rng(100))
        raw = init_encoder(5, cfg.h, 8, np.random.default_rng(0))
        loss_raw, _ = loss_and_gradients(raw, X1, X2, TEMPERATURE)
        loss_trained, _ = loss_and_gradients(enc, X1, X2, TEMPERATURE)
        assert loss_trained < loss_raw

    @pytest.mark.parametrize("n", [66, 65])
    def test_training_is_plain_sgd_over_shuffled_batches(self, n):
        """train_encoder written out: per epoch one permutation of the
        rows; per batch of BATCH rows (a last batch of one row is
        skipped) one step of STEP_SIZE / batch size along the gradient;
        the history holds each epoch's mean over batches of loss / batch
        size.  n = 66 leaves a last batch of two rows, n = 65 of one."""
        X = np.random.default_rng(7).standard_normal((n, 5))
        cfg = TrainConfig(d=4, epochs=2)
        rng = np.random.default_rng(9)
        enc = init_encoder(5, cfg.h, cfg.d, rng)
        history = []
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            losses = []
            for idx in (order[s:s + BATCH] for s in range(0, n, BATCH)):
                if len(idx) == 1:
                    continue
                X1, X2 = augment(X[idx], rng)
                loss, grads = loss_and_gradients(enc, X1, X2, TEMPERATURE)
                enc = replace(enc, **{k: getattr(enc, k) - STEP_SIZE / len(idx) * g
                                      for k, g in grads.items()})
                losses.append(loss / len(idx))
            history.append(np.mean(losses))
        trained = train_encoder(X, cfg, seed=9)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.allclose(getattr(trained, name), getattr(enc, name),
                               rtol=1e-12, atol=1e-15)
        assert trained.loss_history == pytest.approx(history, rel=1e-12)

    @pytest.mark.parametrize("X", [np.ones((1, 5)), np.arange(5.0)])
    def test_training_needs_two_windows(self, X):
        with pytest.raises(InvalidArgument, match="N >= 2"):
            train_encoder(X, TrainConfig(d=4, epochs=1), seed=0)

    def test_training_on_two_windows(self):
        enc = train_encoder(np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 2.0]]),
                            TrainConfig(d=4, epochs=1), seed=0)
        assert len(enc.loss_history) == 1 and enc.loss_history[0] > 0

    def test_training_deterministic_given_seed(self):
        x = np.sin(0.3 * np.arange(100))
        X = segment_windows(x, 5)
        cfg = TrainConfig(d=4, epochs=5)
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


class TestTrainConfig:
    def test_hidden_width_is_derived_from_d(self):
        assert TrainConfig().h == 128
        assert TrainConfig(d=8).h == 32

    def test_rejects_bad_fields(self):
        for bad in ({"d": 0}, {"epochs": 0}):
            with pytest.raises(InvalidArgument):
                TrainConfig(**bad)


class TestAugment:
    def test_zero_noise_pure_scaling(self, monkeypatch):
        monkeypatch.setattr(tcl, "NOISE_FRAC", 0.0)
        X = np.arange(1.0, 11.0).reshape(2, 5)
        lo, hi = SCALE_RANGE
        for view in augment(X, np.random.default_rng(1)):
            ratio = view / X
            assert np.allclose(ratio, ratio[:, :1])
            assert np.all((lo <= ratio) & (ratio <= hi))

    def test_views_are_scaled_rows_plus_noise(self):
        X = np.arange(1.0, 11.0).reshape(2, 5)
        lo, hi = SCALE_RANGE
        sd = X.std(axis=1, keepdims=True)
        for view in augment(X, np.random.default_rng(1)):
            # some s in SCALE_RANGE puts every sample of a row within
            # 6 noise standard deviations of s * X
            tol = 6 * NOISE_FRAC * sd
            s_lo = np.max((view - tol) / X, axis=1)
            s_hi = np.min((view + tol) / X, axis=1)
            assert np.all(s_lo <= s_hi)
            assert np.all((s_hi >= lo) & (s_lo <= hi))

    def test_noise_is_noise_frac_of_each_row_std(self):
        # rows whose stds differ 100-fold; augment's draws replayed
        X = np.arange(1.0, 11.0).reshape(2, 5) * np.array([[1.0], [100.0]])
        rng = np.random.default_rng(3)
        views = augment(X, np.random.default_rng(3))
        sd = X.std(axis=1, keepdims=True)
        for view in views:
            s = rng.uniform(*SCALE_RANGE, size=(2, 1))
            normals = rng.standard_normal(X.shape)
            assert np.allclose(view, s * X + normals * NOISE_FRAC * sd, rtol=1e-14, atol=0)


def reference_forward(enc, X):
    H = np.tanh(X @ enc.W1.T + enc.b1)
    return H, H @ enc.W2.T + enc.b2


def reference_pattern_vector(Z):
    mean = Z.mean(axis=0)
    return np.concatenate([mean, ((Z - mean) ** 2).mean(axis=0)])


def reference_loss_and_gradients(enc, X1, X2, temperature):
    """The per-view accumulation loop, with P - I built from np.eye."""
    H1, Z1 = reference_forward(enc, X1)
    H2, Z2 = reference_forward(enc, X2)
    n = Z1.shape[0]
    U = Z1 / np.linalg.norm(Z1, axis=1)[:, None]
    V = Z2 / np.linalg.norm(Z2, axis=1)[:, None]
    nu, nv = np.linalg.norm(Z1, axis=1), np.linalg.norm(Z2, axis=1)
    S = (U @ V.T) / temperature
    S_shift = S - S.max(axis=1, keepdims=True)
    expS = np.exp(S_shift)
    P = expS / expS.sum(axis=1, keepdims=True)
    loss = float(-(np.diag(S_shift) - np.log(expS.sum(axis=1))).sum())
    G = (P - np.eye(n)) / temperature
    dU, dV = G @ V, G.T @ U
    dZ1 = (dU - (np.sum(dU * U, axis=1, keepdims=True)) * U) / nu[:, None]
    dZ2 = (dV - (np.sum(dV * V, axis=1, keepdims=True)) * V) / nv[:, None]
    grads = {k: np.zeros_like(getattr(enc, k)) for k in ("W1", "b1", "W2", "b2")}
    for X, H, dZ in ((X1, H1, dZ1), (X2, H2, dZ2)):
        grads["W2"] += dZ.T @ H
        grads["b2"] += dZ.sum(axis=0)
        dA = (dZ @ enc.W2) * (1.0 - H * H)
        grads["W1"] += dA.T @ X
        grads["b1"] += dA.sum(axis=0)
    return loss, grads


def random_encoder(rng, L, h, d):
    enc = init_encoder(L, h, d, rng)
    return replace(enc, b1=rng.standard_normal(h), b2=rng.standard_normal(d))


class TestInPlaceArithmetic:
    """The in-place encoder pass, pattern vector and gradient sums equal
    the out-of-place expressions bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(N=st.one_of(st.integers(1, 80), st.integers(3598, 3700)),
           L=st.integers(2, 12), h=st.integers(1, 40), d=st.integers(1, 20),
           seed=st.integers(0, 2**16))
    @example(N=1, L=5, h=128, d=64, seed=0)
    @example(N=3598, L=5, h=128, d=64, seed=1)
    def test_encoding_matches_out_of_place(self, N, L, h, d, seed):
        rng = np.random.default_rng(seed)
        enc = random_encoder(rng, L, h, d)
        X = rng.standard_normal((N, L))
        H, Z = _forward(enc, X)
        H_ref, Z_ref = reference_forward(enc, X)
        assert np.array_equal(H, H_ref) and np.array_equal(Z, Z_ref)
        assert np.array_equal(encode_windows(enc, X), Z_ref)
        assert np.array_equal(pattern_vector(Z), reference_pattern_vector(Z_ref))

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(2, 70), L=st.integers(2, 12), h=st.integers(1, 40),
           d=st.integers(1, 20), seed=st.integers(0, 2**16))
    def test_gradients_match_per_view_loop(self, N, L, h, d, seed):
        rng = np.random.default_rng(seed)
        enc = random_encoder(rng, L, h, d)
        X1 = rng.standard_normal((N, L))
        X2 = X1 + 0.05 * rng.standard_normal((N, L))
        loss, grads = loss_and_gradients(enc, X1, X2, temperature=0.1)
        loss_ref, grads_ref = reference_loss_and_gradients(enc, X1, X2, 0.1)
        assert loss == loss_ref
        for k in grads_ref:
            assert np.array_equal(grads[k], grads_ref[k]), k
