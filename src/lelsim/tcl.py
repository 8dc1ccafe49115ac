"""Contrastive window embeddings and the pattern statistic they induce.

A 1-D series is cut into an (N, L) block of windows at stride
max(1, L // 2), one window per row; two stochastically augmented views
of each row form a positive pair and a two-layer tanh network is trained
with an InfoNCE loss over cosine similarities (van den Oord et al. 2018).
The trained encoder maps windows to d-dimensional embeddings whose
elementwise mean and population variance form the 2d-dimensional
pattern vector used as the calibration target.  Only L, d (hidden width
max(2d, 32)) and the number of epochs vary; the rest of the recipe is
the module constants below.

The network is small enough that backpropagation is written out by hand
(no autodiff dependency), which keeps the gradient exactly checkable
against finite differences.

Training is the costly step.  `lelsim.calibration` trains one encoder
per data trace and configuration in a process and shares it, with
read-only weights, across the calibrations on that trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from lelsim.errors import InvalidArgument

TEMPERATURE = 0.1
BATCH = 64
STEP_SIZE = 1e-2
SCALE_RANGE = (0.8, 1.2)   # amplitude scaling of an augmented view
NOISE_FRAC = 0.05          # view noise, as a share of the window's std


@dataclass(frozen=True)
class Encoder:
    """Two-layer fully connected network: input -> tanh(h) -> d.

    Frozen, because calibrations share one trained encoder: training
    updates the weight arrays in place, and nothing rebinds them."""

    W1: np.ndarray  # (h, in_dim)
    b1: np.ndarray  # (h,)
    W2: np.ndarray  # (d, h)
    b2: np.ndarray  # (d,)
    loss_history: list = field(default_factory=list)

    @property
    def in_dim(self) -> int:
        return self.W1.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    d: int = 64
    epochs: int = 200

    def __post_init__(self):
        if self.d < 1 or self.epochs < 1:
            raise InvalidArgument("d and epochs must be >= 1")

    @property
    def h(self) -> int:
        """Hidden width."""
        return max(2 * self.d, 32)


def segment_windows(x: np.ndarray, L: int) -> np.ndarray:
    """(N, L) block whose row i is the window of the 1-D series x at
    origin i * max(1, L // 2), so that neighbouring windows overlap.

    The block is a fresh C-contiguous array; it shares no memory with x.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidArgument(f"series must be 1-D, got {x.ndim} dimensions")
    if L < 2:
        raise InvalidArgument("L must be >= 2")
    n = x.shape[0]
    if n < L:
        raise InvalidArgument(f"trace length {n} shorter than window length {L}")
    origins = np.arange(0, n - L + 1, max(1, L // 2))
    return x[origins[:, None] + np.arange(L)]


def augment(X: np.ndarray, rng: np.random.Generator):
    """Two independent views of each row: random amplitude scaling in
    SCALE_RANGE plus noise of NOISE_FRAC times the row's std."""
    lo, hi = SCALE_RANGE
    sd = X.std(axis=1, keepdims=True)
    views = []
    for _ in range(2):
        s = rng.uniform(lo, hi, size=(X.shape[0], 1))
        eps = rng.standard_normal(X.shape) * (NOISE_FRAC * sd)
        views.append(s * X + eps)
    return views[0], views[1]


def _forward(encoder: Encoder, X: np.ndarray):
    # biases and tanh are applied in place on the matmul outputs: a fresh
    # (N, h) temporary per step costs more than the arithmetic on it
    H = X @ encoder.W1.T
    H += encoder.b1
    np.tanh(H, out=H)
    Z = H @ encoder.W2.T
    Z += encoder.b2
    return H, Z


def encode_windows(encoder: Encoder, X: np.ndarray) -> np.ndarray:
    """(N, d) embeddings of an (N, L) window block; deterministic."""
    if X.ndim != 2 or X.shape[1] != encoder.in_dim:
        raise InvalidArgument(
            f"window block of shape {X.shape} does not match encoder input {encoder.in_dim}")
    _, Z = _forward(encoder, X)
    return Z


def _normalize_rows(Z: np.ndarray):
    norms = np.linalg.norm(Z, axis=1)
    if np.any(norms == 0):
        raise InvalidArgument("zero-norm embedding in contrastive loss")
    return Z / norms[:, None], norms


def _loss_and_embedding_grads(z1: np.ndarray, z2: np.ndarray, temperature: float):
    if temperature <= 0:
        raise InvalidArgument("temperature must be > 0")
    if z1.ndim != 2 or z1.shape != z2.shape or z1.shape[0] < 1:
        raise InvalidArgument("z1 and z2 must be equal-shape N x d arrays with N >= 1")
    n = z1.shape[0]
    U, nu = _normalize_rows(z1)
    V, nv = _normalize_rows(z2)
    S = (U @ V.T) / temperature
    S_shift = S - S.max(axis=1, keepdims=True)
    expS = np.exp(S_shift)
    log_p_pos = np.diag(S_shift) - np.log(expS.sum(axis=1))
    loss = float(-log_p_pos.sum())

    # G = (P - I) / temperature, with P the row-softmax of S
    G = expS / expS.sum(axis=1, keepdims=True)
    G.flat[::n + 1] -= 1.0
    G /= temperature
    dU = G @ V
    dV = G.T @ U
    # through row normalization u = z/|z|
    dz1 = (dU - (np.sum(dU * U, axis=1, keepdims=True)) * U) / nu[:, None]
    dz2 = (dV - (np.sum(dV * V, axis=1, keepdims=True)) * V) / nv[:, None]
    return loss, dz1, dz2


def loss_and_gradients(encoder: Encoder, X1: np.ndarray, X2: np.ndarray,
                       temperature: float):
    """Contrastive loss on two view batches and exact weight gradients.

    X1, X2 are (N, in_dim) view blocks; the encoder is shared between
    views, so gradients from both branches add.
    """
    H1, Z1 = _forward(encoder, X1)
    H2, Z2 = _forward(encoder, X2)
    loss, dZ1, dZ2 = _loss_and_embedding_grads(Z1, Z2, temperature)

    # back through tanh: dA = dZ W2 * (1 - H^2)
    dA1 = (dZ1 @ encoder.W2) * (1.0 - H1 * H1)
    dA2 = (dZ2 @ encoder.W2) * (1.0 - H2 * H2)
    grads = {"W1": dA1.T @ X1 + dA2.T @ X2,
             "b1": dA1.sum(axis=0) + dA2.sum(axis=0),
             "W2": dZ1.T @ H1 + dZ2.T @ H2,
             "b2": dZ1.sum(axis=0) + dZ2.sum(axis=0)}
    return loss, grads


def init_encoder(in_dim: int, h: int, d: int, rng: np.random.Generator) -> Encoder:
    """Glorot-scaled random initialization."""
    W1 = rng.normal(0.0, np.sqrt(2.0 / (in_dim + h)), size=(h, in_dim))
    W2 = rng.normal(0.0, np.sqrt(2.0 / (h + d)), size=(d, h))
    return Encoder(W1=W1, b1=np.zeros(h), W2=W2, b2=np.zeros(d))


def train_encoder(X: np.ndarray, cfg: TrainConfig, seed: int) -> Encoder:
    """SGD on the contrastive loss over the rows of an (N, L) window
    block; deterministic for a fixed seed.

    Returns the encoder after cfg.epochs epochs.  The per-epoch mean loss
    history is attached as encoder.loss_history.
    """
    if X.ndim != 2 or X.shape[0] < 2:
        raise InvalidArgument("need an (N, L) window block with N >= 2 "
                              "(no negatives otherwise)")
    rng = np.random.default_rng(seed)
    n, L = X.shape
    encoder = init_encoder(L, cfg.h, cfg.d, rng)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, BATCH):
            idx = order[start:start + BATCH]
            if len(idx) < 2:
                continue
            X1, X2 = augment(X[idx], rng)
            loss, grads = loss_and_gradients(encoder, X1, X2, TEMPERATURE)
            scale = STEP_SIZE / len(idx)
            for name, g in grads.items():
                w = getattr(encoder, name)
                w -= scale * g
            epoch_loss += loss / len(idx)
            n_batches += 1
        history.append(epoch_loss / max(n_batches, 1))
    return replace(encoder, loss_history=history)


def pattern_vector(embeddings: np.ndarray) -> np.ndarray:
    """The (2d,) pattern vector of (N, d) embeddings: their elementwise
    mean, then their elementwise population variance (1/N)."""
    Z = np.asarray(embeddings, dtype=float)
    if Z.ndim != 2 or Z.shape[0] < 1:
        raise InvalidArgument("embeddings must be a nonempty N x d array")
    return np.concatenate([Z.mean(axis=0), Z.var(axis=0)])

