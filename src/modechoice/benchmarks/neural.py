"""Single-hidden-layer feedforward network (rectifier units, softmax output),
trained on L2-regularized cross-entropy with mini-batch Adam."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .config import TrainConfig
from .features import N_CLASSES
from .mnl import _log_softmax, softmax
from .optim import minimize_adam


@dataclass
class NeuralModel:
    w1: np.ndarray  # (hidden, n_features)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (3, hidden)
    b2: np.ndarray  # (3,)
    seed: int = 0
    loss_curve: list[float] = field(default_factory=list)

    kind: ClassVar[str] = "nn"

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        hidden = np.maximum(X @ self.w1.T + self.b1, 0.0)
        return softmax(hidden @ self.w2.T + self.b2)


def init_params(n_features: int, hidden_units: int, rng: np.random.Generator):
    """Glorot-uniform weights, zero biases."""
    bound1 = np.sqrt(6.0 / (n_features + hidden_units))
    bound2 = np.sqrt(6.0 / (hidden_units + N_CLASSES))
    w1 = rng.uniform(-bound1, bound1, size=(hidden_units, n_features))
    w2 = rng.uniform(-bound2, bound2, size=(N_CLASSES, hidden_units))
    return w1, np.zeros(hidden_units), w2, np.zeros(N_CLASSES)


def _forward(w1, b1, w2, b2, X):
    """Rectified hidden units and output log-probabilities. The hidden units
    are built in place in one array: on a 1,000-row full pass, allocating a
    second array of that size took longer than the two products."""
    hidden = X @ w1.T
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    return hidden, _log_softmax(hidden @ w2.T + b2)


def loss_and_grad(w1, b1, w2, b2, X, y, l2_strength):
    """The loss, mean cross-entropy plus l2/(2N)·(||W1||²+||W2||²), and its
    analytic gradients for all four parameter arrays, from one forward pass."""
    n = X.shape[0]
    hidden, log_p = _forward(w1, b1, w2, b2, X)
    loss = -log_p[np.arange(n), y].mean()
    loss += 0.5 * l2_strength * (np.sum(w1**2) + np.sum(w2**2)) / n
    p = np.exp(log_p)
    p[np.arange(n), y] -= 1.0
    d_logits = p / n
    d_w2 = d_logits.T @ hidden + (l2_strength / n) * w2
    d_b2 = d_logits.sum(axis=0)
    d_hidden = d_logits @ w2
    d_z1 = d_hidden * (hidden > 0)  # hidden > 0 exactly where z1 = X·W1ᵀ + b1 > 0
    d_w1 = d_z1.T @ X + (l2_strength / n) * w1
    d_b1 = d_z1.sum(axis=0)
    return loss, (d_w1, d_b1, d_w2, d_b2)


def _pack(w1, b1, w2, b2):
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def _unpack(flat, n_features, hidden):
    """The four parameter arrays, as views of the flat vector."""
    a, b, c = np.cumsum([hidden * n_features, hidden, N_CLASSES * hidden])
    return flat[:a].reshape(hidden, -1), flat[a:b], flat[b:c].reshape(N_CLASSES, -1), flat[c:]


def fit(X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> NeuralModel:
    n_features = X.shape[1]
    hidden = cfg.hidden_units
    rng = np.random.default_rng(cfg.seed)

    def batch_value_and_grad(flat, idx):
        params = _unpack(flat, n_features, hidden)
        loss, grads = loss_and_grad(*params, X[idx], y[idx], cfg.l2_strength)
        return loss, _pack(*grads)

    x0 = _pack(*init_params(n_features, hidden, rng))
    flat, curve = minimize_adam(
        batch_value_and_grad,
        x0,
        n_samples=X.shape[0],
        batch_size=cfg.batch_size,
        rng=rng,
        learning_rate=cfg.learning_rate,
        max_epochs=cfg.max_epochs,
        tolerance=cfg.tolerance,
    )
    w1, b1, w2, b2 = _unpack(flat, n_features, hidden)
    return NeuralModel(w1=w1, b1=b1, w2=w2, b2=b2, seed=cfg.seed, loss_curve=curve)
