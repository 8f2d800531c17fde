"""Multinomial logit: softmax of linear utilities over the pooled 8-vector,
fit by minimizing L2-regularized mean cross-entropy with full-batch gradient
descent and step halving."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..config import TrainConfig
from .features import N_CLASSES
from .optim import minimize_gd_halving


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@dataclass
class MnlModel:
    weights: np.ndarray  # (3, n_features)
    intercepts: np.ndarray  # (3,)
    seed: int = 0
    loss_curve: list[float] = field(default_factory=list)

    kind: ClassVar[str] = "mnl"

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return softmax(X @ self.weights.T + self.intercepts)


def loss_and_grad(
    weights: np.ndarray,
    intercepts: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    l2_strength: float,
):
    """Mean cross-entropy plus l2/(2N)·||W||² (intercepts unpenalized), with
    its analytic gradient."""
    n = X.shape[0]
    logits = X @ weights.T + intercepts
    log_p = _log_softmax(logits)
    loss = -log_p[np.arange(n), y].mean()
    loss += 0.5 * l2_strength * np.sum(weights**2) / n

    p = np.exp(log_p)
    p[np.arange(n), y] -= 1.0
    d_logits = p / n
    d_weights = d_logits.T @ X + (l2_strength / n) * weights
    d_intercepts = d_logits.sum(axis=0)
    return loss, d_weights, d_intercepts


def _pack(weights, intercepts):
    return np.concatenate([weights.ravel(), intercepts])


def _unpack(flat, n_features):
    w = flat[: N_CLASSES * n_features].reshape(N_CLASSES, n_features)
    b = flat[N_CLASSES * n_features :]
    return w, b


def fit(X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> MnlModel:
    n_features = X.shape[1]

    def value_and_grad(flat):
        w, b = _unpack(flat, n_features)
        loss, dw, db = loss_and_grad(w, b, X, y, cfg.l2_strength)
        return loss, _pack(dw, db)

    x0 = np.zeros(N_CLASSES * (n_features + 1))
    flat, curve = minimize_gd_halving(
        value_and_grad, x0, cfg.learning_rate, cfg.max_epochs, cfg.tolerance
    )
    weights, intercepts = _unpack(flat, n_features)
    return MnlModel(weights=weights, intercepts=intercepts, seed=cfg.seed, loss_curve=curve)
