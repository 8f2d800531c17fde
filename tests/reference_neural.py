"""Reference neural network training: the original loss_and_grad, the
np.split/np.concatenate parameter packing and the textbook Adam update, kept
frozen as the oracle for `modechoice.benchmarks.neural` and
`modechoice.benchmarks.optim`.

The generator draws, the operation order of every update and the early-stopping
rule are those the production fit must reproduce bit for bit, so this file must
not change when the production fit is optimised. The stopping rule reads the
row-weighted mean of each epoch's batch losses, as scikit-learn's
MLPClassifier does; the update arithmetic is as first frozen. Only the
non-finite loss guards are left out; they change nothing while the loss stays
finite.
"""

import numpy as np

N_CLASSES = 3
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def init_params(n_features, hidden_units, rng):
    bound1 = np.sqrt(6.0 / (n_features + hidden_units))
    bound2 = np.sqrt(6.0 / (hidden_units + N_CLASSES))
    w1 = rng.uniform(-bound1, bound1, size=(hidden_units, n_features))
    w2 = rng.uniform(-bound2, bound2, size=(N_CLASSES, hidden_units))
    return w1, np.zeros(hidden_units), w2, np.zeros(N_CLASSES)


def _forward(w1, b1, w2, b2, X, y, l2_strength):
    n = X.shape[0]
    z1 = X @ w1.T + b1
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ w2.T + b2
    log_p = _log_softmax(logits)
    loss = -log_p[np.arange(n), y].mean()
    loss += 0.5 * l2_strength * (np.sum(w1**2) + np.sum(w2**2)) / n
    return loss, z1, hidden, log_p


def loss_value(w1, b1, w2, b2, X, y, l2_strength):
    return _forward(w1, b1, w2, b2, X, y, l2_strength)[0]


def loss_and_grad(w1, b1, w2, b2, X, y, l2_strength):
    n = X.shape[0]
    loss, z1, hidden, log_p = _forward(w1, b1, w2, b2, X, y, l2_strength)
    p = np.exp(log_p)
    p[np.arange(n), y] -= 1.0
    d_logits = p / n
    d_w2 = d_logits.T @ hidden + (l2_strength / n) * w2
    d_b2 = d_logits.sum(axis=0)
    d_hidden = d_logits @ w2
    d_z1 = d_hidden * (z1 > 0)
    d_w1 = d_z1.T @ X + (l2_strength / n) * w1
    d_b1 = d_z1.sum(axis=0)
    return loss, (d_w1, d_b1, d_w2, d_b2)


def _pack(w1, b1, w2, b2):
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def _unpack(flat, n_features, hidden):
    sizes = [hidden * n_features, hidden, N_CLASSES * hidden, N_CLASSES]
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return (
        parts[0].reshape(hidden, n_features),
        parts[1],
        parts[2].reshape(N_CLASSES, hidden),
        parts[3],
    )


def minimize_adam(
    batch_value_and_grad,
    x0,
    n_samples,
    batch_size,
    rng,
    learning_rate,
    max_epochs,
    tolerance,
    no_change_epochs=10,
):
    x = np.asarray(x0, dtype=float).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    t = 0
    curve = []
    best = np.inf
    stall = 0
    batch = min(batch_size, n_samples)
    for _ in range(max_epochs):
        order = rng.permutation(n_samples)
        total = 0.0
        for start in range(0, n_samples, batch):
            idx = order[start : start + batch]
            loss, grad = batch_value_and_grad(x, idx)
            total += loss * len(idx)
            t += 1
            m = _ADAM_BETA1 * m + (1 - _ADAM_BETA1) * grad
            v = _ADAM_BETA2 * v + (1 - _ADAM_BETA2) * grad * grad
            m_hat = m / (1 - _ADAM_BETA1**t)
            v_hat = v / (1 - _ADAM_BETA2**t)
            x = x - learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        epoch_loss = float(total / n_samples)
        curve.append(epoch_loss)
        if epoch_loss > best - tolerance:
            stall += 1
        else:
            stall = 0
        best = min(best, epoch_loss)
        if stall >= no_change_epochs:
            break
    return x, curve


def fit(X, y, cfg):
    """Train as the original fit did; returns (w1, b1, w2, b2, loss_curve)."""
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
    return (*_unpack(flat, n_features, hidden), curve)
