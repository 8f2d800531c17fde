"""Optimizers for the gradient-trained models, on flat parameter vectors:
gradient descent with step halving fits the MNL, Adam fits the NN."""

from __future__ import annotations

import numpy as np

from .config import NonFiniteLoss

_MIN_STEP = 1e-14
_GROWTH = 1.1
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def minimize_gd_halving(value_and_grad, x0, learning_rate, max_epochs, tolerance):
    """Full-batch gradient descent that halves the step whenever it would
    increase the loss and grows it slowly after accepted steps. The returned
    loss curve is non-increasing by construction.
    """
    x = np.asarray(x0, dtype=float).copy()
    loss, grad = value_and_grad(x)
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"initial loss is {loss}")
    curve = [float(loss)]
    step = learning_rate
    for _ in range(max_epochs):
        accepted = None
        while step >= _MIN_STEP:
            candidate = x - step * grad
            cand_loss, cand_grad = value_and_grad(candidate)
            if np.isfinite(cand_loss) and cand_loss <= loss:
                accepted = (candidate, cand_loss, cand_grad)
                break
            step *= 0.5
        if accepted is None:
            break  # no descent step exists at representable step sizes
        improvement = loss - accepted[1]
        x, loss, grad = accepted
        curve.append(float(loss))
        step *= _GROWTH
        if improvement < tolerance:
            break
    return x, curve


def minimize_adam(
    batch_grad,
    full_value,
    x0,
    n_samples,
    batch_size,
    rng,
    learning_rate,
    max_epochs,
    tolerance,
    no_change_epochs=10,
):
    """Mini-batch Adam with early stopping when the epoch loss has not improved
    on its best value by at least `tolerance` for `no_change_epochs` epochs.
    `batch_grad(x, idx)` is the gradient of the loss over the rows idx."""
    x = np.asarray(x0, dtype=float).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    t = 0
    curve = [float(full_value(x))]
    if not np.isfinite(curve[0]):
        raise NonFiniteLoss(f"initial loss is {curve[0]}")
    best = curve[0]
    stall = 0
    batch = min(batch_size, n_samples)
    for _ in range(max_epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch):
            grad = batch_grad(x, order[start : start + batch])
            t += 1
            # in place, in the textbook update's order of operations
            m *= _ADAM_BETA1
            m += (1 - _ADAM_BETA1) * grad
            v *= _ADAM_BETA2
            v += (1 - _ADAM_BETA2) * grad * grad
            m_hat = m / (1 - _ADAM_BETA1**t)
            v_hat = v / (1 - _ADAM_BETA2**t)
            x -= learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        epoch_loss = float(full_value(x))
        if not np.isfinite(epoch_loss):
            raise NonFiniteLoss(f"loss became {epoch_loss} during training")
        curve.append(epoch_loss)
        if epoch_loss > best - tolerance:
            stall += 1
        else:
            stall = 0
        best = min(best, epoch_loss)
        if stall >= no_change_epochs:
            break
    return x, curve
