"""Finite-difference gradient checking, shared by the test modules."""

import numpy as np


def grad_check(f, x: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(x)`` must return ``(scalar_value, gradient_wrt_x)``.  The relative
    error per coordinate is |num - ana| / max(1, |num|, |ana|), which behaves
    as an absolute error for near-zero gradients.
    """
    x = np.asarray(x, dtype=np.float64)
    _, analytic = f(x)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x.shape:
        raise ValueError("analytic gradient shape mismatch")
    worst = 0.0
    flat = x.ravel().copy()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up, _ = f(flat.reshape(x.shape))
        flat[i] = orig - eps
        down, _ = f(flat.reshape(x.shape))
        flat[i] = orig
        numeric = (up - down) / (2 * eps)
        ana = analytic.ravel()[i]
        err = abs(numeric - ana) / max(1.0, abs(numeric), abs(ana))
        worst = max(worst, err)
    return worst
