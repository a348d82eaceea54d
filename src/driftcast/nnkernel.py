"""Minimal deterministic neural substrate: layers, exact gradients, Adam.

Everything runs in float64 on plain numpy arrays.  Each operation has an
explicit backward rule (the model graphs are fixed and small, so no tape is
needed).  Layer inputs may carry arbitrary leading batch dimensions; the
documented shapes are for the trailing axes.

The causal conv is written as one 2-D BLAS GEMM per kernel tap on the
(rows, channels) view of the whole batch, shifted in time afterwards, so no
pass builds a (rows, c_in * width) patch matrix.  Float sums therefore follow
the BLAS build and thread count; results repeat bitwise at a fixed pair.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# --------------------------------------------------------------------------
# Layers
# --------------------------------------------------------------------------


def dense(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ W + b for x (..., n_in), W (n_in, n_out), b (n_out,)."""
    if x.shape[-1] != W.shape[0] or W.shape[1] != b.shape[0]:
        raise ValueError(
            f"dense shape mismatch: x {x.shape}, W {W.shape}, b {b.shape}"
        )
    return x @ W + b


def dense_backward(x, W, grad_y):
    """Gradients of dense w.r.t. (x, W, b) given upstream grad_y."""
    xf = x.reshape(-1, x.shape[-1])
    gf = grad_y.reshape(-1, grad_y.shape[-1])
    grad_x = grad_y @ W.T
    grad_W = xf.T @ gf
    grad_b = gf.sum(axis=0)
    return grad_x, grad_W, grad_b


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), written into ``out`` when given (``out=x`` works in place)."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(x, grad_y, out: np.ndarray | None = None):
    """grad_y where x > 0, else 0; x may be the input or the output of relu.

    Subgradient at exactly 0 is 0.  Written into ``out`` when given
    (``out=grad_y`` works in place).
    """
    return np.multiply(grad_y, x > 0, out=out)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax along the last axis, stable under constant shifts."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(y, grad_y):
    """Backward through softmax given its output y."""
    inner = (grad_y * y).sum(axis=-1, keepdims=True)
    return y * (grad_y - inner)


_workspace = threading.local()


def _scratch(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) buffer reused across calls on the calling thread.

    A fresh temporary of this size is page-faulted in on every call: at
    B=128, T=48 and 16 channels that doubled a forward pass, 1.4 ms against
    0.7 ms (one Haswell core, 1 BLAS thread).  The buffer never leaves the
    kernel that asked for it, and it only grows.
    """
    size = rows * cols
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        buf = _workspace.buf = np.empty(size)
    return buf[:size].reshape(rows, cols)


def _rows(a: np.ndarray) -> np.ndarray:
    """A (..., time, channels) array as a C-contiguous (rows, channels) matrix."""
    return np.ascontiguousarray(a).reshape(-1, a.shape[-1])


def _add_shifted(acc: np.ndarray, part: np.ndarray, t: int, shift: int) -> None:
    """acc[b, i] += part[b, i - shift] inside each length-t series, in place.

    acc and part are (rows, c) matrices of whole series; rows whose source
    i - shift lies outside the series are left alone.  One contiguous add
    over all rows is about 3x faster than the same add on the 3-D view; the
    |shift| rows per series that it carries across a series boundary are
    put back from a copy taken before it.
    """
    acc3 = acc.reshape(-1, t, acc.shape[1])
    edge = acc3[:, :shift] if shift > 0 else acc3[:, t + shift :]
    saved = edge.copy()
    if shift > 0:
        acc[shift:] += part[:-shift]
    else:
        acc[:shift] += part[-shift:]
    edge[...] = saved


def conv1d_causal(x: np.ndarray, K: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Causal 1-D convolution.

    x is (..., time, c_in), K is (c_out, c_in, width), b is (c_out,).  Output
    row t is b + sum over dt of K[:, :, dt] @ x[t - width + 1 + dt], with rows
    before the series start taken as zero, so output[t] depends only on
    x[t-width+1 .. t] and the output length equals the input length.

    Each tap is one 2-D GEMM over all rows of the contiguous (rows, c_in) view
    of x; its product is added into the output shifted by width-1-dt rows
    along the time axis, and the rows it would carry across a series boundary
    are dropped.  The shift-0 tap writes the output directly.  Besides the
    output, the pass writes only a reused (rows, c_out) scratch buffer; it
    builds no patch matrix.
    """
    c_out, c_in, width = K.shape
    if x.shape[-1] != c_in or b.shape[0] != c_out:
        raise ValueError(
            f"conv1d shape mismatch: x {x.shape}, K {K.shape}, b {b.shape}"
        )
    t = x.shape[-2]
    x2 = _rows(x)
    taps = np.ascontiguousarray(K.transpose(2, 1, 0))    # (width, c_in, c_out)
    y2 = x2 @ taps[width - 1]
    y2 += b
    scratch = _scratch(*y2.shape)
    for shift in range(1, min(width, t)):
        np.matmul(x2, taps[width - 1 - shift], out=scratch)
        _add_shifted(y2, scratch, t, shift)
    return y2.reshape(*x.shape[:-1], c_out)


def conv1d_causal_backward(x, K, grad_y, need_grad_x: bool = True):
    """Gradients of conv1d_causal w.r.t. (x, K, b).

    The same shifted-tap design as the forward pass: grad_x is one GEMM per
    tap against K[:, :, dt], added back shifted the other way through the
    reused scratch buffer.  grad_K[:, :, dt] is one GEMM of the gradient rows
    against the input rows shift = width-1-dt earlier, over the whole
    flattened batch, minus the few products that pair the first ``shift``
    rows of a series with the last rows of the series before it.  With
    ``need_grad_x=False`` the grad_x GEMMs are skipped and None is returned
    in its place.
    """
    c_out, c_in, width = K.shape
    t = x.shape[-2]
    x2 = _rows(x)
    g2 = _rows(grad_y)
    n = len(x2)
    grad_b = g2.T @ np.ones(n)           # a GEMV; g2.sum(axis=0) is ~10x slower

    grad_k = np.zeros((width, c_out, c_in))
    x3 = x2.reshape(math.prod(x.shape[:-2]), t, c_in)
    g3 = g2.reshape(*x3.shape[:2], c_out)
    for shift in range(min(width, t)):
        tap = grad_k[width - 1 - shift]
        np.matmul(g2[shift:].T, x2[: n - shift], out=tap)
        if shift and len(x3) > 1:
            tap -= _rows(g3[1:, :shift]).T @ _rows(x3[:-1, t - shift :])
    grad_k = np.ascontiguousarray(grad_k.transpose(1, 2, 0))

    if not need_grad_x:
        return None, grad_k, grad_b
    taps = np.ascontiguousarray(K.transpose(2, 0, 1))    # (width, c_out, c_in)
    gx2 = g2 @ taps[width - 1]
    scratch = _scratch(*gx2.shape)
    for shift in range(1, min(width, t)):
        np.matmul(g2, taps[width - 1 - shift], out=scratch)
        _add_shifted(gx2, scratch, t, -shift)
    return gx2.reshape(x.shape), grad_k, grad_b


def global_avg_pool_time(x: np.ndarray) -> np.ndarray:
    """Per-channel mean over the time axis: (..., time, c) -> (..., c)."""
    if x.shape[-2] < 1:
        raise ValueError("cannot pool over an empty time axis")
    return x.mean(axis=-2)


def global_avg_pool_time_backward(x, grad_y):
    t = x.shape[-2]
    return np.broadcast_to(grad_y[..., None, :], x.shape) / t


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AdamState:
    """Per-parameter Adam moments plus hyperparameters."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @classmethod
    def zeros_like(cls, param: np.ndarray, learning_rate: float) -> "AdamState":
        return cls(
            first_moment=np.zeros_like(param),
            second_moment=np.zeros_like(param),
            step_count=0,
            learning_rate=learning_rate,
        )


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState):
    """One Adam update with bias correction; returns (new_param, new_state)."""
    if param.shape != grad.shape:
        raise ValueError(f"grad shape {grad.shape} != param shape {param.shape}")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    t = state.step_count + 1
    m = state.beta1 * state.first_moment + (1 - state.beta1) * grad
    v = state.beta2 * state.second_moment + (1 - state.beta2) * grad * grad
    m_hat = m / (1 - state.beta1**t)
    v_hat = v / (1 - state.beta2**t)
    new_param = param - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_param, replace(state, first_moment=m, second_moment=v, step_count=t)


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform weights scaled by 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


# --------------------------------------------------------------------------
# Finite-difference gradient checking
# --------------------------------------------------------------------------


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
