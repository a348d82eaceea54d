"""Minimal deterministic neural substrate: layers, exact gradients, Adam.

Everything runs in float64 on plain numpy arrays.  Each operation has an
explicit backward rule (the model graphs are fixed and small, so no tape is
needed).  Layer inputs may carry arbitrary leading batch dimensions; the
documented shapes are for the trailing axes.

The causal conv is written as one 2-D BLAS GEMM per kernel tap on the
(rows, channels) view of the whole batch, shifted in time afterwards, so no
pass builds a (rows, c_in * width) patch matrix.  Float sums therefore follow
the BLAS build and thread count; results repeat bitwise at a fixed pair.

Passes write into caller-given buffers where ``out`` is offered, and take
their temporaries from a per-thread ``Workspace`` that is reused across
calls, so a steady training step page-faults in no fresh activations.
Parameters, gradients and Adam moments are each one flat vector, read by
name through ``FlatViews``.
"""

from __future__ import annotations

import math
import mmap
import threading
from dataclasses import dataclass, replace
from typing import Iterable

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


def dense_backward(x, W, grad_y, out=None):
    """Gradients of dense w.r.t. (x, W, b) given upstream grad_y.

    ``out`` is a triple like the result whose arrays, where not None,
    receive the gradients.
    """
    gx, gw, gb = out or (None, None, None)
    xf = x.reshape(-1, x.shape[-1])
    gf = grad_y.reshape(-1, grad_y.shape[-1])
    grad_x = np.matmul(grad_y, W.T, out=gx)
    grad_W = np.matmul(xf.T, gf, out=gw)
    grad_b = gf.sum(axis=0, out=gb)
    return grad_x, grad_W, grad_b


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), written into ``out`` when given (``out=x`` works in place)."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(x, grad_y, out: np.ndarray | None = None):
    """grad_y * (x > 0); x may be the input or the output of relu.

    Subgradient at exactly 0 is 0.  The mask is built in a reused buffer;
    the product is written into ``out`` when given (``out=grad_y`` or
    ``out=x`` works in place).
    """
    return np.multiply(grad_y, _positive(x), out=out)


def _positive(x: np.ndarray) -> np.ndarray:
    """The boolean mask x > 0, in the calling thread's reused mask buffer."""
    return np.greater(x, 0.0, out=workspace().get("relu.mask", x.shape, bool))


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax along the last axis, stable under constant shifts."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(y, grad_y):
    """Backward through softmax given its output y."""
    inner = (grad_y * y).sum(axis=-1, keepdims=True)
    return y * (grad_y - inner)


class Workspace:
    """Buffers reused across calls on one thread, one per key.

    A fresh multi-megabyte temporary is page-faulted in on every call: at
    B=128, T=48 and 16 channels that doubled a forward pass, 1.4 ms against
    0.7 ms (one Haswell core, 1 BLAS thread).  A buffer only grows; a
    smaller request gets a view of its leading elements, so what a call
    wrote there lasts only until the next request for the same key.
    ``generation`` is bumped by a pass that fills buffers a later call reads
    (the TCN's backward cache), so that call can tell they were refilled.

    Each buffer is a private anonymous memory map of its own, returned to
    the system when dropped.  From malloc, buffers that are dropped and
    grown again each day were served from glibc's heap between
    longer-lived arrays, and the heap kept their freed pages: a
    desk-segment-similar run (seed 601) ended its online days with 9.4 MB
    free in the heap, and with 4.2 MB once the buffers were maps.  A map
    asks for huge pages where the system offers them: a paper-scale step
    then faults its 0.9 GB of fresh buffers in with about 5 000 faults
    instead of 243 000.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self.generation = 0

    def get(self, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A C-contiguous buffer of ``shape`` under ``key`` (one dtype per key)."""
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            mem = mmap.mmap(-1, max(size * np.dtype(dtype).itemsize, 1),
                            flags=mmap.MAP_PRIVATE)
            if hasattr(mmap, "MADV_HUGEPAGE"):
                mem.madvise(mmap.MADV_HUGEPAGE)
            buf = self._buffers[key] = np.frombuffer(mem, dtype, size)
        return buf[:size].reshape(shape)

    def release(self) -> None:
        """Drop every buffer, so that its memory is not held between loops."""
        self._buffers.clear()
        self.generation += 1


_local = threading.local()


def workspace() -> Workspace:
    """The calling thread's workspace."""
    ws = getattr(_local, "workspace", None)
    if ws is None:
        ws = _local.workspace = Workspace()
    return ws


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


def conv1d_causal(x: np.ndarray, K: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Causal 1-D convolution.

    x is (..., time, c_in), K is (c_out, c_in, width), b is (c_out,).  Output
    row t is b + sum over dt of K[:, :, dt] @ x[t - width + 1 + dt], with rows
    before the series start taken as zero, so output[t] depends only on
    x[t-width+1 .. t] and the output length equals the input length.

    Each tap is one 2-D GEMM over all rows of the contiguous (rows, c_in) view
    of x; its product is added into the output shifted by width-1-dt rows
    along the time axis, and the rows it would carry across a series boundary
    are dropped.  The shift-0 tap writes the output directly, into the
    C-contiguous ``out`` when given.  Besides the output, the pass writes
    only a reused (rows, c_out) scratch buffer; it builds no patch matrix.
    """
    c_out, c_in, width = K.shape
    if x.shape[-1] != c_in or b.shape[0] != c_out:
        raise ValueError(
            f"conv1d shape mismatch: x {x.shape}, K {K.shape}, b {b.shape}"
        )
    t = x.shape[-2]
    x2 = _rows(x)
    taps = np.ascontiguousarray(K.transpose(2, 1, 0))    # (width, c_in, c_out)
    y2 = np.matmul(x2, taps[width - 1], out=_out_rows(out, c_out))
    y2 += b
    scratch = workspace().get("conv", y2.shape)
    for shift in range(1, min(width, t)):
        np.matmul(x2, taps[width - 1 - shift], out=scratch)
        _add_shifted(y2, scratch, t, shift)
    return y2.reshape(*x.shape[:-1], c_out)


def conv1d_causal_backward(x, K, grad_y, need_grad_x: bool = True, out=None):
    """Gradients of conv1d_causal w.r.t. (x, K, b).

    The same shifted-tap design as the forward pass: grad_x is one GEMM per
    tap against K[:, :, dt], added back shifted the other way through the
    reused scratch buffer.  grad_K[:, :, dt] is one GEMM of the gradient rows
    against the input rows shift = width-1-dt earlier, over the whole
    flattened batch, minus the few products that pair the first ``shift``
    rows of a series with the last rows of the series before it.  With
    ``need_grad_x=False`` the grad_x GEMMs are skipped and None is returned
    in its place.  ``out`` is a triple like the result whose arrays, where
    not None, receive the gradients (grad_x's C-contiguous).
    """
    gx, gk, gb = out or (None, None, None)
    c_out, c_in, width = K.shape
    t = x.shape[-2]
    x2 = _rows(x)
    g2 = _rows(grad_y)
    n = len(x2)
    ones = workspace().get("ones", (n,))
    ones.fill(1.0)
    grad_b = np.matmul(g2.T, ones, out=gb)    # a GEMV; g2.sum(axis=0) is ~10x slower

    grad_k = np.zeros((width, c_out, c_in))
    x3 = x2.reshape(math.prod(x.shape[:-2]), t, c_in)
    g3 = g2.reshape(*x3.shape[:2], c_out)
    for shift in range(min(width, t)):
        tap = grad_k[width - 1 - shift]
        np.matmul(g2[shift:].T, x2[: n - shift], out=tap)
        if shift and len(x3) > 1:
            tap -= _rows(g3[1:, :shift]).T @ _rows(x3[:-1, t - shift :])
    if gk is None:
        gk = np.empty((c_out, c_in, width))
    gk[...] = grad_k.transpose(1, 2, 0)

    if not need_grad_x:
        return None, gk, grad_b
    taps = np.ascontiguousarray(K.transpose(2, 0, 1))    # (width, c_out, c_in)
    gx2 = np.matmul(g2, taps[width - 1], out=_out_rows(gx, c_in))
    scratch = workspace().get("conv", gx2.shape)
    for shift in range(1, min(width, t)):
        np.matmul(g2, taps[width - 1 - shift], out=scratch)
        _add_shifted(gx2, scratch, t, -shift)
    return gx2.reshape(x.shape), gk, grad_b


def _out_rows(out: np.ndarray | None, cols: int) -> np.ndarray | None:
    """A C-contiguous (..., cols) output buffer as its (rows, cols) view."""
    if out is None:
        return None
    if not out.flags.c_contiguous:
        raise ValueError("an output buffer must be C-contiguous")
    return out.reshape(-1, cols)


def global_avg_pool_time(x: np.ndarray) -> np.ndarray:
    """Per-channel mean over the time axis: (..., time, c) -> (..., c)."""
    if x.shape[-2] < 1:
        raise ValueError("cannot pool over an empty time axis")
    return x.mean(axis=-2)


def global_avg_pool_time_backward(x, grad_y):
    """Gradient of global_avg_pool_time: grad_y / time at every time step.

    The result is a read-only broadcast view over ``grad_y``'s shape.
    """
    return np.broadcast_to(grad_y[..., None, :] / x.shape[-2], x.shape)


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------


class FlatViews(dict):
    """Named views, in order, over consecutive pieces of one flat vector.

    The vector is ``flat``: an update of the whole vector is one operation,
    while layers read and write their arrays by name.
    """

    def __init__(self, flat: np.ndarray, shapes: Iterable[tuple[str, tuple]]):
        super().__init__()
        shapes = list(shapes)
        size = _layout_size(shapes)
        if flat.shape != (size,) or not flat.flags.c_contiguous:
            raise ValueError(
                f"a flat vector of shape {flat.shape} for a layout of {size} values"
            )
        offset = 0
        for name, shape in shapes:
            self[name] = flat[offset : offset + math.prod(shape)].reshape(shape)
            offset += math.prod(shape)
        self.flat = flat

    @classmethod
    def empty(cls, shapes: Iterable[tuple[str, tuple]]) -> "FlatViews":
        shapes = list(shapes)
        return cls(np.empty(_layout_size(shapes)), shapes)

    def over(self, flat: np.ndarray) -> "FlatViews":
        """The same layout over another flat vector."""
        return FlatViews(flat, [(name, a.shape) for name, a in self.items()])


def _layout_size(shapes: list[tuple[str, tuple]]) -> int:
    return sum(math.prod(shape) for _, shape in shapes)


@dataclass
class AdamState:
    """Adam moments of one flat parameter vector, updated in place by adam_step."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float
    step_count: int = 0

    @classmethod
    def zeros(cls, size: int, learning_rate: float) -> "AdamState":
        return cls(np.zeros(size), np.zeros(size), learning_rate)

    def copy(self) -> "AdamState":
        return replace(self, first_moment=self.first_moment.copy(),
                       second_moment=self.second_moment.copy())


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One Adam update with bias correction, in place over param and state.

    The elementwise operations and their order are those of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    param -= lr * (m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps), so one call on
    a flat vector equals, bit for bit, one call per piece of it.  Its two
    temporaries come from the workspace.
    """
    if not param.shape == grad.shape == state.first_moment.shape == state.second_moment.shape:
        raise ValueError(
            f"grad {grad.shape}, moments {state.first_moment.shape}/"
            f"{state.second_moment.shape} unlike param {param.shape}"
        )
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    t = state.step_count + 1
    m, v = state.first_moment, state.second_moment
    step, denom = workspace().get("adam", (2, *param.shape))
    m *= ADAM_BETA1
    m += np.multiply(1 - ADAM_BETA1, grad, out=step)
    v *= ADAM_BETA2
    np.multiply(1 - ADAM_BETA2, grad, out=step)
    step *= grad
    v += step
    np.divide(m, 1 - ADAM_BETA1**t, out=step)
    np.divide(v, 1 - ADAM_BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step *= state.learning_rate
    step /= denom
    param -= step
    state.step_count = t


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform weights scaled by 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
