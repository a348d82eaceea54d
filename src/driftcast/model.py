"""Estimation model: interaction/temporal encoders, scale/shape decoders.

Three variants share the temporal convolution stack:

* ``base``         - temporal encoder plus a linear head, features only.
* ``base_inter``   - the temporal representation is multiplied by a matrix
                     produced from the interaction representation.
* ``proposed``     - scale decoder (magnitude and offset) and shape decoder
                     (softmax-mixed bank of basis curves), recombined as
                     ``shape * sigma + mu``; trained with an extra
                     normalized shape term in the loss.

Forward passes accept batched inputs; the single-example wrappers mirror the
public operation contracts.  Gradients are exact and checked against finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import znormalize, znormalize_rows
from .nnkernel import (
    conv1d_causal,
    conv1d_causal_backward,
    dense,
    dense_backward,
    global_avg_pool_time,
    global_avg_pool_time_backward,
    relu,
    relu_backward,
    softmax,
    softmax_backward,
    uniform_init,
)

VARIANTS = ("base", "base_inter", "proposed")


class DegenerateInteractionError(ValueError):
    """Raised when an interaction vector has no positive mass to normalize."""


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    n_features: int
    interaction_dim: int
    lookback: int
    horizon: int
    embed_dim: int = 64
    conv_channels: int = 64
    kernel_width: int = 3
    n_blocks: int = 3
    bank_size: int = 16
    shape_loss_weight: float | str = "auto"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.horizon < 1 or self.bank_size < 1 or self.kernel_width < 1:
            raise ValueError("horizon, bank_size and kernel_width must be >= 1")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if isinstance(self.shape_loss_weight, str) and self.shape_loss_weight != "auto":
            raise ValueError("shape_loss_weight must be a number or 'auto'")

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n_features": self.n_features,
            "interaction_dim": self.interaction_dim,
            "lookback": self.lookback,
            "horizon": self.horizon,
            "embed_dim": self.embed_dim,
            "conv_channels": self.conv_channels,
            "kernel_width": self.kernel_width,
            "n_blocks": self.n_blocks,
            "bank_size": self.bank_size,
            "shape_loss_weight": self.shape_loss_weight,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return cls(**payload)


@dataclass(frozen=True)
class Prediction:
    """Model output for one example; decoder fields exist only for ``proposed``."""

    m_hat: np.ndarray
    shape: np.ndarray | None = None
    sigma: float | None = None
    mu: float | None = None
    mix_weights: np.ndarray | None = None
    bank: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.shape is not None:
            assert np.array_equal(self.m_hat, self.shape * self.sigma + self.mu)
            assert np.all(self.mix_weights > 0)
            assert abs(self.mix_weights.sum() - 1.0) < 1e-12


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------


def _param_specs(cfg: ModelConfig) -> list[tuple[str, tuple, int]]:
    """(name, shape, fan_in) in declaration order."""
    d, ch, w = cfg.n_features, cfg.conv_channels, cfg.kernel_width
    nk, nb, h = cfg.embed_dim, cfg.bank_size, cfg.horizon
    specs: list[tuple[str, tuple, int]] = []
    if cfg.variant in ("proposed", "base_inter"):
        specs.append(("embed.C", (cfg.interaction_dim, nk), cfg.interaction_dim))
    for blk in range(cfg.n_blocks):
        c_in = d if blk == 0 else ch
        specs.append((f"tcn{blk}.conv1.K", (ch, c_in, w), c_in * w))
        specs.append((f"tcn{blk}.conv1.b", (ch,), 0))
        specs.append((f"tcn{blk}.conv2.K", (ch, ch, w), ch * w))
        specs.append((f"tcn{blk}.conv2.b", (ch,), 0))
        if blk == 0:
            specs.append(("tcn0.res.K", (ch, d, 1), d))
            specs.append(("tcn0.res.b", (ch,), 0))
    if cfg.variant == "base":
        specs.append(("head.W", (ch, h), ch))
        specs.append(("head.b", (h,), 0))
    else:
        specs.append(("top1.W", (ch, nk), ch))
        specs.append(("top1.b", (nk,), 0))
        specs.append(("top2.W", (nk, nk), nk))
        specs.append(("top2.b", (nk,), 0))
        inter_out = 2 * nk if cfg.variant == "proposed" else nk * h
        specs.append(("scale_inter1.W", (nk, nk), nk))
        specs.append(("scale_inter1.b", (nk,), 0))
        specs.append(("scale_inter2.W", (nk, inter_out), nk))
        specs.append(("scale_inter2.b", (inter_out,), 0))
    if cfg.variant == "proposed":
        specs.append(("bank1.W", (nk, nk), nk))
        specs.append(("bank1.b", (nk,), 0))
        specs.append(("bank2.W", (nk, nb * h), nk))
        specs.append(("bank2.b", (nb * h,), 0))
        specs.append(("mix1.W", (ch, nk), ch))
        specs.append(("mix1.b", (nk,), 0))
        specs.append(("mix2.W", (nk, nb), nk))
        specs.append(("mix2.b", (nb,), 0))
    return specs


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded parameter dict in declaration order; biases start at zero."""
    params: dict[str, np.ndarray] = {}
    for name, shape, fan_in in _param_specs(cfg):
        if fan_in == 0:
            params[name] = np.zeros(shape)
        else:
            params[name] = uniform_init(rng, shape, fan_in)
    return params


# --------------------------------------------------------------------------
# Forward
# --------------------------------------------------------------------------


def interaction_encode(I: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Sum-to-one normalize the interaction vector, then mix embedding rows."""
    I = np.asarray(I, dtype=np.float64)
    if np.any(I < 0):
        raise ValueError("interaction vector must be non-negative")
    total = I.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise DegenerateInteractionError("interaction vector has no positive entries")
    return (I / total) @ C


def _tcn_forward(params, cfg: ModelConfig, X):
    """Temporal encoder; the backward cache holds each block's input and ReLU outputs.

    ReLU outputs are taken in place over the fresh conv and sum buffers, and
    ``relu_backward`` is given them as its mask, since relu(a) > 0 exactly
    where a > 0.
    """
    out = X
    cache = []
    for blk in range(cfg.n_blocks):
        xin = out
        a1 = conv1d_causal(xin, params[f"tcn{blk}.conv1.K"], params[f"tcn{blk}.conv1.b"])
        r1 = relu(a1, out=a1)
        a2 = conv1d_causal(r1, params[f"tcn{blk}.conv2.K"], params[f"tcn{blk}.conv2.b"])
        r2 = relu(a2, out=a2)
        if blk == 0:
            s = conv1d_causal(xin, params["tcn0.res.K"], params["tcn0.res.b"])
            s += r2
        else:
            s = r2 + xin
        out = relu(s, out=s)
        cache.append((xin, r1, r2, out))
    h_t = global_avg_pool_time(out)
    return h_t, cache


def _tcn_backward(params, cfg: ModelConfig, cache, grad_ht):
    """Parameter gradients of the temporal encoder (the input gradient is not needed).

    Gradient temporaries that are not read again are masked in place.
    """
    grads = {}
    g = global_avg_pool_time_backward(cache[-1][3], grad_ht)
    for blk in reversed(range(cfg.n_blocks)):
        xin, r1, r2, out = cache[blk]
        gs = relu_backward(out, g, out=g)
        ga2 = relu_backward(r2, gs)
        gr1, gk2, gb2 = conv1d_causal_backward(r1, params[f"tcn{blk}.conv2.K"], ga2)
        ga1 = relu_backward(r1, gr1, out=gr1)
        g, gk1, gb1 = conv1d_causal_backward(
            xin, params[f"tcn{blk}.conv1.K"], ga1, need_grad_x=blk > 0
        )
        grads[f"tcn{blk}.conv1.K"] = gk1
        grads[f"tcn{blk}.conv1.b"] = gb1
        grads[f"tcn{blk}.conv2.K"] = gk2
        grads[f"tcn{blk}.conv2.b"] = gb2
        if blk == 0:
            _, gkr, gbr = conv1d_causal_backward(
                xin, params["tcn0.res.K"], gs, need_grad_x=False
            )
            grads["tcn0.res.K"] = gkr
            grads["tcn0.res.b"] = gbr
        else:
            g += gs
    return grads


def _mlp2_forward(params, prefix, x, relu_out: bool):
    """Linear-ReLU-Linear (optionally with a trailing ReLU)."""
    a1 = dense(x, params[f"{prefix}1.W"], params[f"{prefix}1.b"])
    r1 = relu(a1)
    a2 = dense(r1, params[f"{prefix}2.W"], params[f"{prefix}2.b"])
    out = relu(a2) if relu_out else a2
    return out, (x, a1, r1, a2)


def _mlp2_backward(params, prefix, cache, grad_out, relu_out: bool):
    x, a1, r1, a2 = cache
    ga2 = relu_backward(a2, grad_out) if relu_out else grad_out
    gr1, gw2, gb2 = dense_backward(r1, params[f"{prefix}2.W"], ga2)
    ga1 = relu_backward(a1, gr1)
    gx, gw1, gb1 = dense_backward(x, params[f"{prefix}1.W"], ga1)
    grads = {
        f"{prefix}1.W": gw1,
        f"{prefix}1.b": gb1,
        f"{prefix}2.W": gw2,
        f"{prefix}2.b": gb2,
    }
    return grads, gx


def batch_forward(params, cfg: ModelConfig, X: np.ndarray, I: np.ndarray):
    """Forward pass on a batch; returns (outputs dict, cache for backward).

    X is (B, lookback, n_features); I is (B, interaction_dim).
    """
    b = X.shape[0]
    h_t, tcn_cache = _tcn_forward(params, cfg, X)
    cache: dict = {"tcn": tcn_cache, "h_t": h_t}
    if cfg.variant == "base":
        m_hat = dense(h_t, params["head.W"], params["head.b"])
        return {"m_hat": m_hat}, cache

    total = I.sum(axis=-1, keepdims=True)
    if np.any(total <= 0) or np.any(I < 0):
        raise DegenerateInteractionError("invalid interaction vector in batch")
    i_norm = I / total
    h_i = i_norm @ params["embed.C"]
    cache["i_norm"] = i_norm
    cache["h_i"] = h_i

    u, top_cache = _mlp2_forward(params, "top", h_t, relu_out=True)
    w_flat, inter_cache = _mlp2_forward(params, "scale_inter", h_i, relu_out=False)
    cache["top"] = top_cache
    cache["inter"] = inter_cache
    cache["u"] = u

    if cfg.variant == "base_inter":
        w_mat = w_flat.reshape(b, cfg.embed_dim, cfg.horizon)
        m_hat = np.einsum("bk,bkh->bh", u, w_mat)
        cache["w_mat"] = w_mat
        return {"m_hat": m_hat}, cache

    w_mat = w_flat.reshape(b, cfg.embed_dim, 2)
    scale_out = np.einsum("bk,bkj->bj", u, w_mat)
    sigma, mu = scale_out[:, 0], scale_out[:, 1]
    bank_flat, bank_cache = _mlp2_forward(params, "bank", h_i, relu_out=False)
    bank = bank_flat.reshape(b, cfg.bank_size, cfg.horizon)
    logits, mix_cache = _mlp2_forward(params, "mix", h_t, relu_out=False)
    mix = softmax(logits)
    shape = np.einsum("bn,bnh->bh", mix, bank)
    m_hat = shape * sigma[:, None] + mu[:, None]
    cache.update(
        {"w_mat": w_mat, "bank": bank, "bank_cache": bank_cache, "mix": mix,
         "mix_cache": mix_cache, "shape": shape, "sigma": sigma, "mu": mu}
    )
    out = {"m_hat": m_hat, "shape": shape, "sigma": sigma, "mu": mu,
           "mix_weights": mix, "bank": bank}
    return out, cache


def batch_backward(params, cfg: ModelConfig, cache, grad_m_hat, grad_shape_extra=None):
    """Backward pass; gradient dicts keyed like ``params``."""
    grads: dict[str, np.ndarray] = {}
    h_t = cache["h_t"]

    if cfg.variant == "base":
        g_ht, gw, gb = dense_backward(h_t, params["head.W"], grad_m_hat)
        grads["head.W"] = gw
        grads["head.b"] = gb
        grads.update(_tcn_backward(params, cfg, cache["tcn"], g_ht))
        return grads

    u = cache["u"]
    if cfg.variant == "base_inter":
        w_mat = cache["w_mat"]
        g_u = np.einsum("bkh,bh->bk", w_mat, grad_m_hat)
        g_wmat = np.einsum("bk,bh->bkh", u, grad_m_hat)
        g_wflat = g_wmat.reshape(g_wmat.shape[0], -1)
    else:
        sigma, mu, shape = cache["sigma"], cache["mu"], cache["shape"]
        mix, bank = cache["mix"], cache["bank"]
        g_sigma = (grad_m_hat * shape).sum(axis=1)
        g_mu = grad_m_hat.sum(axis=1)
        g_shape = grad_m_hat * sigma[:, None]
        if grad_shape_extra is not None:
            g_shape = g_shape + grad_shape_extra
        g_mix = np.einsum("bh,bnh->bn", g_shape, bank)
        g_bank = np.einsum("bn,bh->bnh", mix, g_shape)
        g_logits = softmax_backward(mix, g_mix)
        mg, g_ht_mix = _mlp2_backward(params, "mix", cache["mix_cache"], g_logits, False)
        grads.update(mg)
        bg, g_hi_bank = _mlp2_backward(
            params, "bank", cache["bank_cache"], g_bank.reshape(g_bank.shape[0], -1), False
        )
        grads.update(bg)
        w_mat = cache["w_mat"]
        g_scale_out = np.stack([g_sigma, g_mu], axis=1)
        g_u = np.einsum("bkj,bj->bk", w_mat, g_scale_out)
        g_wflat = np.einsum("bk,bj->bkj", u, g_scale_out).reshape(u.shape[0], -1)

    tg, g_ht_top = _mlp2_backward(params, "top", cache["top"], g_u, True)
    grads.update(tg)
    ig, g_hi_inter = _mlp2_backward(params, "scale_inter", cache["inter"], g_wflat, False)
    grads.update(ig)

    g_hi = g_hi_inter
    g_ht = g_ht_top
    if cfg.variant == "proposed":
        g_hi = g_hi + g_hi_bank
        g_ht = g_ht + g_ht_mix
    grads["embed.C"] = cache["i_norm"].T @ g_hi
    grads.update(_tcn_backward(params, cfg, cache["tcn"], g_ht))
    return grads


# --------------------------------------------------------------------------
# Loss
# --------------------------------------------------------------------------


def batch_losses(params, cfg: ModelConfig, X, I, Y, gamma: float) -> np.ndarray:
    """Per-example loss values (no gradients)."""
    out, _ = batch_forward(params, cfg, X, I)
    err = out["m_hat"] - Y
    losses = (err * err).mean(axis=1)
    if cfg.variant == "proposed":
        zy, degenerate = znormalize_rows(Y)
        serr = out["shape"] - zy
        shape_term = (serr * serr).mean(axis=1)
        shape_term[degenerate] = 0.0
        losses = losses + gamma * shape_term
    return losses


def batch_loss_and_grads(params, cfg: ModelConfig, X, I, Y, gamma: float):
    """Mean batch loss and gradients for every parameter."""
    b, h = Y.shape
    out, cache = batch_forward(params, cfg, X, I)
    err = out["m_hat"] - Y
    loss = float((err * err).mean(axis=1).mean())
    grad_m_hat = 2.0 * err / (h * b)
    grad_shape = None
    if cfg.variant == "proposed":
        zy, degenerate = znormalize_rows(Y)
        serr = out["shape"] - zy
        serr[degenerate] = 0.0
        loss += gamma * float((serr * serr).mean(axis=1).mean())
        grad_shape = 2.0 * gamma * serr / (h * b)
    grads = batch_backward(params, cfg, cache, grad_m_hat, grad_shape)
    return loss, grads


def batch_predict(params, cfg: ModelConfig, X, I) -> np.ndarray:
    out, _ = batch_forward(params, cfg, X, I)
    return out["m_hat"]


# --------------------------------------------------------------------------
# Single-example wrappers (operation contracts)
# --------------------------------------------------------------------------


def temporal_encode(T: np.ndarray, params, cfg: ModelConfig) -> np.ndarray:
    h_t, _ = _tcn_forward(params, cfg, T[None, :, :])
    return h_t[0]


def scale_decode(h_i, h_t, params, cfg: ModelConfig):
    u, _ = _mlp2_forward(params, "top", h_t[None, :], relu_out=True)
    w_flat, _ = _mlp2_forward(params, "scale_inter", h_i[None, :], relu_out=False)
    w_mat = w_flat.reshape(1, cfg.embed_dim, 2)
    out = np.einsum("bk,bkj->bj", u, w_mat)[0]
    return float(out[0]), float(out[1])


def shape_decode(h_i, h_t, params, cfg: ModelConfig):
    bank_flat, _ = _mlp2_forward(params, "bank", h_i[None, :], relu_out=False)
    bank = bank_flat.reshape(cfg.bank_size, cfg.horizon)
    logits, _ = _mlp2_forward(params, "mix", h_t[None, :], relu_out=False)
    mix = softmax(logits)[0]
    shape = mix @ bank
    return shape, mix, bank


def forward(example, params, cfg: ModelConfig) -> Prediction:
    """Single-example forward pass returning a ``Prediction``."""
    X = np.asarray(example.input_ts, dtype=np.float64)[None, :, :]
    I = np.asarray(example.interaction, dtype=np.float64)[None, :]
    out, _ = batch_forward(params, cfg, X, I)
    if cfg.variant == "proposed":
        return Prediction(
            m_hat=out["m_hat"][0],
            shape=out["shape"][0],
            sigma=float(out["sigma"][0]),
            mu=float(out["mu"][0]),
            mix_weights=out["mix_weights"][0],
            bank=out["bank"][0],
        )
    return Prediction(m_hat=out["m_hat"][0])


def loss(pred: Prediction, target: np.ndarray, gamma: float) -> float:
    """MSE plus (for the proposed variant) the normalized shape term."""
    target = np.asarray(target, dtype=np.float64)
    err = pred.m_hat - target
    value = float((err * err).mean())
    if pred.shape is not None:
        ztarget, degenerate = znormalize(target)
        if not degenerate:
            serr = pred.shape - ztarget
            value += gamma * float((serr * serr).mean())
    return value
