"""Estimation model: interaction/temporal encoders, scale/shape decoders.

Three variants share the temporal convolution stack:

* ``base``         - temporal encoder plus a linear head, features only.
* ``base_inter``   - the temporal representation is multiplied by a matrix
                     produced from the interaction representation.
* ``proposed``     - scale decoder (magnitude and offset) and shape decoder
                     (softmax-mixed bank of basis curves), recombined as
                     ``shape * sigma + mu``; trained with an extra
                     normalized shape term in the loss.

Forward passes take batched inputs (a batch of one for a single example).
Gradients are exact and checked against finite differences in the test suite.
Parameters and gradients are ``FlatViews``: named views over one flat vector
each.  The temporal encoder keeps its activations in the per-thread
workspace, and its backward pass overwrites them with gradients, so a
forward cache serves one backward pass, run before the next forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import require, znormalize_rows
from .nnkernel import (
    FlatViews,
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
    workspace,
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

    @classmethod
    def for_data(cls, dataset, horizon, **model_kwargs) -> "ModelConfig":
        """The model whose inputs are ``dataset``'s and whose windows are ``horizon``'s."""
        return cls(
            n_features=dataset.n_features,
            interaction_dim=dataset.interaction_dim,
            lookback=horizon.lookback,
            horizon=horizon.horizon,
            **model_kwargs,
        )


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


def param_views(cfg: ModelConfig, flat: np.ndarray) -> FlatViews:
    """``cfg``'s parameters by name over ``flat``, in declaration order.

    Raises ValueError when ``flat`` has another length than the parameters.
    """
    return FlatViews(flat, [(name, shape) for name, shape, _ in _param_specs(cfg)])


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> FlatViews:
    """Seeded parameters in declaration order; biases start at zero."""
    specs = _param_specs(cfg)
    params = FlatViews.empty([(name, shape) for name, shape, _ in specs])
    for name, shape, fan_in in specs:
        params[name][...] = 0.0 if fan_in == 0 else uniform_init(rng, shape, fan_in)
    return params


# --------------------------------------------------------------------------
# Forward
# --------------------------------------------------------------------------


def _tcn_forward(params, cfg: ModelConfig, X, ws):
    """Temporal encoder; the backward cache holds each block's input and ReLU outputs.

    Conv and sum outputs go into the workspace ``ws``'s per-block buffers,
    and the ReLUs are taken there in place; ``relu_backward`` is given the
    ReLU outputs as its mask, since relu(a) > 0 exactly where a > 0.  Only
    the pooled ``h_t`` is a fresh array.  With ``ws`` None no backward pass
    follows: the outputs are fresh arrays, freed as the pass moves on and
    not cached, so a large inference batch does not grow the workspace.
    """
    shape = (*X.shape[:-1], cfg.conv_channels)
    if ws is not None:
        ws.generation += 1

    def buf(key):
        return None if ws is None else ws.get(key, shape)

    out = X
    blocks = []
    for blk in range(cfg.n_blocks):
        xin = out
        r1 = conv1d_causal(xin, params[f"tcn{blk}.conv1.K"], params[f"tcn{blk}.conv1.b"],
                           out=buf(f"tcn{blk}.r1"))
        relu(r1, out=r1)
        r2 = conv1d_causal(r1, params[f"tcn{blk}.conv2.K"], params[f"tcn{blk}.conv2.b"],
                           out=buf(f"tcn{blk}.r2"))
        relu(r2, out=r2)
        if blk == 0:
            s = conv1d_causal(xin, params["tcn0.res.K"], params["tcn0.res.b"],
                              out=buf(f"tcn{blk}.out"))
            s += r2
        else:
            s = np.add(r2, xin, out=buf(f"tcn{blk}.out"))
        out = relu(s, out=s)
        if ws is not None:
            blocks.append((xin, r1, r2, out))
    h_t = global_avg_pool_time(out)
    return h_t, {"blocks": blocks, "workspace": ws,
                 "generation": None if ws is None else ws.generation}


def _tcn_backward(params, cfg: ModelConfig, cache, grad_ht, grads: FlatViews) -> None:
    """Parameter gradients of the temporal encoder, written into ``grads``.

    The input gradient is not needed.  Each gradient temporary is written
    over a forward buffer that is no longer read, so the pass needs one
    spare buffer besides the cache.  Raises InvariantError when the cache's
    buffers were refilled by a later pass.
    """
    ws = cache["workspace"]
    require(ws is not None, "the forward pass was run without a backward cache")
    require(ws is workspace() and ws.generation == cache["generation"],
            "the TCN cache was overwritten: run a backward pass on this thread "
            "before the next forward pass")
    ws.generation += 1
    blocks = cache["blocks"]
    top = len(blocks) - 1
    out = blocks[top][3]
    g = relu_backward(out, global_avg_pool_time_backward(out, grad_ht), out=out)
    for blk in reversed(range(cfg.n_blocks)):
        xin, r1, r2, out = blocks[blk]
        gs = g if blk == top else relu_backward(out, g, out=g)
        free = ws.get("tcn.spare", out.shape) if blk == top else out
        ga2 = relu_backward(r2, gs, out=r2)
        gr1 = conv1d_causal_backward(
            r1, params[f"tcn{blk}.conv2.K"], ga2,
            out=(free, grads[f"tcn{blk}.conv2.K"], grads[f"tcn{blk}.conv2.b"]),
        )[0]
        ga1 = relu_backward(r1, gr1, out=gr1)
        g = conv1d_causal_backward(
            xin, params[f"tcn{blk}.conv1.K"], ga1, need_grad_x=blk > 0,
            out=(r2, grads[f"tcn{blk}.conv1.K"], grads[f"tcn{blk}.conv1.b"]),
        )[0]
        if blk == 0:
            conv1d_causal_backward(xin, params["tcn0.res.K"], gs, need_grad_x=False,
                                   out=(None, grads["tcn0.res.K"], grads["tcn0.res.b"]))
        else:
            g += gs


def _mlp2_forward(params, prefix, x, relu_out: bool):
    """Linear-ReLU-Linear (optionally with a trailing ReLU)."""
    a1 = dense(x, params[f"{prefix}1.W"], params[f"{prefix}1.b"])
    r1 = relu(a1)
    a2 = dense(r1, params[f"{prefix}2.W"], params[f"{prefix}2.b"])
    out = relu(a2) if relu_out else a2
    return out, (x, a1, r1, a2)


def _mlp2_backward(params, prefix, cache, grad_out, relu_out: bool, grads: FlatViews):
    """Writes the layer gradients into ``grads``; returns the input gradient."""
    x, a1, r1, a2 = cache
    ga2 = relu_backward(a2, grad_out) if relu_out else grad_out
    gr1 = dense_backward(r1, params[f"{prefix}2.W"], ga2,
                         out=(None, grads[f"{prefix}2.W"], grads[f"{prefix}2.b"]))[0]
    ga1 = relu_backward(a1, gr1, out=gr1)
    return dense_backward(x, params[f"{prefix}1.W"], ga1,
                          out=(None, grads[f"{prefix}1.W"], grads[f"{prefix}1.b"]))[0]


def batch_forward(params, cfg: ModelConfig, X: np.ndarray, I: np.ndarray,
                  for_backward: bool = True):
    """Forward pass on a batch; returns (outputs dict, cache for backward).

    X is (B, lookback, n_features); I is (B, interaction_dim).  The outputs
    and the cached ``h_t`` are fresh arrays; the rest of the TCN cache lives
    in the workspace (see ``batch_backward``).  With ``for_backward=False``
    the pass leaves the workspace alone and its cache serves no backward
    pass.
    """
    b = X.shape[0]
    h_t, tcn_cache = _tcn_forward(params, cfg, X, workspace() if for_backward else None)
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
    """Backward pass; gradients in a fresh ``FlatViews`` laid out like ``params``.

    It overwrites the cache's TCN buffers, so a cache serves one backward
    pass, which must come before the next forward pass on the thread;
    otherwise InvariantError is raised.
    """
    grads = FlatViews.empty([(name, p.shape) for name, p in params.items()])
    h_t = cache["h_t"]

    if cfg.variant == "base":
        g_ht = dense_backward(h_t, params["head.W"], grad_m_hat,
                              out=(None, grads["head.W"], grads["head.b"]))[0]
        _tcn_backward(params, cfg, cache["tcn"], g_ht, grads)
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
        g_ht_mix = _mlp2_backward(params, "mix", cache["mix_cache"], g_logits, False, grads)
        g_hi_bank = _mlp2_backward(params, "bank", cache["bank_cache"],
                                   g_bank.reshape(g_bank.shape[0], -1), False, grads)
        w_mat = cache["w_mat"]
        g_scale_out = np.stack([g_sigma, g_mu], axis=1)
        g_u = np.einsum("bkj,bj->bk", w_mat, g_scale_out)
        g_wflat = np.einsum("bk,bj->bkj", u, g_scale_out).reshape(u.shape[0], -1)

    g_ht = _mlp2_backward(params, "top", cache["top"], g_u, True, grads)
    g_hi = _mlp2_backward(params, "scale_inter", cache["inter"], g_wflat, False, grads)
    if cfg.variant == "proposed":
        g_hi = g_hi + g_hi_bank
        g_ht = g_ht + g_ht_mix
    np.matmul(cache["i_norm"].T, g_hi, out=grads["embed.C"])
    _tcn_backward(params, cfg, cache["tcn"], g_ht, grads)
    return grads


# --------------------------------------------------------------------------
# Loss
# --------------------------------------------------------------------------


def loss_errors(m_hat: np.ndarray, shape: np.ndarray | None, Y: np.ndarray):
    """(err, serr): the prediction error and, given a shape, the shape error.

    ``serr`` compares ``shape`` with the z-normalized target and is zero on
    rows whose target is constant; it is None when ``shape`` is.  A row's
    loss is ``mean(err**2) + gamma * mean(serr**2)``.
    """
    err = m_hat - Y
    if shape is None:
        return err, None
    zy, degenerate = znormalize_rows(Y)
    serr = shape - zy
    serr[degenerate] = 0.0
    return err, serr


def batch_losses(params, cfg: ModelConfig, X, I, Y, gamma: float) -> np.ndarray:
    """Per-example loss values (no gradients)."""
    out, _ = batch_forward(params, cfg, X, I, for_backward=False)
    err, serr = loss_errors(out["m_hat"], out.get("shape"), Y)
    losses = (err * err).mean(axis=1)
    if serr is not None:
        losses = losses + gamma * (serr * serr).mean(axis=1)
    return losses


def batch_loss_and_grads(params, cfg: ModelConfig, X, I, Y, gamma: float):
    """Mean batch loss and the gradient of every parameter.

    The gradients are a ``FlatViews`` over a fresh vector that the caller owns.
    """
    b, h = Y.shape
    out, cache = batch_forward(params, cfg, X, I)
    err, serr = loss_errors(out["m_hat"], out.get("shape"), Y)
    loss = float((err * err).mean(axis=1).mean())
    grad_m_hat = 2.0 * err / (h * b)
    grad_shape = None
    if serr is not None:
        loss += gamma * float((serr * serr).mean(axis=1).mean())
        grad_shape = 2.0 * gamma * serr / (h * b)
    grads = batch_backward(params, cfg, cache, grad_m_hat, grad_shape)
    return loss, grads


def batch_predict(params, cfg: ModelConfig, X, I) -> np.ndarray:
    out, _ = batch_forward(params, cfg, X, I, for_backward=False)
    return out["m_hat"]
