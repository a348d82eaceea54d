"""Deterministic synthetic dataset generator with injectable concept drift.

Entities are grouped into clusters.  Every entity's feature channels follow
daily (period 24) and weekly (period 168) sinusoidal profiles whose phases are
cluster-specific, plus white noise.  The first two clusters always share the
same feature profiles, so cluster identity is deliberately unrecoverable from
features alone; it is recoverable from the interaction snapshots, which
concentrate counts on same-cluster entities.  The target metric is a
cluster-specific linear functional of the recent feature window (with a
cluster offset and a small per-entity perturbation), scaled per entity by a
log-uniform factor.

Concept drift is injected into the feature-to-metric mapping: at the drift
point every cluster adopts the next cluster's functional, either abruptly or
as a linear blend.  Channel 0 additionally flips its daily phase across the
drift so the change leaves a signature in the feature series itself.

Given the same config and seed the emitted directory is byte-identical;
per-entity RNG streams are derived from (seed, entity index) so per-entity
generation order does not matter.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import HOURS_PER_DAY, DatasetError

DAILY_PERIOD = 24
WEEKLY_PERIOD = 168
LAG_WINDOW = 6           # metric depends on features this many hours back
TRAILING_DAYS = 30       # interaction snapshots sum counts over this window
RATE_SELF = 90.0         # expected daily self-interaction count
RATE_SAME = 30.0         # expected daily count toward a same-cluster entity
RATE_CROSS = 2.0         # expected daily count toward another cluster
OUTLIER_SCALE = 8.0      # spike magnitude in units of the base noise std


@dataclass(frozen=True)
class GenConfig:
    n_entities: int = 30
    n_clusters: int = 3
    d: int = 6
    k: int | None = None             # interaction dimension; defaults to n_entities
    days: int = 540
    drift_kind: str = "none"         # none | abrupt | incremental
    drift_day: int | None = None
    scale_spread: float = 4.0        # max ratio between per-entity metric scales
    noise_level: float = 0.1         # noise std as a fraction of signal std
    outlier_rate: float = 0.02       # fraction of metric hours hit by a spike
    entity_jitter: float = 0.1       # per-entity perturbation of the cluster functional
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_entities < 1:
            raise ValueError("n_entities must be >= 1")
        if not 1 <= self.n_clusters <= self.n_entities:
            raise ValueError("need 1 <= n_clusters <= n_entities")
        if self.d < 1 or self.days < 2:
            raise ValueError("d must be >= 1 and days >= 2")
        if self.drift_kind not in ("none", "abrupt", "incremental"):
            raise ValueError(f"unknown drift_kind {self.drift_kind!r}")
        if self.drift_kind != "none":
            if self.drift_day is None or not 0 < self.drift_day < self.days:
                raise ValueError("drift_day must satisfy 0 < drift_day < days")
        if self.scale_spread < 1.0:
            raise ValueError("scale_spread must be >= 1")
        if not 0.0 <= self.outlier_rate < 1.0:
            raise ValueError("outlier_rate must be in [0, 1)")

    @property
    def interaction_dim(self) -> int:
        return self.k if self.k is not None else self.n_entities

    @property
    def drift_hour(self) -> int | None:
        return None if self.drift_kind == "none" else self.drift_day * HOURS_PER_DAY


def _cluster_of(idx: int, cfg: GenConfig) -> int:
    return idx % cfg.n_clusters


@dataclass(frozen=True)
class _ClusterPlan:
    """Frozen cluster-level randomness shared by all entities."""

    daily_amp: np.ndarray       # (d,)
    weekly_amp: np.ndarray      # (d,)
    daily_phase: np.ndarray     # (n_clusters, d) hours
    weekly_phase: np.ndarray    # (n_clusters, d) hours
    lag_weights: np.ndarray     # (n_clusters, d, LAG_WINDOW), unit norm per cluster
    offsets: np.ndarray         # (n_clusters,)


def _plan_clusters(cfg: GenConfig) -> _ClusterPlan:
    rng = np.random.default_rng([cfg.seed, 100])
    daily_amp = rng.uniform(0.5, 1.0, size=cfg.d)
    weekly_amp = rng.uniform(0.3, 0.8, size=cfg.d)
    daily_phase = rng.uniform(0, DAILY_PERIOD, size=(cfg.n_clusters, cfg.d))
    weekly_phase = rng.uniform(0, WEEKLY_PERIOD, size=(cfg.n_clusters, cfg.d))
    lag_weights = rng.standard_normal((cfg.n_clusters, cfg.d, LAG_WINDOW))
    for c in range(cfg.n_clusters):
        lag_weights[c] /= np.linalg.norm(lag_weights[c])
    offsets = rng.uniform(1.0, 2.0, size=cfg.n_clusters) * rng.choice(
        [-1.0, 1.0], size=cfg.n_clusters
    )
    if cfg.n_clusters >= 2:
        # Clusters 0 and 1 are feature twins with opposed metric functionals:
        # identical profiles, negated lag weights and offset.
        daily_phase[1] = daily_phase[0]
        weekly_phase[1] = weekly_phase[0]
        lag_weights[1] = -lag_weights[0]
        offsets[0] = abs(offsets[0])
        offsets[1] = -offsets[0]
    return _ClusterPlan(daily_amp, weekly_amp, daily_phase, weekly_phase, lag_weights, offsets)


def _drift_blend(cfg: GenConfig, tau: int) -> np.ndarray:
    """Per-hour mixing factor toward the post-drift functional, in [0, 1]."""
    alpha = np.zeros(tau)
    hour = cfg.drift_hour
    if hour is None:
        return alpha
    if cfg.drift_kind == "abrupt":
        alpha[hour:] = 1.0
    else:
        span = max(tau - hour, 1)
        alpha[hour:] = np.arange(tau - hour) / span
    return alpha


def _entity_features(
    cfg: GenConfig, plan: _ClusterPlan, cluster: int, alpha: np.ndarray, rng
) -> np.ndarray:
    tau = cfg.days * HOURS_PER_DAY
    t = np.arange(tau)
    feats = np.empty((tau, cfg.d))
    for j in range(cfg.d):
        shift = plan.daily_phase[cluster, j]
        if j == 0:
            # Regime-dependent channel: its intra-day waveform changes across
            # the drift (the period halves), leaving a signature that nearest
            # neighbor subsequence matching cannot bridge.  A plain phase flip
            # is too weak: time-shifted lookalikes exist across the boundary.
            period = DAILY_PERIOD / (1.0 + alpha)
            daily = plan.daily_amp[j] * np.sin(2 * np.pi * (t + shift) / period)
        else:
            daily = plan.daily_amp[j] * np.sin(2 * np.pi * (t + shift) / DAILY_PERIOD)
        clean = daily + plan.weekly_amp[j] * np.sin(
            2 * np.pi * (t + plan.weekly_phase[cluster, j]) / WEEKLY_PERIOD
        )
        signal_std = np.sqrt((plan.daily_amp[j] ** 2 + plan.weekly_amp[j] ** 2) / 2)
        feats[:, j] = clean + rng.normal(0.0, cfg.noise_level * signal_std, size=tau)
    return feats


def _lagged_response(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_{j, l>=1} weights[j, l-1] * features[t - l, j], zero-padded at the front."""
    tau = features.shape[0]
    out = np.zeros(tau)
    for j in range(weights.shape[0]):
        kernel = np.concatenate(([0.0], weights[j]))
        out += np.convolve(features[:, j], kernel)[:tau]
    return out


def _entity_metric(
    cfg: GenConfig,
    plan: _ClusterPlan,
    cluster: int,
    features: np.ndarray,
    alpha: np.ndarray,
    scale: float,
    rng,
) -> np.ndarray:
    tau = features.shape[0]
    nxt = (cluster + 1) % cfg.n_clusters
    jitter_dir = rng.standard_normal((cfg.d, LAG_WINDOW))
    jitter_dir /= np.linalg.norm(jitter_dir)
    offset_jitter = 1.0 + cfg.entity_jitter * rng.uniform(-1.0, 1.0)

    def entity_weights(c: int) -> np.ndarray:
        w = plan.lag_weights[c] + cfg.entity_jitter * jitter_dir
        return w / np.linalg.norm(w)

    dyn_pre = _lagged_response(features, entity_weights(cluster))
    offset_pre = plan.offsets[cluster] * offset_jitter
    dyn = dyn_pre
    offset = np.full(tau, offset_pre)
    if cfg.drift_kind != "none" and nxt != cluster:
        dyn_post = _lagged_response(features, entity_weights(nxt))
        offset_post = plan.offsets[nxt] * offset_jitter
        dyn = (1.0 - alpha) * dyn_pre + alpha * dyn_post
        offset = (1.0 - alpha) * offset_pre + alpha * offset_post

    noise = rng.normal(0.0, cfg.noise_level, size=tau)
    if cfg.outlier_rate > 0:
        spikes = rng.random(tau) < cfg.outlier_rate
        noise = noise + spikes * rng.normal(0.0, OUTLIER_SCALE * cfg.noise_level, size=tau)
    return scale * (offset + dyn + noise)


def _entity_interactions(
    cfg: GenConfig, clusters: np.ndarray, idx: int, rng
) -> np.ndarray:
    k = cfg.interaction_dim
    rates = np.full(k, RATE_CROSS)
    same = np.flatnonzero(clusters[: min(k, cfg.n_entities)] == clusters[idx])
    rates[same] = RATE_SAME
    if idx < k:
        rates[idx] = RATE_SELF
    daily = rng.poisson(rates, size=(cfg.days + TRAILING_DAYS - 1, k)).astype(np.float64)
    csum = np.cumsum(daily, axis=0)
    trailing = csum[TRAILING_DAYS - 1 :].copy()
    trailing[1:] -= csum[: cfg.days - 1]
    return trailing


def generate(cfg: GenConfig, out_dir: str | Path) -> Path:
    """Write a full dataset directory for ``cfg``; returns the directory path."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise DatasetError(f"cannot create output directory {out}: {err}") from err

    plan = _plan_clusters(cfg)
    tau = cfg.days * HOURS_PER_DAY
    alpha = _drift_blend(cfg, tau)
    clusters = np.array([_cluster_of(i, cfg) for i in range(cfg.n_entities)])
    entity_ids = [f"e{i:03d}" for i in range(cfg.n_entities)]

    interactions = []
    for idx, entity_id in enumerate(entity_ids):
        rng = np.random.default_rng([cfg.seed, 101, idx])
        scale = float(np.exp(rng.uniform(0.0, np.log(cfg.scale_spread))))
        features = _entity_features(cfg, plan, clusters[idx], alpha, rng)
        metric = _entity_metric(cfg, plan, clusters[idx], features, alpha, scale, rng)
        # hourly aggregates grow with entity size, so the same per-entity
        # factor scales the observable features and the target metric
        features = scale * features
        interactions.append(_entity_interactions(cfg, clusters, idx, rng).astype(np.int64))

        lines = ["hour," + ",".join(f"f{j}" for j in range(cfg.d)) + ",metric"]
        lines += [f"{t},{','.join(map(repr, row))},{m!r}"
                  for t, (row, m) in enumerate(zip(features.tolist(), metric.tolist()))]
        (out / f"entity_{entity_id}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # day-major: every entity's snapshot of day 0, then of day 1, ...
    counts = [[",".join(map(repr, row)) for row in a.tolist()] for a in interactions]
    lines = ["day,entity_id," + ",".join(f"c{j}" for j in range(cfg.interaction_dim))]
    lines += [f"{day},{entity_id},{rows[day]}"
              for day in range(cfg.days) for entity_id, rows in zip(entity_ids, counts)]
    (out / "interactions.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    meta = {
        "format": 1,
        "d": cfg.d,
        "k": cfg.interaction_dim,
        "tau": tau,
        "days": cfg.days,
        "start": "2021-01-01T00:00:00Z",
        "entities": entity_ids,
        "clusters": {entity_ids[i]: int(clusters[i]) for i in range(cfg.n_entities)},
        "drift": {
            "kind": cfg.drift_kind,
            "day": cfg.drift_day,
            "hour": cfg.drift_hour,
        },
        "config": asdict(cfg),
    }
    (out / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out
