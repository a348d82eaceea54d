"""Candidate weighting for mini-batch selection during online updates.

This module owns the scheme vocabulary: ``parse_scheme`` turns a scheme
string into a ``SchemeSpec``, which says what the scheme needs and how it is
labelled.  A scheme pairs one temporal rule (uniform, fixed window, linear
decay, or segmentation-driven) with one non-temporal rule (uniform,
similarity to the current input window, or rankings from cached errors /
error dynamics); ``frozen`` instead keeps the offline model.  The two weight
vectors are combined by elementwise product and renormalized, and batches
are drawn with replacement from the resulting categorical distribution.

Error-based rules operate on a persistent evaluation subsample whose
per-candidate losses are refreshed once per simulated day; a short ring
buffer of those snapshots yields confidence (negated mean error) and
variability (population std of errors).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import require
from .profiles import SamplingCurve, mass

logger = logging.getLogger(__name__)

TEMPORAL_SCHEMES = ("uniform", "fixed", "decay", "segment")
ERROR_SCHEMES = (
    "high_error",
    "low_error",
    "high_confidence",
    "low_confidence",
    "high_variability",
    "low_variability",
)
NONTEMPORAL_SCHEMES = ("uniform", "similar", *ERROR_SCHEMES)
FROZEN = "frozen"   # the scheme that keeps the offline model: no online update
VOCABULARY = (
    f"a scheme is {FROZEN!r} or 'temporal:nontemporal' with temporal one of "
    f"{', '.join(TEMPORAL_SCHEMES)} (fixed as fixedN, e.g. fixed120) and "
    f"non-temporal one of {', '.join(NONTEMPORAL_SCHEMES)}"
)
DECAY_EPS = 1e-6
SIMILAR_EPS = 1e-6
_KEY_BASE = np.int64(1) << np.int64(40)


@dataclass(frozen=True)
class SchemeSpec:
    """A temporal and a non-temporal rule, or ``frozen`` as both."""

    temporal: str
    nontemporal: str
    fixed_days: int | None = None

    def __post_init__(self) -> None:
        if (self.temporal, self.nontemporal, self.fixed_days) == (FROZEN, FROZEN, None):
            return
        if self.temporal not in TEMPORAL_SCHEMES or self.nontemporal not in NONTEMPORAL_SCHEMES:
            raise ValueError(f"unknown rule in {':'.join(self.labels)}; {VOCABULARY}")
        if self.temporal == "fixed" and (self.fixed_days is None or self.fixed_days <= 0):
            raise ValueError("fixed temporal scheme needs fixed_days > 0")

    @property
    def frozen(self) -> bool:
        return self.temporal == FROZEN

    @property
    def reads_errors(self) -> bool:
        """Whether the non-temporal rule ranks the error cache."""
        return self.nontemporal in ERROR_SCHEMES

    @property
    def labels(self) -> tuple[str, str]:
        """(temporal, non-temporal) as written in a scheme, ``fixedN`` included."""
        t = f"fixed{self.fixed_days}" if self.temporal == "fixed" else self.temporal
        return t, self.nontemporal

    @property
    def label(self) -> str:
        return FROZEN if self.frozen else ":".join(self.labels)


def parse_scheme(text: str) -> SchemeSpec:
    """Parse ``frozen`` or ``temporal:nontemporal`` strings such as ``segment:similar``."""
    if text == FROZEN:
        return SchemeSpec(FROZEN, FROZEN)
    parts = text.split(":")
    if len(parts) != 2 or FROZEN in parts:
        raise ValueError(f"malformed scheme {text!r}; {VOCABULARY}")
    t, nt = parts
    match = re.fullmatch(r"fixed(\d+)", t)
    if match:
        return SchemeSpec(temporal="fixed", nontemporal=nt, fixed_days=int(match.group(1)))
    return SchemeSpec(temporal=t, nontemporal=nt)


@dataclass(frozen=True)
class CandidateArray:
    """Vectorized (entity, anchor) pairs, sorted by (entity index, anchor)."""

    entity_idx: np.ndarray
    anchors: np.ndarray

    def __post_init__(self) -> None:
        require(len(self.entity_idx) == len(self.anchors), "one entity index per anchor")

    def __len__(self) -> int:
        return len(self.anchors)

    @property
    def keys(self) -> np.ndarray:
        return self.entity_idx.astype(np.int64) * _KEY_BASE + self.anchors

    def take(self, idx: np.ndarray) -> "CandidateArray":
        return CandidateArray(self.entity_idx[idx], self.anchors[idx])


@dataclass(frozen=True)
class CandidateWeights:
    candidates: CandidateArray
    weights: np.ndarray

    def __post_init__(self) -> None:
        require(len(self.weights) == len(self.candidates), "one weight per candidate")
        require(np.all(self.weights >= 0), "weights must be non-negative")
        require(abs(self.weights.sum() - 1.0) <= 1e-9, "weights must sum to 1")

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative weights ending at exactly 1, as ``rng.choice(p=weights)`` builds them."""
        cdf = self.weights.cumsum()
        cdf /= cdf[-1]
        return cdf


def uniform_weights(candidates: CandidateArray) -> CandidateWeights:
    n = len(candidates)
    return CandidateWeights(candidates, np.full(n, 1.0 / n))


def _normalized(candidates: CandidateArray, raw: np.ndarray) -> CandidateWeights:
    total = raw.sum()
    if total <= 0:
        logger.warning("all-zero weights, falling back to uniform")
        return uniform_weights(candidates)
    return CandidateWeights(candidates, raw / total)


# --------------------------------------------------------------------------
# Temporal rules
# --------------------------------------------------------------------------


def temporal_weights(
    spec: SchemeSpec,
    candidates: CandidateArray,
    now_hour: int,
    segmentation: SamplingCurve | None,
    lookback: int,
) -> CandidateWeights:
    """Weight candidates by their temporal location.

    ``segmentation`` holds one curve per entity index, indexed by
    subsequence start (anchor minus ``lookback``); only the ``segment`` rule
    reads it.
    """
    if len(candidates) == 0:
        raise ValueError("no candidates to weight")
    if spec.temporal == "uniform":
        return uniform_weights(candidates)
    age_days = (now_hour - candidates.anchors) / 24.0
    if spec.temporal == "fixed":
        inside = age_days <= spec.fixed_days
        require(inside.any(), f"fixed window of {spec.fixed_days} days holds no candidates")
        return _normalized(candidates, inside.astype(np.float64))
    if spec.temporal == "decay":
        oldest = age_days.max()
        raw = np.maximum(DECAY_EPS, 1.0 - age_days / (oldest + 1.0))
        return _normalized(candidates, raw)
    require(segmentation is not None, "segment weighting reads a segmentation never computed")
    raw = segmentation.p[candidates.entity_idx, candidates.anchors - lookback]
    return _normalized(candidates, raw)


# --------------------------------------------------------------------------
# Error cache and dynamics history
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorCache:
    """Most recent per-candidate loss over a persistent tracked subsample."""

    candidates: CandidateArray
    errors: np.ndarray
    anchor_cutoff: int
    day: int

    def __post_init__(self) -> None:
        require(np.all(self.errors >= 0), "cached errors must be non-negative")


@dataclass(frozen=True)
class DynamicsHistory:
    """Ring buffer of the last ``capacity`` daily error snapshots per candidate."""

    capacity: int
    snapshots: np.ndarray  # (n_tracked, capacity); column 0 is the newest
    counts: np.ndarray     # valid snapshots per candidate

    def stats(self) -> tuple[np.ndarray, np.ndarray]:
        """(confidence, variability); candidates with <2 snapshots get the median."""
        n, k = self.snapshots.shape
        cols = np.arange(k)
        valid = cols[None, :] < self.counts[:, None]
        denom = np.maximum(self.counts, 1)
        mean = (self.snapshots * valid).sum(axis=1) / denom
        sq = (self.snapshots**2 * valid).sum(axis=1) / denom
        confidence = -mean
        variability = np.sqrt(np.maximum(sq - mean * mean, 0.0))
        seasoned = self.counts >= 2
        if seasoned.any() and not seasoned.all():
            confidence[~seasoned] = np.median(confidence[seasoned])
            variability[~seasoned] = np.median(variability[seasoned])
        return confidence, variability


def refresh_error_cache(
    loss_fn,
    candidates: CandidateArray,
    cache: ErrorCache | None,
    dynamics: DynamicsHistory | None,
    subsample_size: int,
    rng: np.random.Generator,
    day: int,
    capacity: int,
) -> tuple[ErrorCache, DynamicsHistory]:
    """Re-evaluate the tracked subsample under the current model.

    The tracked set persists across refreshes (no cache: an empty set);
    candidates anchored past the cache's cutoff join it, and if the union
    exceeds ``subsample_size`` a uniform subsample is kept.  ``loss_fn``
    maps a CandidateArray to per-candidate losses.
    """
    old = candidates.take(slice(0)) if cache is None else cache.candidates
    fresh = candidates.anchors > (-1 if cache is None else cache.anchor_cutoff)
    merged_entity = np.concatenate([old.entity_idx, candidates.entity_idx[fresh]])
    merged_anchor = np.concatenate([old.anchors, candidates.anchors[fresh]])
    order = np.lexsort((merged_anchor, merged_entity))
    tracked = CandidateArray(merged_entity[order], merged_anchor[order])
    if len(tracked) > subsample_size:
        keep = np.sort(rng.choice(len(tracked), size=subsample_size, replace=False))
        tracked = tracked.take(keep)
    old_keys = old.keys

    errors = np.asarray(loss_fn(tracked), dtype=np.float64)
    require(errors.shape == (len(tracked),), "loss_fn must give one loss per candidate")

    n = len(tracked)
    snapshots = np.zeros((n, capacity))
    counts = np.zeros(n, dtype=np.int64)
    if dynamics is not None and len(old_keys):
        pos = np.searchsorted(old_keys, tracked.keys)
        pos = np.clip(pos, 0, len(old_keys) - 1)
        hit = old_keys[pos] == tracked.keys
        snapshots[hit] = dynamics.snapshots[pos[hit]]
        counts[hit] = dynamics.counts[pos[hit]]
    snapshots[:, 1:] = snapshots[:, :-1]
    snapshots[:, 0] = errors
    counts = np.minimum(counts + 1, capacity)

    new_cache = ErrorCache(
        candidates=tracked,
        errors=errors,
        anchor_cutoff=int(candidates.anchors.max()),
        day=day,
    )
    return new_cache, DynamicsHistory(capacity=capacity, snapshots=snapshots, counts=counts)


# --------------------------------------------------------------------------
# Non-temporal rules
# --------------------------------------------------------------------------


def _rank_weights_over(
    candidates: CandidateArray,
    tracked: CandidateArray,
    stat: np.ndarray,
) -> CandidateWeights:
    """Linear-rank weights by ascending ``stat`` over the tracked subset.

    The most favored tracked candidate (largest stat) gets rank n; candidates
    outside the tracked set get zero weight.  Ties break by ascending
    (entity index, anchor).
    """
    cand_keys = candidates.keys
    pos = np.searchsorted(cand_keys, tracked.keys)
    pos = np.clip(pos, 0, len(cand_keys) - 1)
    hit = cand_keys[pos] == tracked.keys
    order = np.lexsort((tracked.anchors[hit], tracked.entity_idx[hit], stat[hit]))
    ranks = np.empty(hit.sum())
    ranks[order] = np.arange(1, hit.sum() + 1)
    raw = np.zeros(len(candidates))
    raw[pos[hit]] = ranks
    return _normalized(candidates, raw)


def nontemporal_weights(
    spec: SchemeSpec,
    candidates: CandidateArray,
    cache: ErrorCache | None,
    dynamics: DynamicsHistory | None,
    history: np.ndarray,
    queries: np.ndarray,
) -> CandidateWeights:
    """Weight candidates by similarity, cached error, or error dynamics.

    ``history`` is every entity's labelled features, (entities, hours, d),
    and ``queries`` their current input windows, (entities, lookback, d);
    only the ``similar`` rule reads them.  The error rules read ``cache``
    and ``dynamics`` as ``refresh_error_cache`` just left them.
    """
    if len(candidates) == 0:
        raise ValueError("no candidates to weight")
    kind = spec.nontemporal
    if kind == "uniform":
        return uniform_weights(candidates)

    if kind == "similar":
        lookback = queries.shape[1]
        raw = np.empty(len(candidates))
        for e in np.unique(candidates.entity_idx):
            sel = candidates.entity_idx == e
            feats, query = history[e], queries[e]
            dims_used = 0
            dist = np.zeros(feats.shape[0] - lookback + 1)
            for j in range(feats.shape[1]):
                q = query[:, j]
                if q.std() == 0.0:
                    logger.warning("similar: query channel %d is constant, skipped", j)
                    continue
                dist += mass(q, feats[:, j]).distances
                dims_used += 1
            if dims_used:
                dist /= dims_used
            positions = candidates.anchors[sel] - lookback
            d_c = dist[positions]
            raw[sel] = d_c.max() - d_c + SIMILAR_EPS
        return _normalized(candidates, raw)

    require(cache is not None and len(cache.candidates) > 0,
            f"{kind} weighting reads an error cache that was never refreshed")
    if kind == "high_error":
        return _rank_weights_over(candidates, cache.candidates, cache.errors)
    if kind == "low_error":
        return _rank_weights_over(candidates, cache.candidates, -cache.errors)

    require(dynamics is not None and dynamics.counts.any(),
            f"{kind} weighting reads an error history that was never recorded")
    confidence, variability = dynamics.stats()
    stat = {
        "high_confidence": confidence,
        "low_confidence": -confidence,
        "high_variability": variability,
        "low_variability": -variability,
    }[kind]
    return _rank_weights_over(candidates, cache.candidates, stat)


# --------------------------------------------------------------------------
# Combination and batch drawing
# --------------------------------------------------------------------------


def combine(w1: CandidateWeights, w2: CandidateWeights) -> CandidateWeights:
    """Elementwise product of two weightings over the same candidate list."""
    if not (
        np.array_equal(w1.candidates.entity_idx, w2.candidates.entity_idx)
        and np.array_equal(w1.candidates.anchors, w2.candidates.anchors)
    ):
        raise ValueError("cannot combine weightings over different candidate lists")
    product = w1.weights * w2.weights
    total = product.sum()
    if total <= 0:
        logger.warning("combined weights have empty support, falling back to uniform")
        return uniform_weights(w1.candidates)
    return CandidateWeights(w1.candidates, product / total)


def sample_batch(
    w: CandidateWeights, batch_size: int, rng: np.random.Generator
) -> CandidateArray:
    """``batch_size`` independent draws with replacement.

    The indices and the generator's state afterwards are those of
    ``rng.choice(len(w.candidates), batch_size, p=w.weights)``, which builds
    and searches the same cumulative weights on every call.
    """
    idx = w.cdf.searchsorted(rng.random(batch_size), side="right")
    return w.candidates.take(idx)
