"""Offline training, the daily online update loop, and checkpointing.

Training windows are enumerated as a ``CandidateArray`` by
``build_candidates`` and cut in batches by ``DatasetIndex.gather``; this is
the only window path.

The simulation walks one day at a time; ``online_step`` runs a day as
phases.  The labeled horizon advances (metric values become observable only
after the configured delay) and the day's candidates are built;
``_day_weights`` refreshes what the scheme reads (the segmentation, the
error cache) and weights the candidates; ``_sgd_step``, the one training
step offline and online, runs the day's weighted mini-batches; ``_emit``
appends a multi-horizon prediction anchored at the day's midnight for every
entity to a ``PredictionLog`` of three day-major arrays.  A ``frozen`` scheme
skips all but the emission.  Predictions are a pure function of features
dated up to the anchor and labels dated before the delay cutoff.

Parameters and both Adam moments are three flat vectors; one ``adam_step``
updates them all.  Checkpoints serialize the three vectors, RNG states,
sampling caches, the segmentation neighbour index and the prediction log;
the segmentation curves are derived from the index when first read, not on
load.  Resuming from a checkpoint reproduces an uninterrupted run bit for
bit.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import model as model_mod
from . import sampling
from .data import (
    HOURS_PER_DAY,
    Dataset,
    HorizonConfig,
    WindowRangeError,
    anchor_bounds,
    label_cutoff,
)
from .nnkernel import AdamState, FlatViews, adam_step, workspace
from .profiles import SamplingCurve, fluss_probability
from .sampling import CandidateArray, SchemeSpec, parse_scheme

logger = logging.getLogger(__name__)

LOSS_EVAL_CHUNK = 2048

CKPT_MAGIC = b"DRIFTCAST_CKPT\n"
CKPT_VERSION = 4
CKPT_DTYPES = ("<f8", "<i8", "<i4")

PREDICTION_CSV_HEADER = "day,entity_id,offset,predicted,actual_when_available"


class CheckpointVersionError(Exception):
    """File is not a checkpoint or was written by an incompatible version."""


class CheckpointIntegrityError(Exception):
    """Checkpoint bytes are truncated or corrupted."""


@dataclass(frozen=True)
class TrainConfig:
    offline_epochs: int = 30
    learning_rate: float = 1e-3
    batch_size: int = 1024
    n_iter: int = 100
    seed: int = 0
    scheme: str = "uniform:uniform"
    offline_days: int = 365
    error_subsample: int = 10000
    dynamics_window: int = 10
    horizon: HorizonConfig = HorizonConfig()

    def __post_init__(self) -> None:
        for name in ("offline_epochs", "batch_size", "n_iter", "offline_days",
                     "error_subsample", "dynamics_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        spec, h = parse_scheme(self.scheme), self.horizon
        # The newest labelled anchor is label_delay_days + forward/24 days old.
        if spec.temporal == "fixed" and (
            spec.fixed_days * HOURS_PER_DAY < h.label_delay_days * HOURS_PER_DAY + h.forward
        ):
            raise ValueError(
                f"scheme {self.scheme}: a {spec.fixed_days}-day window never holds a "
                f"labelled anchor, the newest being {h.label_delay_days} days (label "
                f"delay) plus {h.forward} hours (forward horizon) old"
            )

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        payload = dict(payload)
        payload["horizon"] = HorizonConfig(**payload["horizon"])
        return cls(**payload)


class PredictionLog:
    """Multi-horizon predictions in emission order, one row per (day, entity).

    Row ``i`` is the prediction made on ``days[i]`` for the entity at index
    ``entity_idx[i]`` of the dataset: ``days`` and ``entity_idx`` are (n,)
    int64 and ``preds`` is (n, horizon) float64.
    """

    def __init__(self) -> None:
        self.days = np.empty(0, dtype=np.int64)
        self.entity_idx = np.empty(0, dtype=np.int64)
        self.preds = np.empty((0, 0))

    def __len__(self) -> int:
        return len(self.days)

    def append_day(self, day: int, entity_indices, m_hat: np.ndarray) -> None:
        self.preds = np.concatenate([self.preds, m_hat]) if len(self) else m_hat.copy()
        self.days = np.concatenate([self.days, np.full(len(m_hat), day, dtype=np.int64)])
        self.entity_idx = np.concatenate(
            [self.entity_idx, np.asarray(entity_indices, dtype=np.int64)]
        )

    def write_csv(
        self,
        path: str | Path,
        dataset: Dataset,
        horizon: HorizonConfig,
        labeled_end: int,
    ) -> None:
        """Write rows day,entity_id,offset,predicted,actual_when_available.

        Actual values are filled only for hours before ``labeled_end``,
        i.e. only labels that were observable by the end of the simulation.
        """
        offsets = list(range(-horizon.backward, horizon.forward))
        h = len(offsets)
        lines = [PREDICTION_CSV_HEADER]
        for day, eidx, pred in zip(
            self.days.tolist(), self.entity_idx.tolist(), self.preds.tolist()
        ):
            record = dataset.records[eidx]
            start = day * HOURS_PER_DAY - horizon.backward
            known = record.metric[start : min(labeled_end, start + h)].tolist()
            actual = [repr(v) for v in known] + [""] * (h - len(known))
            prefix = f"{day},{record.entity_id},"
            lines.extend(
                f"{prefix}{offset},{value!r},{a}"
                for offset, value, a in zip(offsets, pred, actual)
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class DayPrediction:
    day: int
    m_hat: np.ndarray  # (n_entities_emitted, horizon)


class AdamMoments(NamedTuple):
    """One parameter's Adam moments: read-only views into the flat moments."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float


@dataclass
class SimulationState:
    current_day: int
    params: FlatViews         # named views over ``params.flat``
    optimizer: AdamState      # moments of ``params.flat``
    gamma: float
    rng_batches: np.random.Generator
    rng_subsample: np.random.Generator
    cache: sampling.ErrorCache | None = None
    dynamics: sampling.DynamicsHistory | None = None
    # every entity's (channels, L) neighbour index, stacked: None until the
    # first segment day, extended by each one
    segmentation: SamplingCurve | None = None
    log: PredictionLog = field(default_factory=PredictionLog)
    examples_consumed: int = 0
    final_train_loss: float | None = None

    @property
    def curves(self) -> dict[int, np.ndarray]:
        """Each entity's segmentation curve by entity index: the rows of its ``p``."""
        return {} if self.segmentation is None else dict(enumerate(self.segmentation.p))

    @property
    def adam(self) -> Mapping[str, AdamMoments]:
        """Each parameter's Adam moments by name, in parameter order."""
        opt = self.optimizer
        m, v = self.params.over(opt.first_moment), self.params.over(opt.second_moment)
        for a in (*m.values(), *v.values()):
            a.flags.writeable = False
        return MappingProxyType({
            name: AdamMoments(m[name], v[name], opt.step_count, opt.learning_rate)
            for name in self.params
        })


# --------------------------------------------------------------------------
# Dataset indexing and batch assembly
# --------------------------------------------------------------------------


class DatasetIndex:
    """Window gathering: one fancy index per array of ``Dataset.stacked``."""

    def __init__(self, dataset: Dataset, horizon: HorizonConfig):
        self.dataset = dataset
        self.horizon = horizon
        self.features, self.interactions, self.metric = dataset.stacked
        self.feature_hours = np.arange(-horizon.lookback, 0)
        self.target_hours = np.arange(-horizon.backward, horizon.forward)

    def gather(self, cands: CandidateArray, with_targets: bool = True):
        """(X, I, Y) windows of the candidates; Y is None without targets.

        Every anchor must lie in ``[min_anchor, hours - forward]``, or in
        ``[lookback, hours - 1]`` without targets; otherwise the indices
        would wrap or overrun, and ``WindowRangeError`` is raised.
        """
        h = self.horizon
        if len(cands):
            lo = h.min_anchor if with_targets else h.lookback
            hi = self.dataset.hours - (h.forward if with_targets else 1)
            first, last = int(cands.anchors.min()), int(cands.anchors.max())
            if first < lo or last > hi:
                raise WindowRangeError(
                    f"anchors {first}..{last} leave the feasible range {lo}..{hi} "
                    f"(lookback={h.lookback}, backward={h.backward}, "
                    f"forward={h.forward}, hours={self.dataset.hours})"
                )
        entity, anchors = cands.entity_idx[:, None], cands.anchors[:, None]
        X = self.features[entity, anchors + self.feature_hours]
        I = self.interactions[cands.entity_idx, cands.anchors // HOURS_PER_DAY]
        Y = self.metric[entity, anchors + self.target_hours] if with_targets else None
        return X, I, Y


def build_candidates(dataset: Dataset, labeled_end: int, horizon: HorizonConfig) -> CandidateArray:
    """All feasible (entity, anchor) pairs for the labeled span, in order."""
    if labeled_end > dataset.hours:
        raise ValueError(
            f"labeled_end {labeled_end} exceeds the series length {dataset.hours}"
        )
    lo, hi = anchor_bounds(labeled_end, horizon)
    anchors = np.arange(lo, max(lo, hi + 1), dtype=np.int64)
    n = len(dataset.records)
    return CandidateArray(
        np.repeat(np.arange(n, dtype=np.int32), len(anchors)), np.tile(anchors, n)
    )


def _rng_streams(seed: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(4)
    return [np.random.default_rng(c) for c in children]


def _auto_gamma(dataset: Dataset, cands: CandidateArray, horizon: HorizonConfig) -> float:
    """Mean per-window population variance of the training targets."""
    h = horizon.horizon
    total, count = 0.0, 0
    for e in np.unique(cands.entity_idx):
        metric = dataset.records[e].metric
        csum = np.concatenate(([0.0], np.cumsum(metric)))
        csq = np.concatenate(([0.0], np.cumsum(metric * metric)))
        starts = cands.anchors[cands.entity_idx == e] - horizon.backward
        mean = (csum[starts + h] - csum[starts]) / h
        var = (csq[starts + h] - csq[starts]) / h - mean * mean
        total += float(np.maximum(var, 0.0).sum())
        count += len(starts)
    return total / count if count else 1.0


def _candidate_losses(
    state: SimulationState,
    index: DatasetIndex,
    model_cfg: model_mod.ModelConfig,
    cands: CandidateArray,
) -> np.ndarray:
    out = np.empty(len(cands))
    for lo in range(0, len(cands), LOSS_EVAL_CHUNK):
        chunk = cands.take(np.arange(lo, min(lo + LOSS_EVAL_CHUNK, len(cands))))
        X, I, Y = index.gather(chunk)
        out[lo : lo + len(chunk.anchors)] = model_mod.batch_losses(
            state.params, model_cfg, X, I, Y, state.gamma
        )
    return out


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------


def _check_window_geometry(model_cfg: model_mod.ModelConfig, train_cfg: TrainConfig) -> None:
    """Raise ValueError unless the model's lookback and horizon are the run's."""
    h = train_cfg.horizon
    if (model_cfg.lookback, model_cfg.horizon) != (h.lookback, h.horizon):
        raise ValueError(
            f"model lookback/horizon {model_cfg.lookback}/{model_cfg.horizon} disagree "
            f"with the run's horizon {h.lookback}/{h.horizon}"
        )


def train_offline(
    dataset: Dataset,
    model_cfg: model_mod.ModelConfig,
    train_cfg: TrainConfig,
) -> SimulationState:
    """Shuffled mini-batch training over the labeled part of the offline span."""
    _check_window_geometry(model_cfg, train_cfg)
    horizon = train_cfg.horizon
    labeled_end = label_cutoff(train_cfg.offline_days, horizon, dataset.hours)
    cands = build_candidates(dataset, labeled_end, horizon)
    if len(cands) == 0:
        raise ValueError(
            f"no feasible training candidates in the offline span "
            f"(labeled through hour {labeled_end})"
        )
    rng_init, rng_shuffle, rng_batches, rng_subsample = _rng_streams(train_cfg.seed)

    if model_cfg.variant == "proposed" and model_cfg.shape_loss_weight == "auto":
        gamma = _auto_gamma(dataset, cands, horizon)
    elif model_cfg.variant == "proposed":
        gamma = float(model_cfg.shape_loss_weight)
    else:
        gamma = 0.0

    params = model_mod.init_params(model_cfg, rng_init)
    state = SimulationState(
        current_day=train_cfg.offline_days,
        params=params,
        optimizer=AdamState.zeros(len(params.flat), train_cfg.learning_rate),
        gamma=gamma,
        rng_batches=rng_batches,
        rng_subsample=rng_subsample,
    )
    index = DatasetIndex(dataset, horizon)
    n = len(cands)
    for epoch in range(train_cfg.offline_epochs):
        perm = rng_shuffle.permutation(n)
        epoch_loss, batches = 0.0, 0
        for lo in range(0, n, train_cfg.batch_size):
            batch = cands.take(perm[lo : lo + train_cfg.batch_size])
            epoch_loss += _sgd_step(state, index, model_cfg, batch)
            batches += 1
        state.final_train_loss = epoch_loss / batches
        logger.info("offline epoch %d/%d loss %.6f",
                    epoch + 1, train_cfg.offline_epochs, state.final_train_loss)
    workspace().release()
    return state


def _sgd_step(state: SimulationState, index: DatasetIndex,
              model_cfg: model_mod.ModelConfig, batch: CandidateArray) -> float:
    """One Adam step on the batch's windows; returns the batch loss."""
    X, I, Y = index.gather(batch)
    loss, grads = model_mod.batch_loss_and_grads(
        state.params, model_cfg, X, I, Y, state.gamma
    )
    adam_step(state.params.flat, grads.flat, state.optimizer)
    return loss


def _day_weights(state: SimulationState, index: DatasetIndex,
                 model_cfg: model_mod.ModelConfig, train_cfg: TrainConfig, spec: SchemeSpec,
                 cands: CandidateArray, labeled_end: int) -> sampling.CandidateWeights:
    """Refresh what the scheme reads, then weight the day's candidates.

    A ``segment`` scheme extends every entity's neighbour index by the
    newly labelled hours; an error rule refreshes the error cache.
    """
    lookback = train_cfg.horizon.lookback
    day = state.current_day
    now = day * HOURS_PER_DAY
    history = index.features[:, :labeled_end]
    if spec.temporal == "segment":
        prev = state.segmentation
        state.segmentation = fluss_probability(
            history, lookback, None if prev is None else prev.nn_index
        )
    if spec.reads_errors:
        state.cache, state.dynamics = sampling.refresh_error_cache(
            lambda cc: _candidate_losses(state, index, model_cfg, cc),
            cands,
            state.cache,
            state.dynamics,
            train_cfg.error_subsample,
            state.rng_subsample,
            day,
            train_cfg.dynamics_window,
        )
    w_t = sampling.temporal_weights(spec, cands, now, state.segmentation, lookback)
    w_nt = sampling.nontemporal_weights(
        spec, cands, state.cache, state.dynamics,
        history, index.features[:, now - lookback : now],
    )
    return sampling.combine(w_t, w_nt)


def _emit(state: SimulationState, index: DatasetIndex,
          model_cfg: model_mod.ModelConfig) -> np.ndarray:
    """Predict every entity's window anchored at the day's midnight and log it."""
    day = state.current_day
    anchor = day * HOURS_PER_DAY
    n = len(index.dataset.records)
    if anchor < index.horizon.lookback or day >= index.dataset.days:
        logger.warning("day %d: no feature history at hour %d, nothing emitted", day, anchor)
        n = 0
    cand = CandidateArray(np.arange(n, dtype=np.int32), np.full(n, anchor, dtype=np.int64))
    X, I, _ = index.gather(cand, with_targets=False)
    m_hat = model_mod.batch_predict(state.params, model_cfg, X, I)
    state.log.append_day(day, cand.entity_idx, m_hat)
    return m_hat


def online_step(
    state: SimulationState,
    dataset: Dataset,
    model_cfg: model_mod.ModelConfig,
    train_cfg: TrainConfig,
    index: DatasetIndex,
) -> DayPrediction:
    """Advance the simulation by one day and emit the day's predictions."""
    _check_window_geometry(model_cfg, train_cfg)
    spec = parse_scheme(train_cfg.scheme)
    day = state.current_day
    labeled_end = label_cutoff(day, train_cfg.horizon, dataset.hours)
    if not spec.frozen:
        cands = build_candidates(dataset, labeled_end, train_cfg.horizon)
        if len(cands) == 0:
            logger.warning("day %d: no labeled candidates, skipping update", day)
        else:
            weights = _day_weights(state, index, model_cfg, train_cfg, spec, cands,
                                   labeled_end)
            for _ in range(train_cfg.n_iter):
                batch = sampling.sample_batch(
                    weights, train_cfg.batch_size, state.rng_batches
                )
                _sgd_step(state, index, model_cfg, batch)
                state.examples_consumed += train_cfg.batch_size
    m_hat = _emit(state, index, model_cfg)
    state.current_day = day + 1
    # The buffers serve this day's passes; held past it, they would sit
    # beside the next day's segmentation and the caller's checkpoint I/O.
    workspace().release()
    return DayPrediction(day=day, m_hat=m_hat)


def clone_for_online(state: SimulationState, seed: int) -> SimulationState:
    """Fresh online state from trained parameters, as if just trained offline."""
    _, _, rng_batches, rng_subsample = _rng_streams(seed)
    return SimulationState(
        current_day=state.current_day,
        params=state.params.over(state.params.flat.copy()),
        optimizer=state.optimizer.copy(),
        gamma=state.gamma,
        rng_batches=rng_batches,
        rng_subsample=rng_subsample,
        final_train_loss=state.final_train_loss,
    )


def run_simulation(
    dataset: Dataset,
    model_cfg: model_mod.ModelConfig,
    train_cfg: TrainConfig,
    n_days: int,
    offline_state: SimulationState | None = None,
) -> tuple[PredictionLog, SimulationState]:
    """Offline training followed by ``n_days`` of daily online steps."""
    if train_cfg.offline_days + n_days > dataset.days:
        raise ValueError(
            f"simulation needs {train_cfg.offline_days}+{n_days} days, "
            f"dataset spans {dataset.days}"
        )
    if offline_state is None:
        state = train_offline(dataset, model_cfg, train_cfg)
    else:
        if offline_state.current_day != train_cfg.offline_days:
            raise ValueError("offline state does not match train_cfg.offline_days")
        state = clone_for_online(offline_state, train_cfg.seed)
    index = DatasetIndex(dataset, train_cfg.horizon)
    for _ in range(n_days):
        online_step(state, dataset, model_cfg, train_cfg, index)
    return state.log, state


# --------------------------------------------------------------------------
# Checkpointing
# --------------------------------------------------------------------------


def _state_arrays(state: SimulationState) -> list[tuple[str, np.ndarray]]:
    """Every array of the state under its checkpoint key, in file order."""
    arrays = [("params", state.params.flat), ("adam_m", state.optimizer.first_moment),
              ("adam_v", state.optimizer.second_moment)]
    if state.cache is not None:
        arrays += [("cache/entity_idx", state.cache.candidates.entity_idx),
                   ("cache/anchors", state.cache.candidates.anchors),
                   ("cache/errors", state.cache.errors)]
    if state.dynamics is not None:
        arrays += [("dynamics/snapshots", state.dynamics.snapshots),
                   ("dynamics/counts", state.dynamics.counts)]
    if state.segmentation is not None:
        arrays.append(("profile/nn", state.segmentation.nn_index))
    arrays += [("log/days", state.log.days), ("log/entity_idx", state.log.entity_idx),
               ("log/preds", state.log.preds)]
    return [(key, np.ascontiguousarray(a)) for key, a in arrays]


def save_checkpoint(
    state: SimulationState,
    path: str | Path,
    model_cfg: model_mod.ModelConfig,
    train_cfg: TrainConfig,
) -> None:
    """Serialize the full simulation state; the round trip is bitwise exact.

    The JSON header's ``arrays`` table lists ``[key, dtype, shape]`` for every
    state array in file order; the raw array bytes follow the header.
    """
    arrays = _state_arrays(state)
    header = {
        "model_config": asdict(model_cfg),
        "train_config": asdict(train_cfg),
        "current_day": state.current_day,
        "gamma": state.gamma,
        "examples_consumed": state.examples_consumed,
        "final_train_loss": state.final_train_loss,
        "adam_steps": state.optimizer.step_count,
        "rng_batches": state.rng_batches.bit_generator.state,
        "rng_subsample": state.rng_subsample.bit_generator.state,
        "cache": None
        if state.cache is None
        else {"anchor_cutoff": state.cache.anchor_cutoff, "day": state.cache.day},
        "arrays": [[key, a.dtype.str, list(a.shape)] for key, a in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join([
        CKPT_MAGIC, CKPT_VERSION.to_bytes(4, "little"),
        len(header_bytes).to_bytes(8, "little"), header_bytes, *(a for _, a in arrays),
    ])
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


def load_checkpoint(path: str | Path):
    """Load a checkpoint; returns (state, model_config, train_config)."""
    raw = Path(path).read_bytes()
    start = len(CKPT_MAGIC) + 12
    if len(raw) < start + 32:
        raise CheckpointIntegrityError(f"{path}: file too short to be a checkpoint")
    if raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointVersionError(f"{path}: not a checkpoint file")
    body, digest = memoryview(raw)[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointIntegrityError(f"{path}: checksum mismatch")
    version = int.from_bytes(body[len(CKPT_MAGIC) : start - 8], "little")
    if version != CKPT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, expected {CKPT_VERSION}"
        )
    pos = start + int.from_bytes(body[start - 8 : start], "little")
    if pos > len(body):
        raise CheckpointIntegrityError(f"{path}: checkpoint is truncated")
    try:
        header = json.loads(bytes(body[start:pos]))
    except ValueError as err:
        raise CheckpointIntegrityError(f"{path}: bad header: {err}") from err

    try:
        arrays = {}
        for key, dtype, shape in header["arrays"]:
            if dtype not in CKPT_DTYPES or not all(isinstance(d, int) and d >= 0 for d in shape):
                raise CheckpointIntegrityError(f"{path}: bad table entry {key!r}")
            count = math.prod(shape)
            end = pos + count * np.dtype(dtype).itemsize
            if end > len(body):
                raise CheckpointIntegrityError(f"{path}: checkpoint is truncated")
            arrays[key] = np.frombuffer(body, dtype, count, pos).reshape(shape).copy()
            pos = end
        if pos != len(body):
            raise CheckpointIntegrityError(f"{path}: trailing bytes in checkpoint")

        model_cfg = model_mod.ModelConfig(**header["model_config"])
        train_cfg = TrainConfig.from_dict(header["train_config"])
        vectors = [arrays[key] for key in ("params", "adam_m", "adam_v")]
        try:
            params = model_mod.param_views(model_cfg, vectors[0])
        except ValueError as err:
            raise CheckpointIntegrityError(
                f"{path}: the parameter vector does not fit the model: {err}"
            ) from err
        if any(a.dtype != np.float64 or a.shape != params.flat.shape for a in vectors):
            raise CheckpointIntegrityError(
                f"{path}: the parameter and Adam moment vectors differ in length or dtype"
            )
        optimizer = AdamState(vectors[1], vectors[2], train_cfg.learning_rate,
                              step_count=int(header["adam_steps"]))
        cache = dynamics = None
        if header["cache"] is not None:
            cache = sampling.ErrorCache(
                candidates=CandidateArray(arrays["cache/entity_idx"], arrays["cache/anchors"]),
                errors=arrays["cache/errors"],
                anchor_cutoff=int(header["cache"]["anchor_cutoff"]),
                day=int(header["cache"]["day"]),
            )
        if "dynamics/snapshots" in arrays:
            snapshots = arrays["dynamics/snapshots"]
            dynamics = sampling.DynamicsHistory(
                capacity=snapshots.shape[1], snapshots=snapshots,
                counts=arrays["dynamics/counts"],
            )
        segmentation = None
        if "profile/nn" in arrays:
            segmentation = SamplingCurve(arrays["profile/nn"], train_cfg.horizon.lookback)
        log = PredictionLog()
        log.days, log.entity_idx, log.preds = (
            arrays["log/days"], arrays["log/entity_idx"], arrays["log/preds"]
        )
        rng_batches = np.random.default_rng(0)
        rng_batches.bit_generator.state = header["rng_batches"]
        rng_subsample = np.random.default_rng(0)
        rng_subsample.bit_generator.state = header["rng_subsample"]
        state = SimulationState(
            current_day=int(header["current_day"]),
            params=params,
            optimizer=optimizer,
            gamma=float(header["gamma"]),
            rng_batches=rng_batches,
            rng_subsample=rng_subsample,
            cache=cache,
            dynamics=dynamics,
            segmentation=segmentation,
            log=log,
            examples_consumed=int(header["examples_consumed"]),
            final_train_loss=header["final_train_loss"],
        )
    except (KeyError, TypeError) as err:
        raise CheckpointIntegrityError(f"{path}: header lacks or mistypes {err}") from err
    return state, model_cfg, train_cfg
