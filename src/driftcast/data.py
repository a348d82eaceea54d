"""Domain types and windowing primitives for hourly entity series.

An entity is observed through two modalities: an hourly multivariate feature
series paired with an hourly target metric, and one snapshot per calendar day
of trailing interaction counts against every other entity.  Training examples
are fixed-geometry windows cut from these series: a look-back block of
features, the interaction snapshot of the anchor day, and a target window
that reaches both backward and forward from the anchor hour.  This module
holds the geometry (``HorizonConfig``, ``anchor_bounds``, ``label_cutoff``);
``trainer.build_candidates`` and ``trainer.DatasetIndex.gather`` cut the
windows in batches.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

HOURS_PER_DAY = 24


class DatasetError(Exception):
    """Raised when a dataset directory or one of its files is malformed."""


class WindowRangeError(ValueError):
    """Raised when a window anchor violates one of its feasibility bounds."""


class InvariantError(AssertionError):
    """Raised when a value breaks an invariant its type guarantees.

    An explicit raise, unlike ``assert``, still runs under ``python -O``.
    """


def require(ok, message: str) -> None:
    """Raise ``InvariantError(message)`` unless ``ok``."""
    if not ok:
        raise InvariantError(message)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HorizonConfig:
    """Window geometry: look-back length, estimation horizons, label delay."""

    lookback: int = 168        # input feature hours before the anchor
    backward: int = 24         # estimated hours before the anchor
    forward: int = 24          # estimated hours from the anchor on
    label_delay_days: int = 90  # days before a metric value becomes observable

    def __post_init__(self) -> None:
        if self.lookback <= 0:
            raise ValueError(f"lookback must be > 0, got {self.lookback}")
        if self.backward < 0:
            raise ValueError(f"backward must be >= 0, got {self.backward}")
        if self.forward <= 0:
            raise ValueError(f"forward must be > 0, got {self.forward}")
        if self.label_delay_days < 0:
            raise ValueError(
                f"label_delay_days must be >= 0, got {self.label_delay_days}"
            )

    @property
    def horizon(self) -> int:
        return self.backward + self.forward

    @property
    def min_anchor(self) -> int:
        return max(self.lookback, self.backward)


@dataclass(frozen=True)
class EntityRecord:
    """One entity's hourly features, hourly metric, and daily interactions.

    ``features`` has shape (hours, n_features); ``metric`` has the same hour
    count.  ``interactions`` holds one non-negative snapshot vector per
    calendar day spanned by the hourly series.  ``start_timestamp`` is the
    UTC hour of index 0 and must be midnight-aligned (time-zone handling
    beyond UTC days is out of scope).
    """

    entity_id: str
    features: np.ndarray
    metric: np.ndarray
    interactions: np.ndarray
    start_timestamp: str = "2021-01-01T00:00:00Z"

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", _readonly(np.atleast_2d(self.features)))
        object.__setattr__(self, "metric", _readonly(np.asarray(self.metric)))
        object.__setattr__(self, "interactions", _readonly(np.atleast_2d(self.interactions)))
        if self.metric.ndim != 1:
            raise ValueError("metric must be one-dimensional")
        if self.features.shape[0] != self.metric.shape[0]:
            raise ValueError(
                f"feature hours ({self.features.shape[0]}) must equal "
                f"metric hours ({self.metric.shape[0]})"
            )
        if not self.start_timestamp.endswith("T00:00:00Z"):
            raise ValueError(
                f"start_timestamp must be a UTC midnight, got {self.start_timestamp!r}"
            )
        days = -(-self.features.shape[0] // HOURS_PER_DAY)
        if self.interactions.shape[0] != days:
            raise ValueError(
                f"expected {days} interaction snapshots, got {self.interactions.shape[0]}"
            )
        if np.any(self.interactions < 0):
            raise ValueError("interaction counts must be non-negative")
        if not (np.isfinite(self.features).all() and np.isfinite(self.metric).all()):
            raise ValueError("features and metric must be finite")

    @property
    def hours(self) -> int:
        return self.metric.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def interaction_dim(self) -> int:
        return self.interactions.shape[1]


def anchor_bounds(labeled_end: int, cfg: HorizonConfig) -> tuple[int, int]:
    """Inclusive (low, high) feasible anchor range for a labeled span.

    ``high < low`` means no anchor is feasible.
    """
    return cfg.min_anchor, labeled_end - cfg.forward


def label_cutoff(day: int, cfg: HorizonConfig, hours: int) -> int:
    """End (exclusive) of the hours whose labels are observable on ``day``.

    Labels arrive ``label_delay_days`` late; the cutoff is clamped to the
    ``hours`` of the series.
    """
    return min(max(0, (day - cfg.label_delay_days) * HOURS_PER_DAY), hours)


def znormalize_rows(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row to zero mean, unit population std; returns (rows, degenerate).

    ``degenerate`` is True for rows with zero variance; those rows come back
    as zeros (callers treat such windows as shapeless).
    """
    mat = np.asarray(mat, dtype=np.float64)
    mean = mat.mean(axis=1, keepdims=True)
    std = mat.std(axis=1, keepdims=True)
    degenerate = std[:, 0] == 0.0
    safe = np.where(std == 0.0, 1.0, std)
    out = (mat - mean) / safe
    out[degenerate] = 0.0
    return out, degenerate


# ---------------------------------------------------------------------------
# Dataset directory I/O
#
# Layout: one entity_<id>.csv per entity with header hour,f0..f{d-1},metric;
# interactions.csv with header day,entity_id,c0..c{k-1}; meta.json with the
# dimensions, start date and drift ground truth.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """A loaded dataset directory: ordered entity records plus metadata."""

    records: tuple[EntityRecord, ...]
    meta: dict
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index.update({r.entity_id: i for i, r in enumerate(self.records)})

    @property
    def n_features(self) -> int:
        return self.records[0].n_features

    @property
    def interaction_dim(self) -> int:
        return self.records[0].interaction_dim

    @property
    def hours(self) -> int:
        return self.records[0].hours

    @property
    def days(self) -> int:
        return self.hours // HOURS_PER_DAY

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every record's (features, interactions, metric), stacked by entity.

        Shapes (entities, hours, d), (entities, days, k) and (entities,
        hours); built on first use and read-only.  The records' arrays then
        become rows of them, so the series are held once.
        """
        names = ("features", "interactions", "metric")
        arrays = tuple(_readonly(np.stack([getattr(r, name) for r in self.records]))
                       for name in names)
        for i, r in enumerate(self.records):
            for name, a in zip(names, arrays):
                object.__setattr__(r, name, a[i])
        return arrays

    def record(self, entity_id: str) -> EntityRecord:
        return self.records[self._index[entity_id]]

    def entity_index(self, entity_id: str) -> int:
        return self._index[entity_id]


def _load_entity_csv(path: Path, d: int) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        expected = "hour," + ",".join(f"f{j}" for j in range(d)) + ",metric"
        if header != expected:
            raise DatasetError(f"{path}:1: bad header {header!r}, expected {expected!r}")
        try:
            body = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as err:
            raise DatasetError(f"{path}: {err}") from err
    hours = body[:, 0].astype(np.int64)
    if not np.array_equal(hours, np.arange(len(hours))):
        raise DatasetError(f"{path}: hour column must be 0..{len(hours) - 1} in order")
    return body[:, 1 : 1 + d], body[:, 1 + d]


def _load_interactions_csv(path: Path, k: int) -> dict[str, np.ndarray]:
    if not path.exists():
        raise DatasetError(f"{path}: file not found")
    row = np.dtype([("day", np.int64), ("entity", object), ("counts", np.float64, (k,))])
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        expected = "day,entity_id," + ",".join(f"c{j}" for j in range(k))
        if header != expected:
            raise DatasetError(f"{path}:1: bad header {header!r}, expected {expected!r}")
        try:
            rows = np.loadtxt(fh, delimiter=",", dtype=row, comments=None, ndmin=1)
        except ValueError as err:
            raise DatasetError(f"{path}: {err}") from err
    ids, entity = np.unique(rows["entity"], return_inverse=True)
    order = np.lexsort((rows["day"], entity))
    sizes = np.bincount(entity, minlength=len(ids))
    starts = np.cumsum(sizes) - sizes
    # sorted by entity, then day: entity e's days must read 0..sizes[e]-1
    gaps = rows["day"][order] != np.arange(len(rows)) - np.repeat(starts, sizes)
    if gaps.any():
        e = entity[order][gaps.argmax()]
        raise DatasetError(
            f"{path}: entity {ids[e]} must have one snapshot per day 0..{sizes[e] - 1}"
        )
    return dict(zip(ids.tolist(), np.split(rows["counts"][order], starts[1:])))


def load_dataset(root: str | Path) -> Dataset:
    """Load a dataset directory produced by the synthetic generator."""
    root = Path(root)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise DatasetError(f"{meta_path}: file not found")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise DatasetError(f"{meta_path}: {err}") from err
    for key in ("d", "k", "tau", "start", "entities"):
        if key not in meta:
            raise DatasetError(f"{meta_path}: missing key {key!r}")
    d, k = int(meta["d"]), int(meta["k"])
    interactions = _load_interactions_csv(root / "interactions.csv", k)
    records = []
    for entity_id in meta["entities"]:
        path = root / f"entity_{entity_id}.csv"
        if not path.exists():
            raise DatasetError(f"{path}: file not found")
        features, metric = _load_entity_csv(path, d)
        if entity_id not in interactions:
            raise DatasetError(f"{root / 'interactions.csv'}: no rows for entity {entity_id}")
        records.append(
            EntityRecord(
                entity_id=entity_id,
                features=features,
                metric=metric,
                interactions=interactions[entity_id],
                start_timestamp=meta["start"],
            )
        )
    if len({r.hours for r in records}) != 1:
        raise DatasetError(f"{root}: entities disagree on series length")
    return Dataset(records=tuple(records), meta=meta)
