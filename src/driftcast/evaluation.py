"""Metrics over multi-horizon prediction windows and the scheme benchmark.

RMSE pools every predicted point.  NRMSE z-normalizes both the prediction and
the truth window before comparing, so it measures shape agreement independent
of per-window scale and offset; windows with constant truth are skipped.
R-squared is pooled globally about the overall truth mean.

The benchmark runs every (model variant, sampling scheme) pair on the same
dataset with a shared seed, ranks schemes per variant and metric, and
averages ranks across variants into a grid of temporal by non-temporal rules.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import model as model_mod
from . import trainer as trainer_mod
from .data import HOURS_PER_DAY, Dataset, HorizonConfig, require, znormalize_rows
from .sampling import parse_scheme

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MetricReport:
    rmse: float
    nrmse: float
    r2: float
    n_windows: int
    degenerate_windows_skipped: int

    def __post_init__(self) -> None:
        require(self.rmse >= 0 and self.nrmse >= 0 and self.r2 <= 1, "metrics out of range")


def compute_metrics(predictions: np.ndarray, truths: np.ndarray) -> MetricReport:
    """Metric report over paired (n_windows, horizon) arrays."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape or predictions.ndim != 2 or len(predictions) == 0:
        raise ValueError("predictions and truths must be equal non-empty 2-D arrays")
    err = predictions - truths
    rmse = float(np.sqrt(np.mean(err * err)))

    z_pred, _ = znormalize_rows(predictions)
    z_truth, degenerate = znormalize_rows(truths)
    keep = ~degenerate
    if keep.any():
        window_rmse = np.sqrt(np.mean((z_pred[keep] - z_truth[keep]) ** 2, axis=1))
        nrmse = float(window_rmse.mean())
    else:
        nrmse = 0.0

    ss_tot = float(((truths - truths.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ValueError("R^2 is undefined: truth has zero total variance")
    ss_res = float((err * err).sum())
    r2 = 1.0 - ss_res / ss_tot
    return MetricReport(
        rmse=rmse,
        nrmse=nrmse,
        r2=r2,
        n_windows=len(predictions),
        degenerate_windows_skipped=int(degenerate.sum()),
    )


def windows_from_log(
    log: trainer_mod.PredictionLog, dataset: Dataset, horizon: HorizonConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Pair every logged prediction whose window fits the series with its truth."""
    starts = log.days * HOURS_PER_DAY - horizon.backward
    keep = (starts >= 0) & (starts + horizon.horizon <= dataset.hours)
    hours = starts[keep, None] + np.arange(horizon.horizon)
    return log.preds[keep], dataset.stacked[2][log.entity_idx[keep, None], hours]


def read_predictions(
    path: str | Path, dataset: Dataset
) -> tuple[trainer_mod.PredictionLog, range]:
    """Rebuild a PredictionLog from the CSV, with the offsets its rows cover.

    The file starts with ``trainer.PREDICTION_CSV_HEADER`` and holds one block
    of rows per (day, entity), each with the same contiguous ascending
    offsets; they are the horizon the predictions were made with:
    backward = -offsets.start and forward = offsets.stop.  Every row has
    the header's 5 fields.  The filled actual values must be the dataset's
    metric, bit for bit, at exactly the hours before one cutoff.  An empty
    file gives range(0).
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        body = fh.read()
    if header != trainer_mod.PREDICTION_CSV_HEADER:
        raise ValueError(
            f"{path}: header {header!r}, expected {trainer_mod.PREDICTION_CSV_HEADER!r}"
        )
    log = trainer_mod.PredictionLog()
    if not body.strip():
        return log, range(0)
    # Without usecols, np.loadtxt rejects a row whose field count is not the
    # dtype's 5.  Actual values stay text (str objects, as cheap to read as
    # a one-character field when empty) until _check_actuals.
    rows = np.loadtxt(
        io.StringIO(body), delimiter=",", comments=None, ndmin=1,
        dtype=[("day", "<i8"), ("entity", object), ("offset", "<i8"), ("pred", "<f8"),
               ("actual", object)],
    )
    days, entities, offs = rows["day"], rows["entity"], rows["offset"]
    changed = (days[1:] != days[:-1]) | (entities[1:] != entities[:-1])
    bounds = np.r_[0, np.flatnonzero(changed) + 1, len(rows)]
    keys = list(zip(days[bounds[:-1]].tolist(), entities[bounds[:-1]].tolist()))
    if len(set(keys)) != len(keys):
        raise ValueError(f"{path}: a (day, entity) block appears more than once")
    lengths = np.diff(bounds)
    want = offs[: lengths[0]]
    if (lengths != len(want)).any() or (offs.reshape(-1, len(want)) != want).any():
        for (day, entity_id), lo, hi in zip(keys, bounds[:-1], bounds[1:]):
            if not np.array_equal(offs[lo:hi], want):
                raise ValueError(
                    f"{path}: day {day}, entity {entity_id} has offsets "
                    f"{offs[lo:hi].tolist()} where the first has {want.tolist()}"
                )
    offsets = range(int(want[0]), int(want[-1]) + 1)
    if want.tolist() != list(offsets) or not offsets.start <= 0 < offsets.stop:
        raise ValueError(f"{path}: offsets {want.tolist()} are not a window -backward..forward-1")
    log.days = days[bounds[:-1]]
    log.entity_idx = np.array([dataset.entity_index(e) for _, e in keys], dtype=np.int64)
    log.preds = np.ascontiguousarray(rows["pred"].reshape(-1, len(want)))
    _check_actuals(path, dataset, rows["actual"], np.repeat(log.entity_idx, len(want)),
                   days * HOURS_PER_DAY + offs)
    return log, offsets


def _check_actuals(path, dataset: Dataset, text, entity_idx, hours) -> None:
    """Raise ValueError unless the filled actuals are the metric before one cutoff.

    ``text`` holds each row's actual field; only the filled ones are
    converted to numbers.
    """
    filled = text != ""
    if not filled.any():
        return
    last_filled = hours[filled].max()
    first_empty = hours[~filled].min(initial=dataset.hours)
    if last_filled >= min(first_empty, dataset.hours) or hours[filled].min() < 0:
        raise ValueError(
            f"{path}: actual values are filled at hour {int(last_filled)}, past the "
            f"first unfilled hour {int(first_empty)} or outside the series"
        )
    try:
        actual = text[filled].astype(np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    truth = dataset.stacked[2][entity_idx[filled], hours[filled]]
    wrong = np.flatnonzero(truth.view(np.int64) != actual.view(np.int64))
    if len(wrong):
        i = wrong[0]
        raise ValueError(
            f"{path}: actual {actual[i]!r} at hour {int(hours[filled][i])} is not "
            f"the dataset's metric {truth[i]!r} ({len(wrong)} such values)"
        )


def read_prediction_csv(path: str | Path, dataset: Dataset) -> trainer_mod.PredictionLog:
    """Rebuild a PredictionLog (indexed against ``dataset``) from the CSV."""
    return read_predictions(path, dataset)[0]


# --------------------------------------------------------------------------
# Benchmark
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RankTable:
    """Average rank of each scheme cell; rows are non-temporal rules."""

    metric: str
    temporal_labels: list[str]
    nontemporal_labels: list[str]
    cells: np.ndarray  # (n_nontemporal, n_temporal); NaN where not run
    row_means: np.ndarray
    col_means: np.ndarray

    def cell(self, temporal: str, nontemporal: str) -> float:
        return float(
            self.cells[
                self.nontemporal_labels.index(nontemporal),
                self.temporal_labels.index(temporal),
            ]
        )

    def write_csv(self, path: str | Path) -> None:
        lines = [self.metric + "," + ",".join(self.temporal_labels) + ",mean"]
        for i, row_label in enumerate(self.nontemporal_labels):
            vals = ",".join(
                "" if np.isnan(v) else f"{v:.4f}" for v in self.cells[i]
            )
            lines.append(f"{row_label},{vals},{self.row_means[i]:.4f}")
        col = ",".join(f"{v:.4f}" for v in self.col_means)
        lines.append(f"mean,{col},")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _average_ranks(values: np.ndarray, larger_is_better: bool) -> np.ndarray:
    """Competition ranks with ties averaged; rank 1 is best."""
    v = -values if larger_is_better else values
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@dataclass(frozen=True)
class BenchmarkResult:
    rows: list[dict]                 # variant/temporal/nontemporal/rmse/nrmse/r2
    tables: dict[str, RankTable]     # keyed by metric name

    def write(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["variant,temporal,nontemporal,rmse,nrmse,r2"]
        for row in self.rows:
            lines.append(
                f"{row['variant']},{row['temporal']},{row['nontemporal']},"
                f"{row['rmse']!r},{row['nrmse']!r},{row['r2']!r}"
            )
        (out / "report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for metric, table in self.tables.items():
            table.write_csv(out / f"ranks_{metric}.csv")


def benchmark(
    dataset: Dataset,
    variants: list[str],
    schemes: list[str],
    train_cfg: trainer_mod.TrainConfig,
    n_days: int,
    model_kwargs: dict | None = None,
) -> BenchmarkResult:
    """Run every (variant, scheme) pair with a shared seed and rank schemes.

    Offline training is reused across schemes of the same variant (the
    offline phase is deterministic and scheme-independent); the reuse is
    bitwise-identical to standalone runs.
    """
    if len(variants) < 2 or len(schemes) < 2:
        raise ValueError("benchmark needs at least 2 variants and 2 schemes")
    model_kwargs = model_kwargs or {}
    horizon = train_cfg.horizon
    # Every scheme is checked before the first training.
    cfgs = [replace(train_cfg, scheme=scheme) for scheme in schemes]
    labels = [parse_scheme(scheme).labels for scheme in schemes]
    temporal_labels = list(dict.fromkeys(t for t, _ in labels))
    nontemporal_labels = list(dict.fromkeys(nt for _, nt in labels))
    rows = []
    metrics_by_variant: dict[str, dict[str, MetricReport]] = {}
    for variant in variants:
        model_cfg = model_mod.ModelConfig.for_data(
            dataset, horizon, variant=variant, **model_kwargs
        )
        offline = trainer_mod.train_offline(dataset, model_cfg, train_cfg)
        metrics_by_variant[variant] = {}
        for scheme, cfg, (temporal, nontemporal) in zip(schemes, cfgs, labels):
            try:
                log, _ = trainer_mod.run_simulation(
                    dataset, model_cfg, cfg, n_days, offline_state=offline
                )
            except Exception as err:
                raise RuntimeError(
                    f"benchmark run failed for variant={variant} scheme={scheme}: {err}"
                ) from err
            preds, truths = windows_from_log(log, dataset, horizon)
            report = compute_metrics(preds, truths)
            metrics_by_variant[variant][scheme] = report
            rows.append(
                {
                    "variant": variant,
                    "temporal": temporal,
                    "nontemporal": nontemporal,
                    "scheme": scheme,
                    "rmse": report.rmse,
                    "nrmse": report.nrmse,
                    "r2": report.r2,
                }
            )
            logger.info(
                "benchmark %s/%s rmse %.4f nrmse %.4f r2 %.4f",
                variant, scheme, report.rmse, report.nrmse, report.r2,
            )

    tables = {}
    for metric, larger in (("rmse", False), ("nrmse", False), ("r2", True)):
        avg = np.zeros(len(schemes))
        for variant in variants:
            values = np.array(
                [getattr(metrics_by_variant[variant][s], metric) for s in schemes]
            )
            avg += _average_ranks(values, larger_is_better=larger)
        avg /= len(variants)
        cells = np.full((len(nontemporal_labels), len(temporal_labels)), np.nan)
        for (t, nt), rank in zip(labels, avg):
            cells[nontemporal_labels.index(nt), temporal_labels.index(t)] = rank
        tables[metric] = RankTable(
            metric=metric,
            temporal_labels=temporal_labels,
            nontemporal_labels=nontemporal_labels,
            cells=cells,
            row_means=np.nanmean(cells, axis=1),
            col_means=np.nanmean(cells, axis=0),
        )
    return BenchmarkResult(rows=rows, tables=tables)
