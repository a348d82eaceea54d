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

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as model_mod
from . import trainer as trainer_mod
from .data import HOURS_PER_DAY, Dataset, HorizonConfig, znormalize_rows
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
        assert self.rmse >= 0 and self.nrmse >= 0 and self.r2 <= 1


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
    """Pair every logged prediction with its true metric window."""
    preds, truths = [], []
    for day, eidx, pred in zip(log.days, log.entity_idx, log.preds):
        anchor = day * HOURS_PER_DAY
        metric = dataset.records[eidx].metric
        if anchor - horizon.backward < 0 or anchor + horizon.forward > len(metric):
            continue
        preds.append(pred)
        truths.append(metric[anchor - horizon.backward : anchor + horizon.forward])
    return np.array(preds), np.array(truths)


def read_predictions(
    path: str | Path, dataset: Dataset
) -> tuple[trainer_mod.PredictionLog, range]:
    """Rebuild a PredictionLog from the CSV, with the offsets its rows cover.

    Every (day, entity) must carry the same contiguous offsets; they are the
    horizon the predictions were made with: backward = -offsets.start and
    forward = offsets.stop.  An empty file gives range(0).
    """
    rows: dict[tuple[int, str], dict[int, float]] = {}
    order: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"day", "entity_id", "offset", "predicted", "actual_when_available"}
        if set(reader.fieldnames or []) != expected:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        for rec in reader:
            key = (int(rec["day"]), rec["entity_id"])
            if key not in rows:
                rows[key] = {}
                order.append(key)
            rows[key][int(rec["offset"])] = float(rec["predicted"])
    want = sorted(rows[order[0]]) if order else []
    log = trainer_mod.PredictionLog()
    for day, entity_id in order:
        by_offset = rows[(day, entity_id)]
        if sorted(by_offset) != want:
            raise ValueError(
                f"{path}: day {day}, entity {entity_id} has offsets "
                f"{sorted(by_offset)} where the first has {want}"
            )
        log.days.append(day)
        log.entity_idx.append(dataset.entity_index(entity_id))
        log.preds.append(np.array([by_offset[o] for o in want]))
    offsets = range(want[0], want[-1] + 1) if want else range(0)
    if want and (want != list(offsets) or not offsets.start <= 0 < offsets.stop):
        raise ValueError(f"{path}: offsets {want} are not a window -backward..forward-1")
    return log, offsets


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


def _scheme_parts(scheme: str) -> tuple[str, str]:
    if scheme == "frozen":
        return "frozen", "frozen"
    spec = parse_scheme(scheme)
    temporal = f"fixed{spec.fixed_days}" if spec.temporal == "fixed" else spec.temporal
    return temporal, spec.nontemporal


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
    offline phase is deterministic and scheme-independent), and segmentation
    curves are shared across runs through a cache; both reuse paths are
    bitwise-identical to standalone runs.
    """
    if len(variants) < 2 or len(schemes) < 2:
        raise ValueError("benchmark needs at least 2 variants and 2 schemes")
    model_kwargs = model_kwargs or {}
    horizon = train_cfg.horizon
    curve_cache: dict = {}
    rows = []
    metrics_by_variant: dict[str, dict[str, MetricReport]] = {}
    for variant in variants:
        model_cfg = model_mod.ModelConfig(
            variant=variant,
            n_features=dataset.n_features,
            interaction_dim=dataset.interaction_dim,
            lookback=horizon.lookback,
            horizon=horizon.horizon,
            **model_kwargs,
        )
        offline = trainer_mod.train_offline(dataset, model_cfg, train_cfg)
        metrics_by_variant[variant] = {}
        for scheme in schemes:
            cfg = trainer_mod.TrainConfig.from_dict(
                {**train_cfg.to_dict(), "scheme": scheme}
            )
            try:
                log, _ = trainer_mod.run_simulation(
                    dataset, model_cfg, cfg, n_days,
                    offline_state=offline, curve_cache=curve_cache,
                )
            except Exception as err:
                raise RuntimeError(
                    f"benchmark run failed for variant={variant} scheme={scheme}: {err}"
                ) from err
            preds, truths = windows_from_log(log, dataset, horizon)
            report = compute_metrics(preds, truths)
            metrics_by_variant[variant][scheme] = report
            temporal, nontemporal = _scheme_parts(scheme)
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
        temporal_labels, nontemporal_labels = [], []
        for scheme in schemes:
            t, nt = _scheme_parts(scheme)
            if t not in temporal_labels:
                temporal_labels.append(t)
            if nt not in nontemporal_labels:
                nontemporal_labels.append(nt)
        cells = np.full((len(nontemporal_labels), len(temporal_labels)), np.nan)
        for scheme, rank in zip(schemes, avg):
            t, nt = _scheme_parts(scheme)
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
