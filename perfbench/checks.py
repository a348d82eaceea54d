"""Output checks made apart from the program.

Every function here returns a list of failure messages; an empty list means
the check passed.  The CSV and dataset parsers, the window slicing, the
metric formulas and the brute-force nearest-neighbour search are written
independently of ``driftcast`` so that a fault shared by the program's own
reader and writer still shows.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

HOURS_PER_DAY = 24
REL_TOL = 1e-9
PREDICTION_HEADER = "day,entity_id,offset,predicted,actual_when_available"


# --------------------------------------------------------------------------
# Independent scoring of predictions.csv
# --------------------------------------------------------------------------


def read_metric_columns(data_dir: Path, entity_ids: list[str]) -> dict[str, list[float]]:
    """The raw ``metric`` column of every entity file, by hour."""
    out = {}
    for entity_id in entity_ids:
        lines = (Path(data_dir) / f"entity_{entity_id}.csv").read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("metric")
        values = []
        for hour, line in enumerate(lines[1:]):
            fields = line.split(",")
            if int(fields[0]) != hour:
                raise ValueError(f"entity {entity_id}: hour {fields[0]} out of order")
            values.append(float(fields[col]))
        out[entity_id] = values
    return out


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def score_predictions(
    csv_path: Path,
    metrics_by_entity: dict[str, list[float]],
    backward: int,
    forward: int,
    labeled_end: int,
    expected_keys: set[tuple[int, str]],
) -> tuple[list[str], float, float]:
    """Re-read ``predictions.csv`` and score it; returns (failures, rmse, nrmse).

    Checks one row per (day, entity, offset) with offsets exactly
    ``-backward .. forward-1``, and the causality contract: the actual is
    the raw metric for every hour before ``labeled_end`` and empty after.
    """
    failures: list[str] = []
    lines = Path(csv_path).read_text().splitlines()
    if not lines or lines[0] != PREDICTION_HEADER:
        return [f"{csv_path}: header {lines[:1]!r}"], math.nan, math.nan
    rows: dict[tuple[int, str], dict[int, float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        day_s, entity_id, offset_s, pred_s, actual_s = line.split(",")
        day, offset = int(day_s), int(offset_s)
        by_offset = rows.setdefault((day, entity_id), {})
        if offset in by_offset:
            failures.append(f"line {lineno}: duplicate row ({day}, {entity_id}, {offset})")
            continue
        by_offset[offset] = float(pred_s)
        hour = day * HOURS_PER_DAY + offset
        series = metrics_by_entity[entity_id]
        if hour < labeled_end:
            if actual_s == "" or float(actual_s) != series[hour]:
                failures.append(
                    f"line {lineno}: actual {actual_s!r} at hour {hour} before the "
                    f"labelled end {labeled_end}, raw value {series[hour]!r}"
                )
        elif actual_s != "":
            failures.append(
                f"line {lineno}: actual {actual_s!r} at hour {hour} at or after the "
                f"labelled end {labeled_end}"
            )
    if set(rows) != expected_keys:
        failures.append(
            f"(day, entity) pairs differ from the run's: "
            f"{len(set(rows) - expected_keys)} extra, {len(expected_keys - set(rows))} missing"
        )
    offsets = list(range(-backward, forward))
    sq_sum, n_points, shape_sum, n_shape = 0.0, 0, 0.0, 0
    for (day, entity_id), by_offset in sorted(rows.items()):
        if sorted(by_offset) != offsets:
            failures.append(f"({day}, {entity_id}): offsets are not {-backward}..{forward - 1}")
            continue
        series = metrics_by_entity[entity_id]
        anchor = day * HOURS_PER_DAY
        if anchor - backward < 0 or anchor + forward > len(series):
            continue
        pred = np.array([by_offset[o] for o in offsets])
        truth = np.array(series[anchor - backward : anchor + forward])
        sq_sum += float(((pred - truth) ** 2).sum())
        n_points += len(offsets)
        t_std = truth.std()
        if t_std == 0.0:
            continue
        p_std = pred.std()
        zp = (pred - pred.mean()) / p_std if p_std > 0 else np.zeros_like(pred)
        zt = (truth - truth.mean()) / t_std
        shape_sum += math.sqrt(float(((zp - zt) ** 2).mean()))
        n_shape += 1
    if n_points == 0:
        return failures + ["no scorable prediction windows"], math.nan, math.nan
    rmse = math.sqrt(sq_sum / n_points)
    nrmse = shape_sum / n_shape if n_shape else 0.0
    return failures, rmse, nrmse


def compare_scores(label: str, ours: tuple[float, float], theirs) -> list[str]:
    """``theirs`` is an ``evaluation.MetricReport``; relative tolerance 1e-9."""
    failures = []
    for name, mine, program in (("rmse", ours[0], theirs.rmse), ("nrmse", ours[1], theirs.nrmse)):
        if not _rel_diff(mine, program) <= REL_TOL:
            failures.append(f"{label}: recomputed {name} {mine!r} != program's {program!r}")
    return failures


# --------------------------------------------------------------------------
# Checkpoint round trip
# --------------------------------------------------------------------------


def _same_array(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def compare_states(saved, loaded) -> list[str]:
    """Bitwise comparison of two ``SimulationState`` objects."""
    failures = []
    for field in ("current_day", "gamma", "examples_consumed", "final_train_loss"):
        if getattr(saved, field) != getattr(loaded, field):
            failures.append(f"state.{field} differs")
    if list(saved.params) != list(loaded.params):
        failures.append("parameter names or order differ")
    for name, p in saved.params.items():
        if name not in loaded.params or not _same_array(p, loaded.params[name]):
            failures.append(f"parameter {name} differs")
            continue
        s, t = saved.adam[name], loaded.adam[name]
        if not (_same_array(s.first_moment, t.first_moment)
                and _same_array(s.second_moment, t.second_moment)
                and s.step_count == t.step_count):
            failures.append(f"Adam state of {name} differs")
    for rng in ("rng_batches", "rng_subsample"):
        if getattr(saved, rng).bit_generator.state != getattr(loaded, rng).bit_generator.state:
            failures.append(f"{rng} state differs")
    if (saved.cache is None) != (loaded.cache is None):
        failures.append("error cache present in one state only")
    elif saved.cache is not None:
        a, b = saved.cache, loaded.cache
        if not (_same_array(a.candidates.entity_idx.astype(np.int64),
                            b.candidates.entity_idx.astype(np.int64))
                and _same_array(a.candidates.anchors, b.candidates.anchors)
                and _same_array(a.errors, b.errors)
                and (a.anchor_cutoff, a.day) == (b.anchor_cutoff, b.day)):
            failures.append("error cache differs")
    if (saved.dynamics is None) != (loaded.dynamics is None):
        failures.append("dynamics history present in one state only")
    elif saved.dynamics is not None:
        a, b = saved.dynamics, loaded.dynamics
        if not (a.capacity == b.capacity and _same_array(a.snapshots, b.snapshots)
                and _same_array(a.counts, b.counts)):
            failures.append("dynamics history differs")
    if sorted(saved.curves) != sorted(loaded.curves) or not all(
        _same_array(c, loaded.curves[e]) for e, c in saved.curves.items()
    ):
        failures.append("segmentation curves differ")
    a, b = saved.log, loaded.log
    if not (list(a.days) == list(b.days) and list(a.entity_idx) == list(b.entity_idx)
            and len(a.preds) == len(b.preds)
            and all(_same_array(p, q) for p, q in zip(a.preds, b.preds))):
        failures.append("prediction log differs")
    return failures


# --------------------------------------------------------------------------
# Properties a faster layer must keep
# --------------------------------------------------------------------------


def compare_curves(curves: dict[int, np.ndarray], reference: dict[int, np.ndarray]) -> list[str]:
    """State curves against from-scratch curves over the same prefix, bitwise."""
    failures = []
    for e, ref in reference.items():
        if e not in curves:
            failures.append(f"entity {e}: no curve in the state")
        elif not _same_array(curves[e], ref):
            failures.append(
                f"entity {e}: curve (length {len(curves[e])}) differs from the "
                f"from-scratch curve (length {len(ref)})"
            )
    return failures


def _znorm_windows(series: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """z-normalised windows, two-pass; rows of constant windows are flagged."""
    windows = np.lib.stride_tricks.sliding_window_view(series, m).astype(np.float64)
    centered = windows - windows.mean(axis=1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=1))
    flat = windows.max(axis=1) == windows.min(axis=1)
    z = centered / np.where(flat, 1.0, std)[:, None]
    z[flat] = 0.0
    return z, flat


def check_matrix_profile(series: np.ndarray, m: int, nn_index: np.ndarray,
                         exclusion_radius: int) -> list[str]:
    """Every neighbour lies outside the exclusion zone and is a nearest one.

    Distances are z-normalised Euclidean; a pair with a constant window has
    the convention distance sqrt(2m).  The neighbour's distance must be
    within 1e-9 of the brute-force minimum over all admissible windows.
    """
    z, flat = _znorm_windows(series, m)
    length = len(z)
    idx = np.arange(length)
    failures = []
    if len(nn_index) != length:
        return [f"index has {len(nn_index)} entries, expected {length}"]
    inside = np.abs(idx - nn_index) <= exclusion_radius
    if inside.any():
        failures.append(f"{int(inside.sum())} neighbours inside the exclusion zone")
    corr = (z @ z.T) / m
    corr[flat, :] = 0.0
    corr[:, flat] = 0.0
    dist = np.sqrt(np.maximum(2 * m * (1.0 - np.clip(corr, -1.0, 1.0)), 0.0))
    band = np.abs(idx[:, None] - idx[None, :]) <= exclusion_radius
    dist[band] = np.inf
    best = dist.min(axis=1)
    diff = z[idx] - z[nn_index]
    nn_dist = np.sqrt((diff * diff).sum(axis=1))
    either_flat = flat | flat[nn_index]
    nn_dist[either_flat] = math.sqrt(2 * m)
    worst = np.abs(nn_dist - best)
    if not np.all(worst <= 1e-9):
        i = int(np.argmax(worst))
        failures.append(
            f"window {i}: neighbour {int(nn_index[i])} at distance {nn_dist[i]!r}, "
            f"brute-force minimum {best[i]!r}"
        )
    return failures


def random_direction(params: dict[str, np.ndarray], rng: np.random.Generator) -> dict:
    """A random direction of unit norm over every parameter."""
    direction = {n: rng.standard_normal(p.shape) for n, p in params.items()}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    return {n: d / norm for n, d in direction.items()}


def check_directional_derivative(loss_at, params: dict[str, np.ndarray],
                                 grads: dict[str, np.ndarray], direction: dict,
                                 eps: float = 1e-6, tol: float = 1e-6) -> list[str]:
    """Central difference of the loss along a unit direction against the gradient.

    ``loss_at(params)`` returns the scalar loss; the analytic directional
    derivative is sum(grad * direction).  Their difference is taken relative
    to the gradient's norm, the largest value the derivative along a unit
    direction can have: relative to the derivative itself, a ReLU kink
    crossed by the step would show as noise on some directions.
    """
    analytic = sum(float((grads[n] * direction[n]).sum()) for n in params)
    up = loss_at({n: p + eps * direction[n] for n, p in params.items()})
    down = loss_at({n: p - eps * direction[n] for n, p in params.items()})
    numeric = (up - down) / (2 * eps)
    scale = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    err = abs(numeric - analytic) / max(scale, 1e-300)
    if not err <= tol:
        return [f"directional derivative: numeric {numeric!r}, analytic {analytic!r}, "
                f"difference {err:.3e} of the gradient norm > {tol:g}"]
    return []


def check_rank_tables(tables: dict, n_schemes: int) -> list[str]:
    """Average ranks over S schemes must average to (S+1)/2 in every table."""
    failures = []
    expected = (n_schemes + 1) / 2.0
    for metric, table in tables.items():
        cells = np.asarray(table.cells, dtype=np.float64)
        filled = cells[~np.isnan(cells)]
        if len(filled) != n_schemes or not abs(filled.mean() - expected) <= 1e-12:
            failures.append(
                f"rank table {metric}: {len(filled)} cells averaging "
                f"{filled.mean() if len(filled) else math.nan!r}, expected "
                f"{n_schemes} cells averaging {expected}"
            )
    return failures
