"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines.  Comparative criteria use desk-scale synthetic datasets and model
sizes chosen to fit the stated runtime budgets; thresholds are asserted
exactly as stated.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from driftcast import evaluation as E
from driftcast import model as M
from driftcast import nnkernel as nn
from driftcast import trainer as T
from driftcast.cli import run_cli
from gradcheck import grad_check
from driftcast.data import Dataset, EntityRecord, HorizonConfig, load_dataset
from driftcast.profiles import fluss_probability, mass, matrix_profile_index, summed_arc_curve
from driftcast.sampling import CandidateArray, CandidateWeights, sample_batch, uniform_weights
from driftcast.synthgen import GenConfig, generate

CHI2_CRIT_999_DF99 = 148.23035916510173  # chi2.ppf(0.999, 99), frozen from scipy

DESK_HORIZON = HorizonConfig(lookback=48, backward=24, forward=24, label_delay_days=15)
DESK_MODEL = dict(embed_dim=16, conv_channels=16, kernel_width=3, n_blocks=2, bank_size=8)


def report(number: int, name: str, passed: bool, detail: str, elapsed: float) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {verdict} [{elapsed:6.1f}s] {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def desk_model_cfg(dataset, variant):
    return M.ModelConfig(
        variant=variant, n_features=dataset.n_features,
        interaction_dim=dataset.interaction_dim,
        lookback=DESK_HORIZON.lookback, horizon=DESK_HORIZON.horizon,
        **DESK_MODEL,
    )


def gen_dataset(tmp, name, **kwargs):
    root = Path(tmp) / name
    generate(GenConfig(**kwargs), root)
    return load_dataset(root)


def frozen_eval(dataset, state, model_cfg, days_lo, days_hi, step=12, horizon=None):
    """Metrics of a frozen model over test-span windows."""
    index = T.DatasetIndex(dataset, horizon or DESK_HORIZON)
    anchors = np.arange(days_lo * 24, days_hi * 24, step, dtype=np.int64)
    parts_e, parts_a = [], []
    for e in range(len(dataset.records)):
        parts_e.append(np.full(len(anchors), e, dtype=np.int32))
        parts_a.append(anchors)
    cands = CandidateArray(np.concatenate(parts_e), np.concatenate(parts_a))
    X, I, Y = index.gather(cands)
    preds = M.batch_predict(state.params, model_cfg, X, I)
    return E.compute_metrics(preds, Y)


# --------------------------------------------------------------------------
# 1. Gradient suite
# --------------------------------------------------------------------------


def test_criterion_01_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0

    # layer ops, 100 random trials each
    for _ in range(100):
        x = rng.normal(size=6)
        W, b = rng.normal(size=(6, 4)), rng.normal(size=4)
        gy = rng.normal(size=4)
        worst = max(worst, grad_check(
            lambda xx: (float(nn.dense(xx, W, b) @ gy),
                        nn.dense_backward(xx, W, gy)[0]), x))
        xc = rng.normal(size=(7, 2))
        K, bc = rng.normal(size=(3, 2, 3)), rng.normal(size=3)
        gc = rng.normal(size=(7, 3))
        worst = max(worst, grad_check(
            lambda xx: (float((nn.conv1d_causal(xx, K, bc) * gc).sum()),
                        nn.conv1d_causal_backward(xx, K, gc)[0]), xc))
        xr = rng.normal(size=8) + np.sign(rng.normal(size=8)) * 0.3
        gr = rng.normal(size=8)
        worst = max(worst, grad_check(
            lambda xx: (float((nn.relu(xx) * gr).sum()),
                        nn.relu_backward(xx, gr)), xr))
        xs = rng.normal(size=5)
        gs = rng.normal(size=5)
        worst = max(worst, grad_check(
            lambda xx: (float((nn.softmax(xx) * gs).sum()),
                        nn.softmax_backward(nn.softmax(xx), gs)), xs))
        xp = rng.normal(size=(5, 3))
        gp = rng.normal(size=3)
        worst = max(worst, grad_check(
            lambda xx: (float(nn.global_avg_pool_time(xx) @ gp),
                        nn.global_avg_pool_time_backward(xx, gp)), xp))

    # full model variants on a small config
    for variant in M.VARIANTS:
        cfg = M.ModelConfig(variant=variant, n_features=3, interaction_dim=5,
                            lookback=16, horizon=6, embed_dim=8, conv_channels=7,
                            kernel_width=3, n_blocks=2, bank_size=4)
        params = M.init_params(cfg, rng)
        X = rng.normal(size=(2, 16, 3))
        I = np.abs(rng.normal(size=(2, 5))) + 0.1
        Y = rng.normal(size=(2, 6))
        _, grads = M.batch_loss_and_grads(params, cfg, X, I, Y, gamma=0.5)
        eps = 1e-6
        for name, p in params.items():
            flat, ana = p.ravel(), grads[name].ravel()
            picks = (range(flat.size) if flat.size <= 25
                     else rng.choice(flat.size, 25, replace=False))
            for i in picks:
                orig = flat[i]
                flat[i] = orig + eps
                up, _ = M.batch_loss_and_grads(params, cfg, X, I, Y, gamma=0.5)
                flat[i] = orig - eps
                dn, _ = M.batch_loss_and_grads(params, cfg, X, I, Y, gamma=0.5)
                flat[i] = orig
                num = (up - dn) / (2 * eps)
                worst = max(worst, abs(num - ana[i]) / max(1.0, abs(num), abs(ana[i])))

    elapsed = time.perf_counter() - start
    report(1, "gradient suite", worst < 1e-5 and elapsed < 120,
           f"max relative error {worst:.2e}", elapsed)


# --------------------------------------------------------------------------
# 2. Oracle equivalence
# --------------------------------------------------------------------------


def naive_distance_profile(query, series):
    m = len(query)
    windows = np.lib.stride_tricks.sliding_window_view(series, m)
    zq = (query - query.mean()) / query.std()
    mus, sds = windows.mean(axis=1), windows.std(axis=1)
    degenerate = (windows.max(axis=1) == windows.min(axis=1)) | (
        sds <= 1e-12 * np.maximum(1.0, np.abs(mus))
    )
    out = np.empty(len(windows))
    for j in range(len(windows)):
        if degenerate[j]:
            out[j] = math.sqrt(2 * m)
        else:
            zw = (windows[j] - mus[j]) / sds[j]
            out[j] = math.sqrt(((zq - zw) ** 2).sum())
    return out


def naive_mpi_vec(series, m, radius):
    windows = np.lib.stride_tricks.sliding_window_view(series, m)
    length = len(windows)
    mus, sds = windows.mean(axis=1), windows.std(axis=1)
    degenerate = (windows.max(axis=1) == windows.min(axis=1)) | (
        sds <= 1e-12 * np.maximum(1.0, np.abs(mus))
    )
    z = np.where(degenerate[:, None], 0.0, (windows - mus[:, None]) / np.where(
        degenerate[:, None], 1.0, sds[:, None]))
    nn_idx = np.empty(length, dtype=np.int64)
    pos = np.arange(length)
    for i in range(length):
        dist = np.sqrt(((z[i] - z) ** 2).sum(axis=1))
        if degenerate[i]:
            dist[:] = math.sqrt(2 * m)
        else:
            dist[degenerate] = math.sqrt(2 * m)
        dist[np.abs(pos - i) <= radius] = np.inf
        nn_idx[i] = int(np.argmin(dist))
    return nn_idx


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        series = np.cumsum(rng.normal(size=2048))
        query = rng.normal(size=168).cumsum()
        fast = mass(query, series).distances
        slow = naive_distance_profile(query, series)
        worst = max(worst, float(np.max(np.abs(fast - slow))))

    mismatches = 0
    for _ in range(20):
        n = int(rng.integers(200, 501))
        m = int(rng.integers(16, 49))
        series = np.cumsum(rng.normal(size=n))
        mpi = matrix_profile_index(series, m)
        oracle = naive_mpi_vec(series, m, mpi.exclusion_radius)
        mismatches += int(np.sum(mpi.nn_index != oracle))

    elapsed = time.perf_counter() - start
    report(2, "oracle equivalence",
           worst < 1e-6 and mismatches == 0 and elapsed < 300,
           f"mass max abs diff {worst:.2e}, mpi mismatches {mismatches}", elapsed)


# --------------------------------------------------------------------------
# 3. Segmentation desk-scale
# --------------------------------------------------------------------------


def test_criterion_03_segmentation():
    start = time.perf_counter()
    t = np.arange(4000)
    series = np.where(t < 2000,
                      np.sin(2 * np.pi * t / 24.0),
                      np.sin(2 * np.pi * t / 12.0))
    m = 168
    total = summed_arc_curve(series, m)
    min_pos = int(np.argmin(total))
    curve = fluss_probability(series, m)
    mass_after = float(curve.p[2000:].sum())
    elapsed = time.perf_counter() - start
    report(3, "segmentation desk-scale",
           abs(min_pos - 2000) <= 200 and mass_after >= 0.8,
           f"cac minimum at {min_pos} (target 2000 +/- 200), "
           f"mass after change {mass_after:.3f}", elapsed)


# --------------------------------------------------------------------------
# 4. Sampler statistics
# --------------------------------------------------------------------------


def test_criterion_04_sampler_statistics():
    start = time.perf_counter()
    n, draws = 100, 100_000
    cands = CandidateArray(
        np.zeros(n, dtype=np.int32), np.arange(n, dtype=np.int64)
    )
    rng = np.random.default_rng(2)
    raw = rng.random(n) + 0.2
    checks = []
    for weights in (uniform_weights(cands),
                    CandidateWeights(cands, raw / raw.sum())):
        batch = sample_batch(weights, draws, np.random.default_rng(3))
        counts = np.bincount(batch.anchors, minlength=n).astype(float)
        max_dev = float(np.max(np.abs(counts / draws - weights.weights)))
        expected = weights.weights * draws
        chi2 = float((((counts - expected) ** 2) / expected).sum())
        checks.append((max_dev, chi2))
    elapsed = time.perf_counter() - start
    ok = all(dev < 0.005 and chi2 < CHI2_CRIT_999_DF99 for dev, chi2 in checks)
    detail = "; ".join(f"max dev {d:.4f}, chi2 {c:.1f}" for d, c in checks)
    report(4, "sampler statistics", ok,
           f"{detail} (chi2 crit {CHI2_CRIT_999_DF99:.1f})", elapsed)


# --------------------------------------------------------------------------
# 5 & 6. Model comparison directions
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ambiguous_dataset(tmp_path_factory):
    return gen_dataset(
        tmp_path_factory.mktemp("acc5"), "ds",
        n_entities=30, n_clusters=2, d=4, days=125, seed=11,
        noise_level=0.05, outlier_rate=0.0, scale_spread=4.0, entity_jitter=0.1,
    )


def offline_cfg(seed=5, **over):
    base = dict(offline_epochs=4, learning_rate=1e-3, batch_size=128, n_iter=10,
                seed=seed, offline_days=70,
                horizon=HorizonConfig(lookback=48, backward=24, forward=24,
                                      label_delay_days=1))
    base.update(over)
    return T.TrainConfig(**base)


def test_criterion_05_multimodality_direction(ambiguous_dataset):
    start = time.perf_counter()
    ds = ambiguous_dataset
    tc = offline_cfg()
    reports = {}
    for variant in ("base", "base_inter"):
        mc = M.ModelConfig(variant=variant, n_features=ds.n_features,
                           interaction_dim=ds.interaction_dim,
                           lookback=48, horizon=48, **DESK_MODEL)
        state = T.train_offline(ds, mc, tc)
        reports[variant] = frozen_eval(ds, state, mc, 78, 123)
    ratio = reports["base_inter"].rmse / reports["base"].rmse
    elapsed = time.perf_counter() - start
    report(5, "multimodality direction",
           ratio <= 0.9 and elapsed < 900,
           f"base_inter rmse {reports['base_inter'].rmse:.4f} vs base "
           f"{reports['base'].rmse:.4f}, ratio {ratio:.3f} (need <= 0.9)", elapsed)


def test_criterion_06_shape_scale_direction(tmp_path_factory):
    start = time.perf_counter()
    ds = gen_dataset(
        tmp_path_factory.mktemp("acc6"), "ds",
        n_entities=30, n_clusters=2, d=4, days=125, seed=12,
        noise_level=0.05, outlier_rate=0.0, scale_spread=100.0, entity_jitter=0.1,
    )
    # a look-back that is not a whole number of days lets the pooled temporal
    # representation carry the within-day phase
    horizon = HorizonConfig(lookback=50, backward=24, forward=24, label_delay_days=1)
    tc = T.TrainConfig(offline_epochs=4, learning_rate=1e-3, batch_size=128,
                       n_iter=10, seed=6, offline_days=70, horizon=horizon)
    reports = {}
    for variant in ("base_inter", "proposed"):
        mc = M.ModelConfig(variant=variant, n_features=ds.n_features,
                           interaction_dim=ds.interaction_dim,
                           lookback=50, horizon=48, **DESK_MODEL)
        state = T.train_offline(ds, mc, tc)
        reports[variant] = frozen_eval(ds, state, mc, 78, 123, horizon=horizon)
    ratio = reports["proposed"].nrmse / reports["base_inter"].nrmse
    elapsed = time.perf_counter() - start
    report(6, "shape/scale direction",
           ratio <= 0.95 and elapsed < 900,
           f"proposed nrmse {reports['proposed'].nrmse:.4f} vs base_inter "
           f"{reports['base_inter'].nrmse:.4f}, ratio {ratio:.3f} (need <= 0.95)",
           elapsed)


# --------------------------------------------------------------------------
# 7 & 8. Online adaptation directions
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def drifted_dataset(tmp_path_factory):
    return gen_dataset(
        tmp_path_factory.mktemp("acc7"), "ds",
        n_entities=20, n_clusters=3, d=4, days=125, seed=21,
        noise_level=0.08, outlier_rate=0.02, scale_spread=4.0,
        drift_kind="abrupt", drift_day=64, entity_jitter=0.1,
    )


def drift_train_cfg(**over):
    base = dict(offline_epochs=4, learning_rate=1e-3, batch_size=128, n_iter=20,
                seed=9, offline_days=60, error_subsample=3000,
                horizon=DESK_HORIZON)
    base.update(over)
    return T.TrainConfig(**base)


def test_criterion_07_online_vs_offline(drifted_dataset):
    start = time.perf_counter()
    ds = drifted_dataset
    offline = T.train_offline(ds, desk_model_cfg(ds, "proposed"),
                              drift_train_cfg(scheme="frozen"))
    logs = {}
    for scheme in ("frozen", "uniform:uniform"):
        tc = drift_train_cfg(scheme=scheme)
        log, _ = T.run_simulation(ds, desk_model_cfg(ds, "proposed"), tc, 50,
                                  offline_state=offline)
        logs[scheme] = log

    # labels reveal the day-64 drift at day 64 + 15 = 79; score the next 30 days
    def rmse_over(log, lo, hi):
        preds, truths = E.windows_from_log(log, ds, DESK_HORIZON)
        sel = (np.array(log.days) >= lo) & (np.array(log.days) < hi)
        return E.compute_metrics(preds[sel], truths[sel]).rmse

    frozen_rmse = rmse_over(logs["frozen"], 79, 109)
    online_rmse = rmse_over(logs["uniform:uniform"], 79, 109)
    ratio = online_rmse / frozen_rmse
    elapsed = time.perf_counter() - start
    report(7, "online vs offline direction",
           ratio <= 0.9 and elapsed < 1200,
           f"online rmse {online_rmse:.4f} vs frozen {frozen_rmse:.4f}, "
           f"ratio {ratio:.3f} (need <= 0.9)", elapsed)


BENCH_SCHEMES = [
    "uniform:uniform", "segment:uniform", "segment:similar",
    "segment:low_error", "fixed90:uniform", "decay:uniform",
    "uniform:similar", "uniform:low_error",
]


def test_criterion_08_scheme_ranking(tmp_path_factory):
    start = time.perf_counter()
    # single-channel features put the full weight of the drift signature on
    # the segmentation curve; heavier outliers give the error-based rules a
    # denoising opportunity
    ds = gen_dataset(
        tmp_path_factory.mktemp("acc8"), "ds",
        n_entities=20, n_clusters=3, d=1, days=125, seed=33,
        noise_level=0.08, outlier_rate=0.08, scale_spread=4.0,
        drift_kind="abrupt", drift_day=64, entity_jitter=0.1,
    )
    tc = drift_train_cfg(seed=13)
    result = E.benchmark(ds, ["base", "base_inter", "proposed"], BENCH_SCHEMES,
                         tc, n_days=60, model_kwargs=DESK_MODEL)
    nrmse_tab = result.tables["nrmse"]
    rmse_tab = result.tables["rmse"]
    seg_sim = nrmse_tab.cell("segment", "similar")
    uni_uni_nrmse = nrmse_tab.cell("uniform", "uniform")
    seg_lowerr = rmse_tab.cell("segment", "low_error")
    uni_uni_rmse = rmse_tab.cell("uniform", "uniform")
    elapsed = time.perf_counter() - start
    ok = seg_sim < uni_uni_nrmse and seg_lowerr < uni_uni_rmse and elapsed < 7200
    report(8, "scheme-ranking direction", ok,
           f"nrmse rank segment:similar {seg_sim:.2f} vs uniform:uniform "
           f"{uni_uni_nrmse:.2f}; rmse rank segment:low_error {seg_lowerr:.2f} "
           f"vs uniform:uniform {uni_uni_rmse:.2f}", elapsed)


# --------------------------------------------------------------------------
# 9. Reproducibility
# --------------------------------------------------------------------------


def test_criterion_09_reproducibility(tmp_path):
    import json
    start = time.perf_counter()
    config = {
        "gen": {"n_entities": 8, "n_clusters": 2, "d": 3, "days": 60, "seed": 17,
                "noise_level": 0.05, "outlier_rate": 0.0},
        "horizon": {"lookback": 24, "backward": 6, "forward": 6,
                    "label_delay_days": 3},
        "model": {"variant": "proposed", "embed_dim": 8, "conv_channels": 8,
                  "kernel_width": 3, "n_blocks": 1, "bank_size": 4},
        "train": {"offline_epochs": 2, "batch_size": 64, "n_iter": 5, "seed": 19,
                  "offline_days": 12, "error_subsample": 500},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    logs = []
    for run in ("one", "two"):
        root = tmp_path / run
        assert run_cli(["gen-data", "--config", str(cfg_path),
                        "--out", str(root / "data")]) == 0
        assert run_cli(["train-offline", "--data", str(root / "data"),
                        "--config", str(cfg_path),
                        "--out", str(root / "model.bin")]) == 0
        assert run_cli(["run-online", "--data", str(root / "data"),
                        "--ckpt", str(root / "model.bin"),
                        "--scheme", "uniform:low_error", "--days", "30",
                        "--out", str(root / "run"), "--config", str(cfg_path)]) == 0
        assert run_cli(["evaluate", "--pred", str(root / "run" / "predictions.csv"),
                        "--data", str(root / "data"), "--config", str(cfg_path),
                        "--out", str(root / "metrics.json")]) == 0
        logs.append((root / "run" / "predictions.csv").read_bytes())
    identical = logs[0] == logs[1]

    # checkpoint-resume equals the uninterrupted run bitwise
    root = tmp_path / "one"
    assert run_cli(["run-online", "--data", str(root / "data"),
                    "--ckpt", str(root / "model.bin"),
                    "--scheme", "uniform:low_error", "--days", "15",
                    "--out", str(root / "half"), "--config", str(cfg_path)]) == 0
    assert run_cli(["run-online", "--data", str(root / "data"),
                    "--ckpt", str(root / "half" / "state.bin"),
                    "--days", "15",
                    "--out", str(root / "resumed"), "--config", str(cfg_path)]) == 0
    resumed = (root / "resumed" / "predictions.csv").read_bytes()
    resume_ok = resumed == logs[0]
    elapsed = time.perf_counter() - start
    report(9, "reproducibility", identical and resume_ok,
           f"pipeline reruns identical: {identical}; "
           f"checkpoint-resume identical: {resume_ok}", elapsed)


# --------------------------------------------------------------------------
# 10. Causality
# --------------------------------------------------------------------------


def test_criterion_10_causality(tmp_path):
    start = time.perf_counter()
    root = tmp_path / "ds"
    generate(GenConfig(n_entities=4, n_clusters=2, d=2, days=110, seed=23,
                       noise_level=0.05, outlier_rate=0.0), root)
    ds = load_dataset(root)
    horizon = HorizonConfig(lookback=24, backward=6, forward=6, label_delay_days=90)
    tc = T.TrainConfig(offline_epochs=1, batch_size=32, n_iter=3, seed=29,
                       scheme="uniform:low_error", offline_days=95,
                       error_subsample=300, horizon=horizon)
    mc = M.ModelConfig(variant="proposed", n_features=ds.n_features,
                       interaction_dim=ds.interaction_dim, lookback=24, horizon=12,
                       embed_dim=8, conv_channels=8, kernel_width=3, n_blocks=1,
                       bank_size=4)
    n_days = 10
    log_clean, _ = T.run_simulation(ds, mc, tc, n_days)

    # corrupt every label inside the 90-day delay window of the final day
    final_labeled_end = (tc.offline_days + n_days - 1 - 90) * 24
    tampered_records = []
    for record in ds.records:
        metric = record.metric.copy()
        metric[final_labeled_end:] = -1e9
        tampered_records.append(EntityRecord(
            entity_id=record.entity_id, features=record.features, metric=metric,
            interactions=record.interactions, start_timestamp=record.start_timestamp,
        ))
    tampered = Dataset(records=tuple(tampered_records), meta=ds.meta)
    log_tampered, _ = T.run_simulation(tampered, mc, tc, n_days)

    same = (
        np.array_equal(log_clean.days, log_tampered.days)
        and np.array_equal(log_clean.entity_idx, log_tampered.entity_idx)
        and np.array_equal(log_clean.preds, log_tampered.preds)
    )
    elapsed = time.perf_counter() - start
    report(10, "causality", same,
           f"predictions identical under label tampering: {same}", elapsed)
