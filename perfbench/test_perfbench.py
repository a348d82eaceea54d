"""The benchmark's checks fail on broken outputs, and every workload runs.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from driftcast import model, profiles, trainer


@pytest.fixture(scope="module")
def segment_run(tmp_path_factory):
    """A reduced desk-segment-similar cell: the runner and its final state."""
    w = workloads.smoke(workloads.WORKLOADS["desk-segment-similar"])
    runner = workloads.Runner(w, seed=3, seconds=0, out_dir=tmp_path_factory.mktemp("run"))
    runner.setup(time.perf_counter())
    runner.offline = trainer.train_offline(runner.dataset, runner.model_cfg, runner.train_cfg)
    state = runner.cell()[0]
    return runner, state


def _score(runner, state, csv_path, labeled_end=None):
    if labeled_end is None:
        labeled_end = runner._labeled_end(state.current_day)
    ids = [r.entity_id for r in runner.dataset.records]
    expected = {(d, e) for d in range(runner.train_cfg.offline_days, state.current_day)
                for e in ids}
    raw = checks.read_metric_columns(runner.data_dir, ids)
    return checks.score_predictions(csv_path, raw, runner.horizon.backward,
                                    runner.horizon.forward, labeled_end, expected)[0]


def test_csv_row_shifted_by_an_hour_fails(segment_run, tmp_path):
    runner, state = segment_run
    path = tmp_path / "predictions.csv"
    state.log.write_csv(path, runner.dataset, runner.horizon,
                        runner._labeled_end(state.current_day))
    assert _score(runner, state, path) == []

    lines = path.read_text().splitlines()
    day, entity, offset, pred, actual = lines[5].split(",")
    lines[5] = ",".join([day, entity, str(int(offset) + 1), pred, actual])
    path.write_text("\n".join(lines) + "\n")
    assert any("duplicate row" in f for f in _score(runner, state, path))


def test_csv_actuals_follow_the_labelled_end(segment_run, tmp_path):
    runner, state = segment_run
    path = tmp_path / "predictions.csv"
    hours = runner.dataset.hours
    # every actual filled: they must be the raw values
    state.log.write_csv(path, runner.dataset, runner.horizon, hours)
    assert _score(runner, state, path, hours) == []
    # actuals leaked past the run's own labelled end
    assert any("at or after the labelled end" in f for f in _score(runner, state, path))
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[4] = repr(float(fields[4]) + 1.0)
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert any("raw value" in f for f in _score(runner, state, path, hours))


def test_checkpoint_with_one_byte_changed_fails(segment_run, tmp_path):
    runner, state = segment_run
    path = tmp_path / "state.bin"
    trainer.save_checkpoint(state, path, runner.model_cfg, runner.train_cfg)
    loaded, _, _ = trainer.load_checkpoint(path)
    assert checks.compare_states(state, loaded) == []

    raw = bytearray(path.read_bytes())
    magic = len(trainer.CKPT_MAGIC)
    header_len = int.from_bytes(raw[magic + 4 : magic + 12], "little")
    first_param = magic + 12 + header_len
    raw[first_param + 3] ^= 0x01
    # re-seal the digest, so only the benchmark's comparison can notice
    raw[-32:] = hashlib.sha256(bytes(raw[:-32])).digest()
    path.write_bytes(bytes(raw))
    tampered, _, _ = trainer.load_checkpoint(path)
    failures = checks.compare_states(state, tampered)
    assert any(f.startswith("parameter ") for f in failures)


def test_gradient_with_one_element_perturbed_fails():
    cfg = model.ModelConfig(variant="proposed", n_features=6, interaction_dim=5,
                            lookback=168, horizon=48, embed_dim=8, conv_channels=8,
                            kernel_width=3, n_blocks=3, bank_size=4)
    rng = np.random.default_rng(0)
    params = model.init_params(cfg, rng)
    X = rng.normal(size=(3, 168, 6))
    I = rng.uniform(1.0, 5.0, size=(3, 5))
    Y = rng.normal(size=(3, 48))

    def loss_at(p):
        return model.batch_loss_and_grads(p, cfg, X, I, Y, 0.5)[0]

    _, grads = model.batch_loss_and_grads(params, cfg, X, I, Y, 0.5)
    direction = checks.random_direction(params, np.random.default_rng(1))
    assert checks.check_directional_derivative(loss_at, params, grads, direction) == []
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    name = max(direction, key=lambda n: np.abs(direction[n]).max())
    grads[name].flat[int(np.abs(direction[name]).argmax())] += 1e-3 * norm
    assert checks.check_directional_derivative(loss_at, params, grads, direction) != []


def test_curve_from_a_shorter_prefix_fails(segment_run):
    runner, state = segment_run
    m = runner.horizon.lookback
    labeled_end = runner._labeled_end(state.current_day - 1)
    records = runner.dataset.records
    reference = {e: profiles.fluss_probability(r.features[:labeled_end], m).p
                 for e, r in enumerate(records)}
    assert checks.compare_curves(state.curves, reference) == []
    shorter = dict(state.curves)
    shorter[1] = profiles.fluss_probability(records[1].features[:labeled_end - 24], m).p
    failures = checks.compare_curves(shorter, reference)
    assert len(failures) == 1 and failures[0].startswith("entity 1:")


def test_matrix_profile_check_catches_a_wrong_neighbour(segment_run):
    runner, state = segment_run
    m = runner.horizon.lookback
    series = runner.dataset.records[0].features[: runner._labeled_end(state.current_day - 1), 0]
    radius = math.ceil(m / 2)
    nn = profiles.matrix_profile_index(series, m).nn_index.copy()
    assert checks.check_matrix_profile(series, m, nn, radius) == []
    far = nn.copy()
    far[10] = len(nn) - 1 if abs(nn[10] - (len(nn) - 1)) > radius else 0
    assert checks.check_matrix_profile(series, m, far, radius) != []
    near = nn.copy()
    near[10] = 10 + radius
    assert any("exclusion zone" in f for f in checks.check_matrix_profile(series, m, near, radius))


def test_rank_table_check():
    good = SimpleNamespace(cells=np.array([[1.0, 2.5], [np.nan, 2.5]]))
    assert checks.check_rank_tables({"rmse": good}, 3) == []
    bad = SimpleNamespace(cells=np.array([[1.0, 2.5], [np.nan, 3.0]]))
    assert checks.check_rank_tables({"rmse": bad}, 3) != []


def test_tracer_skips_missing_functions(monkeypatch):
    monkeypatch.delattr(model, "batch_losses")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert model.dense.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert tracer.missing == ["model.batch_losses"]
    metrics = tracer.metrics()
    assert "model.batch_losses.calls" not in metrics
    assert "model.batch_predict.calls" in metrics
    assert not hasattr(model.dense, "__wrapped__")


def test_benchmark_json_names_match_the_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_names()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke(name):
    """Every workload at reduced size; all four together take well under a minute."""
    line, record = run.run_workload(name, seed=2, seconds=0, trace=False, smoke=True,
                                    t0=time.perf_counter())
    assert record["check_failures"] == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_smoke_traced():
    line, record = run.run_workload("desk-uniform", seed=2, seconds=0, trace=True,
                                    smoke=True, t0=time.perf_counter())
    assert line["correct"]
    assert set(line["metrics"]) == {n for n, _ in spans.per_layer_names()}
    assert line["metrics"]["profiles.matrix_profile_index.calls"]["value"] == 0
    assert line["metrics"]["nnkernel.conv1d_causal.calls"]["value"] > 0
