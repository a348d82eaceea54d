import json

import pytest

from driftcast import profiles
from driftcast.cli import DEFAULT_CONFIG, load_config, run_cli, ConfigError
from driftcast.data import load_dataset

TINY_CONFIG = {
    "gen": {"n_entities": 5, "n_clusters": 2, "d": 2, "days": 40, "seed": 3,
            "noise_level": 0.05, "outlier_rate": 0.0},
    "horizon": {"lookback": 24, "backward": 6, "forward": 6, "label_delay_days": 3},
    "model": {"variant": "proposed", "embed_dim": 6, "conv_channels": 6,
              "kernel_width": 3, "n_blocks": 1, "bank_size": 3},
    "train": {"offline_epochs": 1, "batch_size": 32, "n_iter": 2, "seed": 9,
              "offline_days": 10, "error_subsample": 100},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(TINY_CONFIG))
    data_dir = root / "data"
    code = run_cli(["gen-data", "--config", str(config_path), "--out", str(data_dir)])
    assert code == 0
    return root


class TestConfig:
    def test_defaults_load_without_file(self):
        config = load_config(None)
        assert config["train"]["batch_size"] == 1024
        assert config["horizon"]["label_delay_days"] == 90

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"batch_sizes": 12}}))
        with pytest.raises(ConfigError, match="unknown key train.batch_sizes"):
            load_config(str(bad))

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"trainer": {}}))
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(str(bad))


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_invalid_scheme_lists_valid_ones(self, workspace, capsys):
        code = run_cli([
            "run-online", "--data", str(workspace / "data"),
            "--ckpt", str(workspace / "nope.bin"),
            "--scheme", "segment:best", "--days", "2",
            "--out", str(workspace / "x"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "low_error" in err and "segment" in err

    def test_fixed_window_without_labels_is_config_error(self, workspace, capsys, tmp_path):
        # label delay 3 days + forward 6 hours: a 3-day window never holds a label
        config = dict(TINY_CONFIG, benchmark={
            "variants": ["base", "proposed"], "schemes": ["uniform:uniform", "fixed3:uniform"],
            "days": 2})
        path = tmp_path / "fixed3.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "bench"
        code = run_cli(["benchmark", "--data", str(workspace / "data"), "--config", str(path),
                        "--out", str(out)])
        assert code == 2
        assert "3-day window" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_is_data_error(self, capsys, tmp_path):
        code = run_cli([
            "segment", "--data", str(tmp_path / "missing"),
            "--entity", "e000", "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2

    def test_bad_config_key_is_config_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"nope": 1}}))
        code = run_cli(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")])
        assert code == 2


class TestGenData:
    def test_manifest_written(self, workspace):
        manifest = json.loads((workspace / "data" / "run_manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert "config_hash" in manifest and "versions" in manifest

    def test_reruns_are_identical(self, workspace, tmp_path):
        config_path = workspace / "config.json"
        out2 = tmp_path / "data2"
        assert run_cli(["gen-data", "--config", str(config_path), "--out", str(out2)]) == 0
        a = (workspace / "data" / "entity_e000.csv").read_bytes()
        b = (out2 / "entity_e000.csv").read_bytes()
        assert a == b
        ma = (workspace / "data" / "run_manifest.json").read_bytes()
        mb = (out2 / "run_manifest.json").read_bytes()
        assert ma == mb


class TestPipeline:
    def test_train_run_evaluate(self, workspace, capsys):
        config = str(workspace / "config.json")
        data = str(workspace / "data")
        ckpt = workspace / "model.bin"
        assert run_cli(["train-offline", "--data", data, "--config", config,
                        "--out", str(ckpt)]) == 0
        out_dir = workspace / "run"
        assert run_cli(["run-online", "--data", data, "--ckpt", str(ckpt),
                        "--scheme", "uniform:uniform", "--days", "3",
                        "--out", str(out_dir), "--config", config]) == 0
        pred_path = out_dir / "predictions.csv"
        assert pred_path.exists()
        header = pred_path.read_text().splitlines()[0]
        assert header == "day,entity_id,offset,predicted,actual_when_available"
        capsys.readouterr()
        assert run_cli(["evaluate", "--pred", str(pred_path), "--data", data,
                        "--config", config]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) >= {"rmse", "nrmse", "r2"}
        assert metrics["rmse"] >= 0

    def test_segment_writes_curve(self, workspace, monkeypatch):
        data = str(workspace / "data")
        out = workspace / "curve.csv"
        calls = []
        mpi = profiles.matrix_profile_index
        monkeypatch.setattr(profiles, "matrix_profile_index",
                            lambda *a, **k: calls.append(1) or mpi(*a, **k))
        assert run_cli(["segment", "--data", data, "--entity", "e000",
                        "--out", str(out), "--window", "24"]) == 0
        # one matrix profile per feature channel
        assert len(calls) == TINY_CONFIG["gen"]["d"]
        lines = out.read_text().splitlines()
        assert lines[0] == "position,cac_sum,p"
        probs = [float(line.split(",")[2]) for line in lines[1:]]
        assert abs(sum(probs) - 1.0) < 1e-9

    def test_segment_window_defaults_to_the_lookback(self, workspace):
        config = workspace / "lookback48.json"
        config.write_text(json.dumps({"horizon": {"lookback": 48}}))
        data = load_dataset(workspace / "data")
        for argv, window in ((["--config", str(config)], 48), ([], 168)):
            out = workspace / f"curve{window}.csv"
            assert run_cli(["segment", "--data", str(workspace / "data"), "--entity", "e001",
                            "--out", str(out), *argv]) == 0
            curve = profiles.fluss_probability(data.record("e001").features, window)
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert [float(r[2]) for r in rows] == curve.p.tolist()
            assert [float(r[1]) for r in rows] == curve.arc_sum.tolist()

    def test_unknown_entity_is_data_error(self, workspace):
        assert run_cli(["segment", "--data", str(workspace / "data"),
                        "--entity", "zz", "--out", str(workspace / "c.csv")]) == 2


class TestHorizonSourceOfTruth:
    """A config whose horizon disagrees with the run it describes is an error."""

    @pytest.fixture(scope="class")
    def run_6_6(self, workspace):
        data = str(workspace / "data")
        config = str(workspace / "config.json")
        ckpt = workspace / "model_horizon.bin"
        assert run_cli(["train-offline", "--data", data, "--config", config,
                        "--out", str(ckpt)]) == 0
        out_dir = workspace / "run_horizon"
        assert run_cli(["run-online", "--data", data, "--ckpt", str(ckpt),
                        "--scheme", "uniform:uniform", "--days", "3",
                        "--out", str(out_dir), "--config", config]) == 0
        skewed = dict(TINY_CONFIG, horizon=dict(TINY_CONFIG["horizon"], backward=2, forward=10))
        skewed_path = workspace / "config_2_10.json"
        skewed_path.write_text(json.dumps(skewed))
        return data, ckpt, out_dir, skewed_path

    def test_evaluate_rejects_a_config_split_unlike_the_predictions(self, run_6_6, capsys):
        data, _, out_dir, skewed = run_6_6
        pred = str(out_dir / "predictions.csv")
        capsys.readouterr()
        assert run_cli(["evaluate", "--pred", pred, "--data", data,
                        "--config", str(skewed)]) == 2
        assert "disagrees" in capsys.readouterr().err

    def test_evaluate_without_config_uses_the_predictions_horizon(self, workspace, run_6_6,
                                                                   capsys):
        data, _, out_dir, _ = run_6_6
        pred = str(out_dir / "predictions.csv")
        capsys.readouterr()
        assert run_cli(["evaluate", "--pred", pred, "--data", data,
                        "--config", str(workspace / "config.json")]) == 0
        with_config = json.loads(capsys.readouterr().out)
        assert run_cli(["evaluate", "--pred", pred, "--data", data]) == 0
        assert json.loads(capsys.readouterr().out) == with_config

    def test_ragged_offsets_are_rejected(self, run_6_6, tmp_path, capsys):
        data, _, out_dir, _ = run_6_6
        lines = (out_dir / "predictions.csv").read_text().splitlines()
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        capsys.readouterr()
        assert run_cli(["evaluate", "--pred", str(ragged), "--data", data]) == 2
        assert "offsets" in capsys.readouterr().err

    def test_run_online_rejects_a_config_horizon_unlike_the_checkpoint(self, run_6_6,
                                                                       tmp_path):
        data, ckpt, _, skewed = run_6_6
        out_dir = tmp_path / "skewed_run"
        assert run_cli(["run-online", "--data", data, "--ckpt", str(ckpt),
                        "--days", "1", "--out", str(out_dir),
                        "--config", str(skewed)]) == 2
        assert not out_dir.exists()

    def test_run_online_manifest_records_the_horizon_that_ran(self, run_6_6, tmp_path):
        data, ckpt, out_dir, _ = run_6_6
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["config"]["horizon"] == TINY_CONFIG["horizon"]
        assert "horizon" not in manifest["config"]["train"]
        # without a config the checkpoint's horizon runs and is recorded
        bare = tmp_path / "bare_run"
        assert run_cli(["run-online", "--data", data, "--ckpt", str(ckpt),
                        "--days", "1", "--out", str(bare)]) == 0
        manifest = json.loads((bare / "run_manifest.json").read_text())
        assert manifest["config"]["horizon"] == TINY_CONFIG["horizon"]

    def test_run_online_manifest_config_loads_back(self, run_6_6, tmp_path):
        _, _, out_dir, _ = run_6_6
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        path = tmp_path / "manifest_config.json"
        path.write_text(json.dumps(manifest["config"]))
        assert load_config(str(path)) == manifest["config"]

    def test_run_online_manifest_records_the_model_that_ran(self, run_6_6, tmp_path):
        data, ckpt, out_dir, _ = run_6_6
        ran = {**DEFAULT_CONFIG["model"], **TINY_CONFIG["model"]}
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["config"]["model"] == ran
        # without a config the checkpoint's model, not the defaults, is recorded
        bare = tmp_path / "bare_model_run"
        assert run_cli(["run-online", "--data", data, "--ckpt", str(ckpt),
                        "--days", "1", "--out", str(bare)]) == 0
        manifest = json.loads((bare / "run_manifest.json").read_text())
        assert manifest["config"]["model"] == ran
        assert ran["conv_channels"] != DEFAULT_CONFIG["model"]["conv_channels"]

    def test_run_online_rejects_a_config_model_unlike_the_checkpoint(self, run_6_6, tmp_path,
                                                                     capsys):
        data, ckpt, _, _ = run_6_6
        wide = dict(TINY_CONFIG, model=dict(TINY_CONFIG["model"], conv_channels=32))
        wide_path = tmp_path / "config_wide.json"
        wide_path.write_text(json.dumps(wide))
        out_dir = tmp_path / "wide_run"
        capsys.readouterr()
        assert run_cli(["run-online", "--data", data, "--ckpt", str(ckpt),
                        "--days", "1", "--out", str(out_dir),
                        "--config", str(wide_path)]) == 2
        assert "model" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_manifest_names_the_blas_build_and_threads(self, run_6_6):
        _, _, out_dir, _ = run_6_6
        versions = json.loads((out_dir / "run_manifest.json").read_text())["versions"]
        assert set(versions["blas"]) == {"name", "version", "openblas configuration"}
        assert set(versions["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


class TestPipelineConsistency:
    def test_evaluate_matches_benchmark_frozen_cell(self, workspace, tmp_path, capsys):
        # the frozen cell of a benchmark grid must equal `evaluate` run on the
        # run-online output of the same frozen model
        import json as _json
        from driftcast import evaluation as eval_mod
        from driftcast.data import HorizonConfig, load_dataset
        from driftcast.trainer import TrainConfig

        data = str(workspace / "data")
        dataset = load_dataset(data)
        horizon = HorizonConfig(lookback=24, backward=6, forward=6, label_delay_days=3)
        tc = TrainConfig(offline_epochs=1, batch_size=32, n_iter=2, seed=9,
                         offline_days=10, error_subsample=100, horizon=horizon)
        result = eval_mod.benchmark(
            dataset, ["base", "proposed"], ["frozen", "uniform:uniform"], tc,
            n_days=3,
            model_kwargs=dict(embed_dim=6, conv_channels=6, kernel_width=3,
                              n_blocks=1, bank_size=3),
        )
        frozen_row = next(
            r for r in result.rows
            if r["variant"] == "proposed" and r["scheme"] == "frozen"
        )

        config = str(workspace / "config.json")
        ckpt = workspace / "model_consistency.bin"
        assert run_cli(["train-offline", "--data", data, "--config", config,
                        "--out", str(ckpt)]) == 0
        out_dir = tmp_path / "frozen_run"
        assert run_cli(["run-online", "--data", data, "--ckpt", str(ckpt),
                        "--scheme", "frozen", "--days", "3",
                        "--out", str(out_dir), "--config", config]) == 0
        capsys.readouterr()
        assert run_cli(["evaluate", "--pred", str(out_dir / "predictions.csv"),
                        "--data", data, "--config", config]) == 0
        metrics = _json.loads(capsys.readouterr().out)
        assert metrics["rmse"] == pytest.approx(frozen_row["rmse"], rel=1e-12)
        assert metrics["nrmse"] == pytest.approx(frozen_row["nrmse"], rel=1e-12)
        assert metrics["r2"] == pytest.approx(frozen_row["r2"], rel=1e-12)
