"""Command-line front door wiring the generator, trainer and benchmark.

Configuration comes from an optional JSON file with flat per-section keys,
overridden by command-line flags; unknown keys are rejected before any work
starts.  Every run writes a ``run_manifest.json`` (config hash, seed,
versions) beside its outputs so identical manifests imply identical outputs.

Exit codes: 0 success, 1 usage error, 2 data/config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import evaluation as eval_mod

from .data import DatasetError, HorizonConfig, load_dataset
from .model import ModelConfig
from .profiles import fluss_probability, summed_arc_curve
from .sampling import NONTEMPORAL_SCHEMES, TEMPORAL_SCHEMES, parse_scheme
from .synthgen import GenConfig, generate
from .trainer import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    DatasetIndex,
    TrainConfig,
    load_checkpoint,
    online_step,
    save_checkpoint,
    train_offline,
)

HOURS_PER_DAY = 24


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


DEFAULT_CONFIG: dict = {
    "gen": {
        "n_entities": 30,
        "n_clusters": 3,
        "d": 6,
        "k": None,
        "days": 540,
        "drift_kind": "none",
        "drift_day": None,
        "scale_spread": 4.0,
        "noise_level": 0.1,
        "outlier_rate": 0.02,
        "entity_jitter": 0.1,
        "seed": 0,
    },
    "horizon": {
        "lookback": 168,
        "backward": 24,
        "forward": 24,
        "label_delay_days": 90,
    },
    "model": {
        "variant": "proposed",
        "embed_dim": 64,
        "conv_channels": 64,
        "kernel_width": 3,
        "n_blocks": 3,
        "bank_size": 16,
        "shape_loss_weight": "auto",
    },
    "train": {
        "offline_epochs": 30,
        "learning_rate": 1e-3,
        "batch_size": 1024,
        "n_iter": 100,
        "seed": 0,
        "scheme": "uniform:uniform",
        "offline_days": 365,
        "error_subsample": 10000,
        "dynamics_window": 10,
    },
    "benchmark": {
        "variants": ["base", "base_inter", "proposed"],
        "schemes": ["uniform:uniform", "segment:similar"],
        "days": 30,
    },
}


def load_config(path: str | None) -> dict:
    """Defaults merged with the JSON file at ``path``; unknown keys rejected."""
    config = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is None:
        return config
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for section, values in payload.items():
        if section not in config:
            raise ConfigError(f"{path}: unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        for key, value in values.items():
            if key not in config[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            config[section][key] = value
    return config


def _config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _blas_versions() -> dict:
    """The BLAS build numpy links and the thread settings this process sees.

    Float sums in the BLAS kernels follow the build and the thread count, so
    outputs repeat bitwise only when both match.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {
            var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def write_manifest(out_dir: Path, command: str, config: dict, seed: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": command,
        "config": config,
        "config_hash": _config_hash(config),
        "seed": seed,
        "versions": {
            "driftcast": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            **_blas_versions(),
        },
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _horizon_from(config: dict) -> HorizonConfig:
    return HorizonConfig(**config["horizon"])


def _train_cfg_from(config: dict) -> TrainConfig:
    return TrainConfig(horizon=_horizon_from(config), **config["train"])


def _model_cfg_from(config: dict, dataset, horizon: HorizonConfig) -> ModelConfig:
    return ModelConfig(
        n_features=dataset.n_features,
        interaction_dim=dataset.interaction_dim,
        lookback=horizon.lookback,
        horizon=horizon.horizon,
        **config["model"],
    )


def _validate_scheme(text: str) -> str:
    if text == "frozen":
        return text
    try:
        parse_scheme(text)
    except ValueError as err:
        raise UsageError(
            f"{err}\nvalid temporal rules: {', '.join(TEMPORAL_SCHEMES)} "
            f"(fixed as fixedN, e.g. fixed90)\n"
            f"valid non-temporal rules: {', '.join(NONTEMPORAL_SCHEMES)}"
        ) from err
    return text


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _cmd_gen_data(args, config) -> int:
    gen = config["gen"]
    for flag, key in (
        ("entities", "n_entities"), ("clusters", "n_clusters"), ("days", "days"),
        ("drift", "drift_kind"), ("drift_day", "drift_day"), ("seed", "seed"),
        ("features", "d"), ("scale_spread", "scale_spread"),
        ("noise", "noise_level"), ("outlier_rate", "outlier_rate"),
    ):
        value = getattr(args, flag)
        if value is not None:
            gen[key] = value
    try:
        cfg = GenConfig(**gen)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid generator config: {err}") from err
    out = Path(args.out)
    generate(cfg, out)
    write_manifest(out, "gen-data", config, cfg.seed)
    print(f"wrote dataset to {out}")
    return 0


def _cmd_train_offline(args, config) -> int:
    if args.seed is not None:
        config["train"]["seed"] = args.seed
    dataset = load_dataset(args.data)
    horizon = _horizon_from(config)
    train_cfg = _train_cfg_from(config)
    model_cfg = _model_cfg_from(config, dataset, horizon)
    state = train_offline(dataset, model_cfg, train_cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(state, out, model_cfg, train_cfg)
    write_manifest(out.parent, "train-offline", config, train_cfg.seed)
    print(f"trained offline for {train_cfg.offline_epochs} epochs, "
          f"final loss {state.final_train_loss:.6f}; checkpoint at {out}")
    return 0


def _cmd_run_online(args, config) -> int:
    dataset = load_dataset(args.data)
    state, model_cfg, train_cfg = load_checkpoint(args.ckpt)
    if args.config is not None and _horizon_from(config) != train_cfg.horizon:
        raise ConfigError(
            f"config horizon {config['horizon']} disagrees with the checkpoint's "
            f"{asdict(train_cfg.horizon)}"
        )
    if args.scheme is not None:
        train_cfg = replace(train_cfg, scheme=_validate_scheme(args.scheme))
    if state.current_day + args.days > dataset.days:
        raise ConfigError(
            f"cannot run {args.days} days from day {state.current_day}: "
            f"dataset spans {dataset.days} days"
        )
    index = DatasetIndex(dataset, train_cfg.horizon)
    for _ in range(args.days):
        online_step(state, dataset, model_cfg, train_cfg, index)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    labeled_end = max(
        0, (state.current_day - train_cfg.label_delay_days) * HOURS_PER_DAY
    )
    state.log.write_csv(
        out / "predictions.csv", dataset, train_cfg.horizon,
        min(labeled_end, dataset.hours),
    )
    save_checkpoint(state, out / "state.bin", model_cfg, train_cfg)
    merged = dict(config)
    merged["horizon"] = asdict(train_cfg.horizon)
    merged["train"] = train_cfg.to_dict()
    write_manifest(out, "run-online", merged, train_cfg.seed)
    print(f"ran {args.days} online days with scheme {train_cfg.scheme}; "
          f"log at {out / 'predictions.csv'}")
    return 0


def _cmd_benchmark(args, config) -> int:
    dataset = load_dataset(args.data)
    bench = config["benchmark"]
    for scheme in bench["schemes"]:
        _validate_scheme(scheme)
    train_cfg = _train_cfg_from(config)
    result = eval_mod.benchmark(
        dataset,
        bench["variants"],
        bench["schemes"],
        train_cfg,
        bench["days"],
        model_kwargs={k: v for k, v in config["model"].items() if k != "variant"},
    )
    out = Path(args.out)
    result.write(out)
    write_manifest(out, "benchmark", config, train_cfg.seed)
    print(f"benchmark grid written to {out}")
    return 0


def _cmd_segment(args, config) -> int:
    dataset = load_dataset(args.data)
    try:
        record = dataset.record(args.entity)
    except KeyError as err:
        raise ConfigError(f"unknown entity {args.entity!r}") from err
    window = args.window
    cac_sum = summed_arc_curve(record.features, window)
    curve = fluss_probability(record.features, window)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["position,cac_sum,p"]
    for pos in range(len(curve.p)):
        lines.append(f"{pos},{float(cac_sum[pos])!r},{float(curve.p[pos])!r}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(out.parent, "segment", config, config["gen"]["seed"])
    print(f"segmentation curve for {args.entity} written to {out}")
    return 0


def _cmd_evaluate(args, config) -> int:
    dataset = load_dataset(args.data)
    try:
        log, offsets = eval_mod.read_predictions(args.pred, dataset)
    except (ValueError, KeyError, OSError) as err:
        raise ConfigError(f"cannot read predictions: {err}") from err
    if len(log) == 0:
        raise ConfigError("no evaluable prediction windows found")
    # The predictions' own offsets give the horizon they were made with.
    configured = _horizon_from(config)
    horizon = replace(configured, backward=-offsets.start, forward=offsets.stop)
    if args.config is not None and horizon != configured:
        raise ConfigError(
            f"config horizon backward/forward {configured.backward}/{configured.forward} "
            f"disagrees with the predictions' {horizon.backward}/{horizon.forward}"
        )
    preds, truths = eval_mod.windows_from_log(log, dataset, horizon)
    if len(preds) == 0:
        raise ConfigError("no evaluable prediction windows found")
    report = eval_mod.compute_metrics(preds, truths)
    payload = {
        "rmse": report.rmse,
        "nrmse": report.nrmse,
        "r2": report.r2,
        "n_windows": report.n_windows,
        "degenerate_windows_skipped": report.degenerate_windows_skipped,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


# --------------------------------------------------------------------------
# Parser and entry point
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="driftcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--entities", type=int)
    p.add_argument("--clusters", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--drift", choices=["none", "abrupt", "incremental"])
    p.add_argument("--drift-day", dest="drift_day", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--scale-spread", dest="scale_spread", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--outlier-rate", dest="outlier_rate", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train-offline", help="offline-train a model checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("run-online", help="run daily online updates from a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scheme")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")

    p = sub.add_parser("benchmark", help="run the scheme-by-variant benchmark grid")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)

    p = sub.add_parser("segment", help="write an entity's segmentation curve")
    p.add_argument("--data", required=True)
    p.add_argument("--entity", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=168)
    p.add_argument("--config")

    p = sub.add_parser("evaluate", help="score a prediction log against a dataset")
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--config")
    return parser


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-offline": _cmd_train_offline,
    "run-online": _cmd_run_online,
    "benchmark": _cmd_benchmark,
    "segment": _cmd_segment,
    "evaluate": _cmd_evaluate,
}


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(getattr(args, "config", None))
        if getattr(args, "scheme", None) is not None:
            _validate_scheme(args.scheme)
        return _COMMANDS[args.command](args, config)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ConfigError, DatasetError, CheckpointVersionError,
            CheckpointIntegrityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
