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
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import evaluation as eval_mod

from .data import DatasetError, HorizonConfig, label_cutoff, load_dataset
from .model import ModelConfig
from .profiles import fluss_probability
from .sampling import parse_scheme
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

class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


def _field_defaults(cls) -> dict:
    """A config dataclass's field defaults; a nested config is a section of its own."""
    return {f.name: f.default for f in fields(cls)
            if f.default is not MISSING and not is_dataclass(f.default)}


DEFAULT_CONFIG: dict = {
    "gen": _field_defaults(GenConfig),
    "horizon": _field_defaults(HorizonConfig),
    "model": {"variant": "proposed", **_field_defaults(ModelConfig)},
    "train": _field_defaults(TrainConfig),
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


def _validate_scheme(text: str) -> None:
    try:
        parse_scheme(text)
    except ValueError as err:
        raise UsageError(str(err)) from err


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
    model_cfg = ModelConfig.for_data(dataset, horizon, **config["model"])
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
    # The checkpoint's horizon and model are what runs; a given config must agree.
    model = {k: getattr(model_cfg, k) for k in DEFAULT_CONFIG["model"]}
    if args.config is not None and _horizon_from(config) != train_cfg.horizon:
        raise ConfigError(
            f"config horizon {config['horizon']} disagrees with the checkpoint's "
            f"{asdict(train_cfg.horizon)}"
        )
    if args.config is not None and config["model"] != model:
        raise ConfigError(
            f"config model {config['model']} disagrees with the checkpoint's {model}"
        )
    if args.scheme is not None:
        train_cfg = replace(train_cfg, scheme=args.scheme)
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
    state.log.write_csv(
        out / "predictions.csv", dataset, train_cfg.horizon,
        label_cutoff(state.current_day, train_cfg.horizon, dataset.hours),
    )
    save_checkpoint(state, out / "state.bin", model_cfg, train_cfg)
    merged = dict(config)
    merged["horizon"] = asdict(train_cfg.horizon)
    merged["model"] = model
    merged["train"] = {k: v for k, v in asdict(train_cfg).items() if k != "horizon"}
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
    # the segment scheme's windows are lookback hours long
    window = _horizon_from(config).lookback if args.window is None else args.window
    curve = fluss_probability(record.features, window)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["position,cac_sum,p"]
    for pos, (cac, p) in enumerate(zip(curve.arc_sum.tolist(), curve.p.tolist())):
        lines.append(f"{pos},{cac!r},{p!r}")
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
    p.add_argument("--window", type=int)
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
