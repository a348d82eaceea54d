"""The benchmark's workloads and the closed loop that drives them.

Each run generates its workload's fixed dataset and trains offline, then
repeats whole rounds of the same operations until the run's seconds are used
up, then trains offline again (a second timing, which must repeat the first
bitwise).  A round is one (variant, scheme) cell of online days started from
the offline state.  On ``desk-grid`` a round is one ``evaluation.benchmark``
grid, which trains offline itself, and the grid's checked cell runs once
more on its own at the end.
A simulated day starts when the previous one ends, and after each day the
run's artefacts are written and read back, as a deployment that keeps its
state on disk would.  Rounds are identical, so every round's scores repeat
bitwise and failures are the same share of every run.

Each round gives one value per timing, the mean of its samples in that round
(a round's days differ in cost, so a median within it would jump between
days); a run reports the least of its rounds' values.  The host this was
tuned on slows a whole round by up to 1.8x when its load rises and never
speeds one up, so the least disturbed round is the steadiest figure.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from driftcast import cli, data, evaluation, model, profiles, synthgen, trainer

import checks

HOURS_PER_DAY = 24
IO_REPEATS = 3       # artefact round trips timed after each online day
TIMINGS = ("offline_train_s", "online_day_s", "grid_s", "artefact_io_s")

# The acceptance suite's criterion-8 desk dataset, horizon, model and
# offline training seed.  Datasets are fixed, and so is the offline seed
# where the workload names one, so accuracy compares across runs; the run's
# --seed drives the online phase (batch and subsample draws).
DESK_GEN = dict(seed=33, n_entities=20, n_clusters=3, d=1, days=125, noise_level=0.08,
                outlier_rate=0.08, scale_spread=4.0, drift_kind="abrupt",
                drift_day=64, entity_jitter=0.1)
DESK_HORIZON = dict(lookback=48, backward=24, forward=24, label_delay_days=15)
DESK_MODEL = dict(embed_dim=16, conv_channels=16, kernel_width=3, n_blocks=2,
                  bank_size=8)
DESK_TRAIN = dict(offline_epochs=1, learning_rate=1e-3, batch_size=128, n_iter=20,
                  offline_days=60, error_subsample=3000)
DESK_OFFLINE_SEED = 13
# The single-cell desk workloads start online at day 75, so the labelled
# prefix that segment:similar profiles each day is 1440 hours long: long
# enough for the profiles to outweigh the day's training steps.
DESK_LATE_TRAIN = dict(DESK_TRAIN, offline_days=75)

# cli.DEFAULT_CONFIG horizon, model and batch on a small dataset whose offline
# span holds just over one batch of 1024 candidates.
PAPER_MODEL = {k: v for k, v in cli.DEFAULT_CONFIG["model"].items() if k != "variant"}
PAPER_TRAIN = {k: v for k, v in cli.DEFAULT_CONFIG["train"].items()
               if k not in ("seed", "scheme")}
PAPER_TRAIN.update(offline_epochs=1, n_iter=1, offline_days=107)
PAPER_GEN = dict(cli.DEFAULT_CONFIG["gen"], n_entities=5, days=110)
PAPER_OFFLINE_SEED = cli.DEFAULT_CONFIG["train"]["seed"]
GRAD_CHECK_EXAMPLES = 4
VARIANT = "proposed"   # the single-cell workloads' model, and desk-grid's checked cell


@dataclass(frozen=True)
class Workload:
    name: str
    gen: dict
    horizon: dict
    model: dict
    train: dict
    scheme: str
    days: int                       # online days per cell
    offline_seed: int               # the fixed seed of offline training
    online_seed: int | None = None  # None: the run's --seed
    grid_variants: tuple = ()
    grid_schemes: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-uniform", DESK_GEN, DESK_HORIZON, DESK_MODEL, DESK_LATE_TRAIN,
                 "uniform:uniform", days=5, offline_seed=DESK_OFFLINE_SEED),
        Workload("desk-segment-similar", DESK_GEN, DESK_HORIZON, DESK_MODEL,
                 DESK_LATE_TRAIN, "segment:similar", days=3,
                 offline_seed=DESK_OFFLINE_SEED),
        # evaluation.benchmark trains and runs every cell with one seed
        Workload("desk-grid", DESK_GEN, DESK_HORIZON, DESK_MODEL, DESK_TRAIN,
                 "segment:similar", days=2, offline_seed=DESK_OFFLINE_SEED,
                 online_seed=DESK_OFFLINE_SEED,
                 grid_variants=("base", "proposed"),
                 grid_schemes=("uniform:uniform", "segment:similar",
                               "uniform:low_error")),
        Workload("paper-scale", PAPER_GEN, dict(cli.DEFAULT_CONFIG["horizon"]),
                 PAPER_MODEL, PAPER_TRAIN, "uniform:uniform", days=1,
                 offline_seed=PAPER_OFFLINE_SEED),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload at reduced size, for a check that runs in seconds."""
    gen = dict(w.gen, n_entities=min(w.gen["n_entities"], 6))
    train = dict(w.train, error_subsample=500)
    mdl = dict(w.model)
    if w.name == "paper-scale":
        gen["n_entities"] = 3
        train["batch_size"] = 64
        mdl.update(embed_dim=8, conv_channels=8, bank_size=4)
    else:
        gen.update(days=60, drift_day=40)
        train["offline_days"] = 30
    return replace(w, gen=gen, train=train, model=mdl, days=min(w.days, 2))


@dataclass
class RunResult:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)   # messages of failed operations
    check_failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _now() -> float:
    return time.perf_counter()


def _day_ok(pred, n_entities: int, horizon: int) -> bool:
    return pred.m_hat.shape == (n_entities, horizon) and bool(np.isfinite(pred.m_hat).all())


class Runner:
    """One run of one workload; ``tracer`` is None in the untraced run."""

    def __init__(self, workload: Workload, seed: int, seconds: float, out_dir: Path,
                 tracer=None):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.out = out_dir
        self.tracer = tracer
        self.res = RunResult()
        self.samples: dict[str, list[float]] = {name: [] for name in TIMINGS}  # this round's
        self.rounds: dict[str, list[float]] = {name: [] for name in TIMINGS}   # a mean per round
        self.csv_path = out_dir / "predictions.csv"
        self.ckpt_path = out_dir / "state.bin"
        self.artefacts = None
        self.grid_rows: list[dict] = []

    def _paused(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def _check(self, label: str, failures: list[str]) -> None:
        self.res.check_failures += [f"{label}: {f}" for f in failures]

    # -- set-up ----------------------------------------------------------------

    def setup(self, t0: float) -> None:
        """Generate and load the dataset and build the index; times from ``t0``."""
        w = self.w
        self.data_dir = self.out / "data"
        if self.data_dir.exists():
            shutil.rmtree(self.data_dir)
        synthgen.generate(synthgen.GenConfig(**w.gen), self.data_dir)
        self.dataset = data.load_dataset(self.data_dir)
        self.horizon = data.HorizonConfig(**w.horizon)
        self.index = trainer.DatasetIndex(self.dataset, self.horizon)
        self.res.metrics["setup_s"] = _now() - t0
        self.model_cfg = model.ModelConfig(
            variant=VARIANT, n_features=self.dataset.n_features,
            interaction_dim=self.dataset.interaction_dim,
            lookback=self.horizon.lookback, horizon=self.horizon.horizon, **w.model,
        )
        online_seed = self.seed if w.online_seed is None else w.online_seed
        self.train_cfg = trainer.TrainConfig(
            seed=online_seed, horizon=self.horizon, scheme=w.scheme, **w.train
        )
        self.offline_cfg = replace(self.train_cfg, seed=w.offline_seed)

    # -- the measured work -------------------------------------------------------

    def run(self) -> RunResult:
        w, m = self.w, self.res.metrics
        scores = []
        if not w.grid_schemes:
            self._train_offline()
            self._close_round()
        loop_start = _now()
        before = self.tracer.snapshot() if self.tracer else None
        while True:
            if w.grid_schemes:
                scores.append(self._grid_round())
            else:
                start = _now()
                state, report, io_s = self.cell()
                self.samples["grid_s"].append(_now() - start - io_s)
                scores.append((report.rmse, report.nrmse) if report else None)
            self._close_round()
            if _now() - loop_start >= self.seconds:
                break
        if self.tracer:
            self.round_window = (before, self.tracer.snapshot())
        if w.grid_schemes:
            # the grid's checked cell, run standalone from a fresh offline state;
            # its timings are not a grid round's and are left out
            self._train_offline()
            state, self.standalone, _ = self.cell()
            for values in self.samples.values():
                values.clear()
        else:
            first = self.offline
            self._train_offline()
            self._close_round()
            self._check("offline training repeated",
                        checks.compare_states(first, self.offline))

        if len(set(scores)) > 1:
            self._check("determinism", [f"rounds scored differently: {sorted(set(scores))}"])
        if scores and scores[0] is not None:
            m["rmse"], m["nrmse"] = scores[0]
        for name, values in self.rounds.items():
            m[name] = min(values) if values else math.nan
        self.res.info.update(rounds=len(scores), per_round=self.rounds)

        with self._paused():
            if self.artefacts:
                self._artefact_checks(state, *self.artefacts)
            self._property_checks(state)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self.res

    def _close_round(self) -> None:
        for name, values in self.samples.items():
            if values:
                self.rounds[name].append(statistics.fmean(values))
            values.clear()

    def _train_offline(self) -> None:
        t = _now()
        self.offline = trainer.train_offline(self.dataset, self.model_cfg, self.offline_cfg)
        self.samples["offline_train_s"].append(_now() - t)

    def cell(self):
        """The workload's cell of online days from the offline state, scored.

        Returns the final state, its score and the time spent on artefacts.
        """
        state = trainer.clone_for_online(self.offline, self.train_cfg.seed)
        n = len(self.dataset.records)
        io_s = 0.0
        for _ in range(self.w.days):
            self.res.attempted += 1
            day = state.current_day
            try:
                t = _now()
                pred = trainer.online_step(state, self.dataset, self.model_cfg,
                                           self.train_cfg, self.index)
                self.samples["online_day_s"].append(_now() - t)
                io_s += self._persist(state, self.model_cfg, self.train_cfg)
            except Exception as err:  # a failed operation is counted, not fatal
                self.res.failed += 1
                self.res.failures.append(f"day {day}: {type(err).__name__}: {err}")
                continue
            if not _day_ok(pred, n, self.horizon.horizon):
                self.res.failed += 1
                self.res.failures.append(f"day {day}: bad estimates {pred.m_hat.shape}")
        preds, truths = evaluation.windows_from_log(state.log, self.dataset, self.horizon)
        report = evaluation.compute_metrics(preds, truths) if len(preds) else None
        return state, report, io_s

    @contextmanager
    def _timed_inside_grid(self):
        """Time the offline trainings and online days ``evaluation.benchmark`` runs.

        The wrappers sit where ``benchmark`` and ``run_simulation`` look the
        functions up.  After each day the cell's artefacts are written and
        read back as in the other workloads; that time is kept out of the
        grid's.  Yields a one-item list holding the artefact time.
        """
        train_offline, online_step = trainer.train_offline, trainer.online_step
        io_s = [0.0]

        def timed_train_offline(*args, **kwargs):
            t = _now()
            out = train_offline(*args, **kwargs)
            self.samples["offline_train_s"].append(_now() - t)
            return out

        def timed_online_step(state, dataset, model_cfg, train_cfg, *args, **kwargs):
            t = _now()
            out = online_step(state, dataset, model_cfg, train_cfg, *args, **kwargs)
            self.samples["online_day_s"].append(_now() - t)
            io_s[0] += self._persist(state, model_cfg, train_cfg)
            return out

        trainer.train_offline, trainer.online_step = timed_train_offline, timed_online_step
        try:
            yield io_s
        finally:
            trainer.train_offline, trainer.online_step = train_offline, online_step

    def _grid_round(self):
        w = self.w
        cells = len(w.grid_variants) * len(w.grid_schemes)
        self.res.attempted += cells
        with self._timed_inside_grid() as io_s:
            t = _now()
            try:
                result = evaluation.benchmark(
                    self.dataset, list(w.grid_variants), list(w.grid_schemes),
                    self.train_cfg, w.days, model_kwargs=dict(w.model),
                )
            except Exception as err:  # the grid stops at its first failed cell
                self.res.failed += cells
                self.res.failures.append(f"grid: {type(err).__name__}: {err}")
                return None
            finally:
                self.samples["grid_s"].append(_now() - t - io_s[0])
        bad = [r for r in result.rows
               if not all(math.isfinite(r[k]) for k in ("rmse", "nrmse", "r2"))]
        self.res.failed += len(bad)
        self.res.failures += [f"grid cell {r['variant']}/{r['scheme']}: non-finite scores"
                              for r in bad]
        self.grid_rows = result.rows
        with self._paused():
            self._check("rank tables",
                        checks.check_rank_tables(result.tables, len(w.grid_schemes)))
        return (float(np.mean([r["rmse"] for r in result.rows])),
                float(np.mean([r["nrmse"] for r in result.rows])))

    # -- artefacts -------------------------------------------------------------

    def _labeled_end(self, current_day: int) -> int:
        end = (current_day - self.horizon.label_delay_days) * HOURS_PER_DAY
        return min(max(0, end), self.dataset.hours)

    def _persist(self, state, model_cfg, train_cfg) -> float:
        """The timed artefact round trips after one day; returns their time."""
        total = 0.0
        for _ in range(IO_REPEATS):
            t = _now()
            self.artefacts = self._write_and_read(state, model_cfg, train_cfg)
            dt = _now() - t
            self.samples["artefact_io_s"].append(dt)
            total += dt
        return total

    def _write_and_read(self, state, model_cfg, train_cfg):
        """Write predictions.csv and state.bin, load both back, score the CSV."""
        labeled_end = self._labeled_end(state.current_day)
        state.log.write_csv(self.csv_path, self.dataset, self.horizon, labeled_end)
        trainer.save_checkpoint(state, self.ckpt_path, model_cfg, train_cfg)
        loaded, _, _ = trainer.load_checkpoint(self.ckpt_path)
        log = evaluation.read_prediction_csv(self.csv_path, self.dataset)
        report = evaluation.compute_metrics(
            *evaluation.windows_from_log(log, self.dataset, self.horizon)
        )
        return loaded, report, labeled_end

    def _artefact_checks(self, state, loaded, report, labeled_end) -> None:
        first_day = self.train_cfg.offline_days
        ids = [r.entity_id for r in self.dataset.records]
        expected = {(d, e) for d in range(first_day, state.current_day) for e in ids}
        raw = checks.read_metric_columns(self.data_dir, ids)
        failures, rmse, nrmse = checks.score_predictions(
            self.csv_path, raw, self.horizon.backward, self.horizon.forward,
            labeled_end, expected,
        )
        self._check("predictions.csv", failures)
        self._check("score of predictions.csv",
                    checks.compare_scores("csv", (rmse, nrmse), report))
        in_memory = evaluation.compute_metrics(
            *evaluation.windows_from_log(state.log, self.dataset, self.horizon)
        )
        self._check("score of the run", checks.compare_scores("run", (rmse, nrmse), in_memory))
        self._check("state.bin", checks.compare_states(state, loaded))

    # -- properties a faster layer must keep ----------------------------------

    def _property_checks(self, state) -> None:
        w = self.w
        if w.scheme.startswith("segment:"):
            last_day = state.current_day - 1
            labeled_end = self._labeled_end(last_day)
            m = self.horizon.lookback
            reference = {
                e: profiles.fluss_probability(r.features[:labeled_end], m).p
                for e, r in enumerate(self.dataset.records)
            }
            self._check("curves", checks.compare_curves(state.curves, reference))
            series = self.dataset.records[0].features[:labeled_end, 0]
            mpi = profiles.matrix_profile_index(series, m)
            self._check("matrix profile index", checks.check_matrix_profile(
                series, m, mpi.nn_index, math.ceil(m / 2)))
        if w.grid_schemes:
            self._check("grid cell", self._compare_grid_cell())
        if w.name == "paper-scale":
            self._check("gradient", self._gradient_check())

    def _compare_grid_cell(self) -> list[str]:
        """The grid's cached-curve cell equals the standalone cell bitwise."""
        rows = [r for r in self.grid_rows
                if r["variant"] == VARIANT and r["scheme"] == self.w.scheme]
        if len(rows) != 1:
            return [f"grid has {len(rows)} cells for {VARIANT}/{self.w.scheme}"]
        return [f"{key}: grid {rows[0][key]!r} != standalone {getattr(self.standalone, key)!r}"
                for key in ("rmse", "nrmse", "r2")
                if rows[0][key] != getattr(self.standalone, key)]

    def _gradient_check(self) -> list[str]:
        cands = trainer.build_candidates(
            self.dataset, self._labeled_end(self.train_cfg.offline_days), self.horizon
        )
        pick = np.linspace(0, len(cands) - 1, GRAD_CHECK_EXAMPLES).astype(np.int64)
        X, I, Y = self.index.gather(cands.take(pick))
        params, gamma = self.offline.params, self.offline.gamma

        def loss_at(p):
            return model.batch_loss_and_grads(p, self.model_cfg, X, I, Y, gamma)[0]

        _, grads = model.batch_loss_and_grads(params, self.model_cfg, X, I, Y, gamma)
        direction = checks.random_direction(params, np.random.default_rng(self.seed))
        return checks.check_directional_derivative(loss_at, params, grads, direction)
