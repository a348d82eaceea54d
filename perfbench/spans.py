"""Span tracer for the traced benchmark run.

Each traced function is replaced, at the name its caller looks it up by, with
a wrapper that records one span (name, start, end, parent span).  Spans are
kept in memory and written out when the run ends.  A function's self time is
its span's duration minus the time covered by its child spans.

A function that a later change deletes or renames is listed in ``missing``
and its metrics are left out; the rest of the run is traced as before.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

# (metric name "<module>.<function>", module the caller looks it up in,
#  attribute path in that module).  The metric name carries the module that
# defines the function; the wrapper sits where the caller finds it.
TRACED = [
    ("synthgen.generate", "driftcast.synthgen", "generate"),
    ("data.load_dataset", "driftcast.data", "load_dataset"),
    ("nnkernel.conv1d_causal", "driftcast.model", "conv1d_causal"),
    ("nnkernel.conv1d_causal_backward", "driftcast.model", "conv1d_causal_backward"),
    ("nnkernel.dense", "driftcast.model", "dense"),
    ("nnkernel.dense_backward", "driftcast.model", "dense_backward"),
    ("nnkernel.adam_step", "driftcast.trainer", "adam_step"),
    ("model.batch_loss_and_grads", "driftcast.model", "batch_loss_and_grads"),
    ("model.batch_predict", "driftcast.model", "batch_predict"),
    ("model.batch_losses", "driftcast.model", "batch_losses"),
    ("profiles.fluss_probability", "driftcast.trainer", "fluss_probability"),
    ("profiles.matrix_profile_index", "driftcast.profiles", "matrix_profile_index"),
    ("profiles.mass", "driftcast.sampling", "mass"),
    ("sampling.refresh_error_cache", "driftcast.sampling", "refresh_error_cache"),
    ("sampling.temporal_weights", "driftcast.sampling", "temporal_weights"),
    ("sampling.nontemporal_weights", "driftcast.sampling", "nontemporal_weights"),
    ("sampling.combine", "driftcast.sampling", "combine"),
    ("sampling.sample_batch", "driftcast.sampling", "sample_batch"),
    ("trainer.DatasetIndex.gather", "driftcast.trainer", "DatasetIndex.gather"),
    ("trainer.build_candidates", "driftcast.trainer", "build_candidates"),
    ("trainer.online_step", "driftcast.trainer", "online_step"),
    ("trainer.train_offline", "driftcast.trainer", "train_offline"),
    ("trainer.save_checkpoint", "driftcast.trainer", "save_checkpoint"),
    ("trainer.load_checkpoint", "driftcast.trainer", "load_checkpoint"),
    ("trainer.PredictionLog.write_csv", "driftcast.trainer", "PredictionLog.write_csv"),
    ("evaluation.read_prediction_csv", "driftcast.evaluation", "read_prediction_csv"),
    ("evaluation.windows_from_log", "driftcast.evaluation", "windows_from_log"),
    ("evaluation.compute_metrics", "driftcast.evaluation", "compute_metrics"),
    ("evaluation.benchmark", "driftcast.evaluation", "benchmark"),
]

LAYERS = ("synthgen", "data", "nnkernel", "model", "profiles", "sampling",
          "trainer", "evaluation")

# Counts recorded at the same boundaries as the spans.
COUNTERS = (
    "nnkernel.conv.gflop",
    "trainer.gather.rows",
    "trainer.examples_consumed",
    "trainer.checkpoint.bytes",
    "trainer.predictions_csv.bytes",
)
CONV_FUNCTIONS = ("nnkernel.conv1d_causal", "nnkernel.conv1d_causal_backward")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for name, _, _ in TRACED:
        names.append((f"{name}.calls", "count"))
        names.append((f"{name}.self_s", "s"))
    units = {"gflop": "GFLOP", "bytes": "bytes"}
    names += [(c, units.get(c.rsplit(".", 1)[1], "count")) for c in COUNTERS]
    names.append(("nnkernel.conv.gflop_per_s", "GFLOP/s"))
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    return names


def _conv_gflop(args, backward: bool) -> float:
    """2 * rows * c_in * width * c_out per GEMM; the backward pass runs two."""
    x, K = args[0], args[1]
    c_out, c_in, width = K.shape
    rows = x.size // c_in
    return (2 if backward else 1) * 2.0 * rows * c_in * width * c_out / 1e9


class Tracer:
    """Wraps the traced functions and accumulates spans, self times and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {c: 0.0 for c in COUNTERS}
        self.missing: list[str] = []
        self._stack: list[list] = []   # [span index, start, child time]
        self._undo: list[tuple[object, str, object]] = []
        self._paused = False
        self.started = None
        self.ended = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr_path in TRACED:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self.calls[name] = 0
            self.self_s[name] = 0.0
            setattr(owner, attr, self._wrap(name, original))
            self._undo.append((owner, attr, original))
        self.started = time.perf_counter()

    def uninstall(self) -> None:
        self.ended = time.perf_counter()
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without charging them to a layer."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            before = tracer._before(name, args)
            frame = [idx, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - frame[1]
                tracer.spans[idx] = (name, frame[1], end, parent)
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += dur
            tracer._after(name, args, before)
            return result

        return wrapper

    # -- counters ------------------------------------------------------------

    def _before(self, name: str, args):
        if name == "nnkernel.conv1d_causal":
            self.counts["nnkernel.conv.gflop"] += _conv_gflop(args, backward=False)
        elif name == "nnkernel.conv1d_causal_backward":
            self.counts["nnkernel.conv.gflop"] += _conv_gflop(args, backward=True)
        elif name == "trainer.DatasetIndex.gather":
            self.counts["trainer.gather.rows"] += len(args[1])
        elif name == "trainer.online_step":
            return args[0].examples_consumed
        return None

    def _after(self, name: str, args, before) -> None:
        if name == "trainer.online_step":
            self.counts["trainer.examples_consumed"] += args[0].examples_consumed - before
        elif name == "trainer.save_checkpoint":
            self.counts["trainer.checkpoint.bytes"] += os.path.getsize(args[1])
        elif name == "trainer.load_checkpoint":
            self.counts["trainer.checkpoint.bytes"] += os.path.getsize(args[0])
        elif name == "trainer.PredictionLog.write_csv":
            self.counts["trainer.predictions_csv.bytes"] += os.path.getsize(args[1])

    # -- results -------------------------------------------------------------

    @property
    def total_s(self) -> float:
        return self.ended - self.started

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; names of missing functions are left out."""
        out: dict[str, float] = {}
        for name, _, _ in TRACED:
            if name in self.missing:
                continue
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        conv_s = sum(self.self_s.get(n, 0.0) for n in CONV_FUNCTIONS)
        if conv_s > 0:
            out["nnkernel.conv.gflop_per_s"] = self.counts["nnkernel.conv.gflop"] / conv_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for n, s in self.self_s.items() if n.split(".")[0] == layer
            )
        return out

    def snapshot(self) -> tuple[float, dict[str, float]]:
        """The clock and the self times so far, to take shares over a window."""
        return time.perf_counter(), dict(self.self_s)

    def layer_shares(self, start=None, end=None) -> dict[str, float]:
        """Each layer's self time as a share of the wall time between snapshots.

        Without snapshots the window is the whole traced run.
        """
        t0, before = start or (self.started, {})
        t1, after = end or (self.ended, self.self_s)
        self_s = {n: v - before.get(n, 0.0) for n, v in after.items()}
        total = t1 - t0
        shares = {
            layer: sum(s for n, s in self_s.items() if n.split(".")[0] == layer) / total
            for layer in LAYERS
        }
        shares["untraced"] = 1.0 - sum(shares.values())
        shares["nnkernel.conv"] = sum(self_s.get(n, 0.0) for n in CONV_FUNCTIONS) / total
        return shares

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "origin": self.started,
            "missing": self.missing,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [n, s - self.started, e - self.started, p] for n, s, e, p in self.spans
            ],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
