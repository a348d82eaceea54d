import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from driftcast import evaluation as E
from driftcast import model as M
from driftcast import trainer as T
from driftcast.data import (
    HOURS_PER_DAY,
    Dataset,
    EntityRecord,
    HorizonConfig,
    label_cutoff,
    load_dataset,
)
from driftcast.synthgen import GenConfig, generate

HORIZON = HorizonConfig(lookback=24, backward=6, forward=6, label_delay_days=3)


def tiny_train_cfg(**over):
    base = dict(
        offline_epochs=2, learning_rate=1e-3, batch_size=32, n_iter=3,
        seed=7, scheme="uniform:uniform", offline_days=10,
        error_subsample=200, dynamics_window=4, horizon=HORIZON,
    )
    base.update(over)
    return T.TrainConfig(**base)


def tiny_model_cfg(dataset, variant="proposed"):
    return M.ModelConfig(
        variant=variant, n_features=dataset.n_features,
        interaction_dim=dataset.interaction_dim,
        lookback=HORIZON.lookback, horizon=HORIZON.horizon,
        embed_dim=6, conv_channels=6, kernel_width=3, n_blocks=1, bank_size=3,
    )


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("trainer") / "ds"
    generate(
        GenConfig(n_entities=6, n_clusters=2, d=2, days=40, seed=5,
                  noise_level=0.05, outlier_rate=0.0, scale_spread=2.0),
        root,
    )
    return load_dataset(root)


def params_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def logs_equal(a, b):
    return (
        np.array_equal(a.days, b.days)
        and np.array_equal(a.entity_idx, b.entity_idx)
        and np.array_equal(a.preds, b.preds)
    )


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_states_equal(a, b):
    """Every field of two simulation states is equal, arrays bitwise with their dtypes."""
    for name in ("current_day", "gamma", "examples_consumed", "final_train_loss"):
        assert getattr(a, name) == getattr(b, name), name
    assert list(a.params) == list(b.params) == list(b.adam)
    for name, p in a.params.items():
        assert same_array(p, b.params[name]), name
        sa, sb = a.adam[name], b.adam[name]
        assert same_array(sa.first_moment, sb.first_moment), name
        assert same_array(sa.second_moment, sb.second_moment), name
        assert (sa.step_count, sa.learning_rate) == (sb.step_count, sb.learning_rate), name
    for rng in ("rng_batches", "rng_subsample"):
        assert getattr(a, rng).bit_generator.state == getattr(b, rng).bit_generator.state
    assert (a.cache is None) == (b.cache is None)
    if a.cache is not None:
        assert same_array(a.cache.candidates.entity_idx, b.cache.candidates.entity_idx)
        assert same_array(a.cache.candidates.anchors, b.cache.candidates.anchors)
        assert same_array(a.cache.errors, b.cache.errors)
        assert (a.cache.anchor_cutoff, a.cache.day) == (b.cache.anchor_cutoff, b.cache.day)
    assert (a.dynamics is None) == (b.dynamics is None)
    if a.dynamics is not None:
        assert a.dynamics.capacity == b.dynamics.capacity
        assert same_array(a.dynamics.snapshots, b.dynamics.snapshots)
        assert same_array(a.dynamics.counts, b.dynamics.counts)
    assert sorted(a.curves) == sorted(b.curves)
    assert all(same_array(c, b.curves[e]) for e, c in a.curves.items())
    assert same_array(a.profile, b.profile)
    for name in ("days", "entity_idx", "preds"):
        assert same_array(getattr(a.log, name), getattr(b.log, name)), name


def write_csv_rowwise(log, path, dataset, horizon, labeled_end):
    """One line at a time: the reference for ``PredictionLog.write_csv``."""
    lines = ["day,entity_id,offset,predicted,actual_when_available"]
    for day, eidx, pred in zip(log.days, log.entity_idx, log.preds):
        record = dataset.records[eidx]
        anchor = day * HOURS_PER_DAY
        for pos, offset in enumerate(range(-horizon.backward, horizon.forward)):
            hour = anchor + offset
            actual = ""
            if hour < labeled_end:
                actual = repr(float(record.metric[hour]))
            lines.append(
                f"{day},{record.entity_id},{offset},{float(pred[pos])!r},{actual}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestTrainConfig:
    @pytest.mark.parametrize("days, delay, forward, accepted", [
        (15, 15, 24, False), (16, 15, 24, True), (1, 0, 24, True), (1, 0, 25, False),
    ])
    def test_fixed_window_must_reach_the_newest_label(self, days, delay, forward, accepted):
        horizon = HorizonConfig(lookback=24, backward=6, forward=forward,
                                label_delay_days=delay)
        scheme = f"fixed{days}:similar"
        if accepted:
            assert T.TrainConfig(scheme=scheme, horizon=horizon).scheme == scheme
        else:
            with pytest.raises(ValueError,
                               match=rf"{days}-day window.* {delay} days.* {forward} hours"):
                T.TrainConfig(scheme=scheme, horizon=horizon)

    def test_fixed90_never_holds_a_label_at_the_defaults(self):
        with pytest.raises(ValueError, match="90-day window"):
            T.TrainConfig(scheme="fixed90:uniform")
        assert T.TrainConfig(scheme="fixed91:uniform").scheme == "fixed91:uniform"


class TestTrainOffline:
    def test_deterministic(self, dataset):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg()
        s1 = T.train_offline(dataset, mc, tc)
        s2 = T.train_offline(dataset, mc, tc)
        assert params_equal(s1.params, s2.params)
        assert s1.final_train_loss == s2.final_train_loss

    def test_state_is_three_flat_vectors(self, dataset):
        mc = tiny_model_cfg(dataset)
        state = T.train_offline(dataset, mc, tiny_train_cfg())
        flat, opt = state.params.flat, state.optimizer
        assert list(state.params) == [name for name, _, _ in M._param_specs(mc)]
        assert all(np.shares_memory(p, flat) for p in state.params.values())
        assert opt.first_moment.shape == opt.second_moment.shape == flat.shape
        batches = -(-len(T.build_candidates(dataset, label_cutoff(10, HORIZON, dataset.hours),
                                            HORIZON)) // 32)
        assert opt.step_count == 2 * batches
        adam = state.adam
        assert list(adam) == list(state.params)
        for name, rec in adam.items():
            assert np.shares_memory(rec.first_moment, opt.first_moment)
            assert np.shares_memory(rec.second_moment, opt.second_moment)
            assert rec.first_moment.shape == state.params[name].shape
            assert (rec.step_count, rec.learning_rate) == (opt.step_count, opt.learning_rate)
            with pytest.raises(ValueError, match="read-only"):
                rec.first_moment[...] = 0.0
        with pytest.raises(TypeError):
            adam["embed.C"] = None

    def test_loss_decreases(self, dataset):
        mc = tiny_model_cfg(dataset)
        one = T.train_offline(dataset, mc, tiny_train_cfg(offline_epochs=1))
        five = T.train_offline(dataset, mc, tiny_train_cfg(offline_epochs=5))
        assert five.final_train_loss < one.final_train_loss

    def test_no_candidates_rejected(self, dataset):
        with pytest.raises(ValueError, match="no feasible"):
            T.train_offline(dataset, tiny_model_cfg(dataset),
                            tiny_train_cfg(offline_days=4))

    def test_gamma_auto_is_mean_window_variance(self, dataset):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg(offline_epochs=1)
        state = T.train_offline(dataset, mc, tc)
        labeled_end = (tc.offline_days - tc.horizon.label_delay_days) * 24
        cands = T.build_candidates(dataset, labeled_end, HORIZON)
        h = HORIZON.horizon
        expected = []
        for eidx, anchor in zip(cands.entity_idx, cands.anchors):
            window = dataset.records[eidx].metric[anchor - 6 : anchor + 6]
            expected.append(window.std() ** 2)
        assert state.gamma == pytest.approx(np.mean(expected), rel=1e-9)


class TestOnlineStep:
    def test_prediction_geometry(self, dataset):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg()
        state = T.train_offline(dataset, mc, tc)
        day_pred = T.online_step(state, dataset, mc, tc, T.DatasetIndex(dataset, tc.horizon))
        assert day_pred.day == tc.offline_days
        assert day_pred.m_hat.shape == (6, HORIZON.horizon)
        assert len(state.log) == 6
        assert state.current_day == tc.offline_days + 1

    def test_examples_consumed_counted_exactly(self, dataset):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg()
        log, state = T.run_simulation(dataset, mc, tc, n_days=4)
        assert state.examples_consumed == 4 * tc.n_iter * tc.batch_size

    def test_label_tamper_does_not_change_predictions(self, dataset):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg(scheme="uniform:low_error")
        n_days = 5
        log_clean, state = T.run_simulation(dataset, mc, tc, n_days)
        # corrupt every metric value inside the delay window of the final day
        final_labeled_end = (
            (tc.offline_days + n_days - 1 - tc.horizon.label_delay_days) * 24
        )
        tampered_records = []
        for record in dataset.records:
            metric = record.metric.copy()
            metric[final_labeled_end:] += 1e6
            tampered_records.append(
                EntityRecord(
                    entity_id=record.entity_id,
                    features=record.features,
                    metric=metric,
                    interactions=record.interactions,
                    start_timestamp=record.start_timestamp,
                )
            )
        tampered = Dataset(records=tuple(tampered_records), meta=dataset.meta)
        log_tampered, _ = T.run_simulation(tampered, mc, tc, n_days)
        assert logs_equal(log_clean, log_tampered)

    def test_frozen_mode_keeps_parameters(self, dataset):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg(scheme="frozen")
        offline = T.train_offline(dataset, mc, tc)
        before = {k: v.copy() for k, v in offline.params.items()}
        log, state = T.run_simulation(dataset, mc, tc, n_days=6, offline_state=offline)
        assert params_equal(state.params, before)
        assert len(log) == 6 * 6  # days x entities
        assert state.examples_consumed == 0


class TestWindowGeometry:
    @pytest.mark.parametrize("field, value", [("lookback", 500), ("horizon", 13)])
    def test_model_unlike_the_run_is_rejected(self, dataset, field, value):
        tc = tiny_train_cfg()
        good = tiny_model_cfg(dataset)
        bad = replace(good, **{field: value})
        with pytest.raises(ValueError, match="disagree"):
            T.train_offline(dataset, bad, tc)
        state = T.train_offline(dataset, good, tc)
        params = {k: v.copy() for k, v in state.params.items()}
        with pytest.raises(ValueError, match="disagree"):
            T.online_step(state, dataset, bad, tc, T.DatasetIndex(dataset, tc.horizon))
        assert state.current_day == tc.offline_days and len(state.log) == 0
        assert params_equal(state.params, params)


class TestPredictionLog:
    def test_csv_matches_the_rowwise_writer(self, dataset, tmp_path):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg()
        log, state = T.run_simulation(dataset, mc, tc, n_days=4)
        # the labeled end falls inside the last day's window
        inside = (state.current_day - 1) * HOURS_PER_DAY + 2
        odd = T.PredictionLog()
        values = [1e16, 1e-05, -0.0, 0.1 + 0.2, 1 / 3, -1e-300, 123456789.0, 2.5,
                  -7.0, 1e22, 5e-324, -1.0]
        odd.append_day(12, [0, 5], np.array([values, values[::-1]]))
        odd.append_day(13, [], np.empty((0, HORIZON.horizon)))
        odd.append_day(14, [3], np.array([values[6:] + values[:6]]))
        for case, (lg, labeled_end) in enumerate(
            [(log, inside), (odd, 12 * HOURS_PER_DAY + 2), (odd, 0), (T.PredictionLog(), 0)]
        ):
            fast, slow = tmp_path / f"fast{case}.csv", tmp_path / f"slow{case}.csv"
            lg.write_csv(fast, dataset, HORIZON, labeled_end)
            write_csv_rowwise(lg, slow, dataset, HORIZON, labeled_end)
            assert fast.read_bytes() == slow.read_bytes(), case
        text = (tmp_path / "fast1.csv").read_text()
        assert "1e+16" in text and "1e-05" in text and ",-0.0," in text

    def test_csv_read_back_is_bitwise(self, dataset, tmp_path):
        _, state = T.run_simulation(dataset, tiny_model_cfg(dataset), tiny_train_cfg(), n_days=4)
        odd = T.PredictionLog()
        values = [1e16, 1e-05, -0.0, 0.1 + 0.2, 1 / 3, -1e-300, 123456789.0, 2.5,
                  -7.0, 1e22, 5e-324, -1.0]
        odd.append_day(12, [0, 5], np.array([values, values[::-1]]))
        odd.append_day(14, [3], np.array([values[6:] + values[:6]]))
        for log in (state.log, odd, T.PredictionLog()):
            path = tmp_path / "pred.csv"
            log.write_csv(path, dataset, HORIZON, 10 * HOURS_PER_DAY)
            back, offsets = E.read_predictions(path, dataset)
            assert offsets == (range(-HORIZON.backward, HORIZON.forward) if len(log) else range(0))
            for name in ("days", "entity_idx", "preds"):
                assert same_array(getattr(back, name), getattr(log, name)), name

    def test_malformed_csv_rejected(self, dataset, tmp_path):
        path = tmp_path / "pred.csv"
        _, state = T.run_simulation(dataset, tiny_model_cfg(dataset), tiny_train_cfg(), n_days=2)
        state.log.write_csv(path, dataset, HORIZON, 0)
        header, *rows = path.read_text().splitlines()
        h = HORIZON.horizon
        first, second, third = rows[:h], rows[h : 2 * h], rows[2 * h : 3 * h]

        def field(row, col, value):
            parts = row.split(",")
            parts[col] = value
            return ",".join(parts)

        shifted = [field(r, 2, str(int(r.split(",")[2]) + h)) for r in rows]
        cases = [
            ("offset,day,entity_id,predicted,actual_when_available", rows, "header"),
            (header, [field(rows[0], 0, "1.5")] + rows[1:], "1.5"),
            (header, [field(rows[0], 2, "-5.5")] + rows[1:], "-5.5"),
            (header, [field(rows[3], 3, "x")] + rows, "'x'"),
            (header, rows[1:], "offsets"),
            # ragged blocks whose offsets still tile rows of h
            (header, first + second[: h // 2] + third[h // 2 :] + third, "offsets"),
            (header, rows + first, "more than once"),
            (header, [r for pair in zip(first, second) for r in pair], "more than once"),
            (header, first[::-1] + second[::-1], "not a window"),
            (header, shifted, "not a window"),
            (header, [r for r in rows if r.split(",")[2] != "2"], "not a window"),
            (header, rows[:3] + [rows[3].rpartition(",")[0]] + rows[4:], "5 columns but 4"),
            (header, rows[:3] + [rows[3] + ",junk"] + rows[4:], "5 columns but 6"),
            # every other row cut to 4 fields, the rest given 7
            (header, [r.rpartition(",")[0] if i % 2 else r + ",junk,1"
                      for i, r in enumerate(rows)], "5 columns but 7"),
        ]
        for head, body, message in cases:
            path.write_text("\n".join([head] + body) + "\n")
            with pytest.raises(ValueError, match=message):
                E.read_predictions(path, dataset)
        path.write_text("\n".join([header] + [r.replace(",e000,", ",zz,") for r in rows]) + "\n")
        with pytest.raises(KeyError, match="zz"):
            E.read_predictions(path, dataset)

    def test_actuals_must_be_the_metric_before_one_cutoff(self, dataset, tmp_path):
        path = tmp_path / "pred.csv"
        _, state = T.run_simulation(dataset, tiny_model_cfg(dataset), tiny_train_cfg(), n_days=4)
        labeled_end = label_cutoff(state.current_day, HORIZON, dataset.hours)
        for end in (labeled_end, dataset.hours):        # partly and wholly filled
            state.log.write_csv(path, dataset, HORIZON, end)
            E.read_predictions(path, dataset)
        state.log.write_csv(path, dataset, HORIZON, labeled_end)
        header, *rows = path.read_text().splitlines()
        parts = [r.split(",") for r in rows]
        filled = [i for i, p in enumerate(parts) if p[4]]
        assert 0 < len(filled) < len(rows)

        def written(parts_):
            path.write_text("\n".join([header] + [",".join(p) for p in parts_]) + "\n")

        def edited(i, value):
            out = [list(p) for p in parts]
            out[i][4] = value
            return out

        last = max(range(len(rows)), key=lambda i: int(parts[i][0]) * 24 + int(parts[i][2]))
        last_hour = int(parts[last][0]) * HOURS_PER_DAY + int(parts[last][2])
        true_last = repr(float(dataset.record(parts[last][1]).metric[last_hour]))
        one_ulp = repr(float(np.nextafter(float(parts[filled[0]][4]), np.inf)))
        cases = [
            ([p[:4] + ["1.0"] for p in parts], "not the dataset's metric"),
            (edited(filled[0], one_ulp), "not the dataset's metric"),
            (edited(last, true_last), "past the first unfilled hour"),
            (edited(filled[-1], ""), "past the first unfilled hour"),
            (edited(filled[0], "nan"), "not the dataset's metric"),
            (edited(last, "x"), "past the first unfilled hour"),
            (edited(filled[0], "x"), "could not convert"),
            (edited(filled[0], format(float(parts[filled[0]][4]), ".40f") + "e1"),
             "not the dataset's metric"),
        ]
        for body, message in cases:
            written(body)
            with pytest.raises(ValueError, match=message):
                E.read_predictions(path, dataset)

    def test_append_day_keeps_day_major_arrays(self):
        log = T.PredictionLog()
        log.append_day(3, [2, 0], np.arange(8.0).reshape(2, 4))
        log.append_day(4, [1], np.full((1, 4), -1.0))
        assert len(log) == 3
        assert log.days.dtype == log.entity_idx.dtype == np.int64
        np.testing.assert_array_equal(log.days, [3, 3, 4])
        np.testing.assert_array_equal(log.entity_idx, [2, 0, 1])
        np.testing.assert_array_equal(log.preds, [[0, 1, 2, 3], [4, 5, 6, 7], [-1] * 4])


class TestLabelCutoff:
    def test_clamped_to_the_series(self, dataset):
        hours = dataset.hours
        assert label_cutoff(10, HORIZON, hours) == 7 * HOURS_PER_DAY
        assert label_cutoff(2, HORIZON, hours) == 0
        assert label_cutoff(dataset.days + 5, HORIZON, hours) == hours


class TestRunSimulation:
    def test_deterministic_end_to_end(self, dataset):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg(scheme="decay:similar")
        log1, s1 = T.run_simulation(dataset, mc, tc, n_days=3)
        log2, s2 = T.run_simulation(dataset, mc, tc, n_days=3)
        assert logs_equal(log1, log2)
        assert params_equal(s1.params, s2.params)

    def test_span_validation(self, dataset):
        mc = tiny_model_cfg(dataset)
        with pytest.raises(ValueError, match="spans"):
            T.run_simulation(dataset, mc, tiny_train_cfg(), n_days=35)

    def test_offline_state_reuse_matches_fresh_run(self, dataset):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg(scheme="segment:uniform")
        offline = T.train_offline(dataset, mc, tc)
        log_fresh, _ = T.run_simulation(dataset, mc, tc, n_days=2)
        log_reused, _ = T.run_simulation(dataset, mc, tc, n_days=2,
                                         offline_state=offline)
        assert logs_equal(log_fresh, log_reused)


class TestCheckpoint:
    def test_round_trip_bitwise(self, dataset, tmp_path):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg(scheme="segment:low_error")
        _, state = T.run_simulation(dataset, mc, tc, n_days=3)
        assert state.curves and state.cache is not None and state.dynamics is not None
        assert len(state.log) and state.cache.candidates.entity_idx.dtype == np.int32
        path = tmp_path / "state.bin"
        T.save_checkpoint(state, path, mc, tc)
        loaded, mc2, tc2 = T.load_checkpoint(path)
        assert mc2 == mc and tc2 == tc
        assert_states_equal(state, loaded)
        # a second save of the loaded state is byte-identical
        path2 = tmp_path / "state2.bin"
        T.save_checkpoint(loaded, path2, mc2, tc2)
        assert path.read_bytes() == path2.read_bytes()

    def test_offline_state_round_trip(self, dataset, tmp_path):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg()
        state = T.train_offline(dataset, mc, tc)
        assert state.cache is None and state.dynamics is None and len(state.log) == 0
        path = tmp_path / "offline.bin"
        T.save_checkpoint(state, path, mc, tc)
        loaded, _, _ = T.load_checkpoint(path)
        assert_states_equal(state, loaded)
        T.save_checkpoint(loaded, tmp_path / "again.bin", mc, tc)
        assert path.read_bytes() == (tmp_path / "again.bin").read_bytes()

    @pytest.mark.parametrize("scheme", ["uniform:low_error", "segment:similar", "frozen",
                                        "fixed5:high_confidence", "decay:low_variability"])
    def test_resume_equals_uninterrupted(self, dataset, tmp_path, scheme):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg(scheme=scheme)
        log_full, state_full = T.run_simulation(dataset, mc, tc, n_days=6)

        _, state_half = T.run_simulation(dataset, mc, tc, n_days=3)
        path = tmp_path / "half.bin"
        T.save_checkpoint(state_half, path, mc, tc)
        resumed, mc2, tc2 = T.load_checkpoint(path)
        index = T.DatasetIndex(dataset, tc2.horizon)
        for _ in range(3):
            T.online_step(resumed, dataset, mc2, tc2, index)
        assert logs_equal(log_full, resumed.log)
        assert params_equal(state_full.params, resumed.params)
        assert sorted(state_full.curves) == sorted(resumed.curves)
        assert all(same_array(c, resumed.curves[e]) for e, c in state_full.curves.items())
        assert same_array(state_full.profile, resumed.profile)
        assert bool(state_full.curves) == scheme.startswith("segment:")

    def test_corrupted_bytes_rejected(self, dataset, tmp_path):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg()
        state = T.train_offline(dataset, mc, tc)
        path = tmp_path / "ok.bin"
        T.save_checkpoint(state, path, mc, tc)
        raw = bytearray(path.read_bytes())
        raw[50] ^= 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(T.CheckpointIntegrityError, match="checksum"):
            T.load_checkpoint(bad)

    def test_truncated_file_rejected(self, dataset, tmp_path):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg()
        state = T.train_offline(dataset, mc, tc)
        path = tmp_path / "ok.bin"
        T.save_checkpoint(state, path, mc, tc)
        (tmp_path / "trunc.bin").write_bytes(path.read_bytes()[:100])
        with pytest.raises(T.CheckpointIntegrityError):
            T.load_checkpoint(tmp_path / "trunc.bin")

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"x" * 200)
        with pytest.raises(T.CheckpointVersionError, match="not a checkpoint"):
            T.load_checkpoint(path)

    def test_version_mismatch_rejected(self, dataset, tmp_path):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg()
        state = T.train_offline(dataset, mc, tc)
        path = tmp_path / "ok.bin"
        T.save_checkpoint(state, path, mc, tc)
        # 2: the format before profile/nn; 3: before the flat parameter vectors
        for version in (1, 2, 3, 99):
            raw = bytearray(path.read_bytes()[:-32])
            off = len(T.CKPT_MAGIC)
            raw[off : off + 4] = version.to_bytes(4, "little")
            raw += hashlib.sha256(bytes(raw)).digest()
            bumped = tmp_path / f"v{version}.bin"
            bumped.write_bytes(bytes(raw))
            with pytest.raises(T.CheckpointVersionError, match=f"version {version},"):
                T.load_checkpoint(bumped)

    def test_malformed_table_rejected(self, dataset, tmp_path):
        mc = tiny_model_cfg(dataset)
        tc = tiny_train_cfg()
        state = T.train_offline(dataset, mc, tc)
        path = tmp_path / "ok.bin"
        T.save_checkpoint(state, path, mc, tc)
        raw = path.read_bytes()[:-32]
        start = len(T.CKPT_MAGIC) + 12
        end = start + int.from_bytes(raw[start - 8 : start], "little")
        header, arrays = json.loads(raw[start:end]), raw[end:]

        def resealed(head, data=arrays):
            head = json.dumps(head).encode()
            body = raw[: start - 8] + len(head).to_bytes(8, "little") + head + data
            bad = tmp_path / "bad.bin"
            bad.write_bytes(body + hashlib.sha256(body).digest())
            return bad

        table = header["arrays"]
        last_key, _, last_shape = table[-1]
        assert last_key == "log/preds" and last_shape == [0, 0]
        first_key, first_dtype, first_shape = table[0]
        without_gamma = {k: v for k, v in header.items() if k != "gamma"}
        for bad_table, data, message in [
            ([[first_key, "|O", first_shape]] + table[1:], arrays, "bad table entry"),
            ([[first_key, first_dtype, [-1]]] + table[1:], arrays, "bad table entry"),
            (table[:-1] + [[last_key, "<f8", [10**6]]], arrays, "truncated"),
            (table, arrays + b"\0" * 8, "trailing bytes"),
            (table[:-1], arrays, "'log/preds'"),
            ([[first_key, first_dtype, 3]] + table[1:], arrays, "mistypes"),
        ]:
            with pytest.raises(T.CheckpointIntegrityError, match=message):
                T.load_checkpoint(resealed(dict(header, arrays=bad_table), data))
        with pytest.raises(T.CheckpointIntegrityError, match="'gamma'"):
            T.load_checkpoint(resealed(without_gamma))

        # the flat vectors: params, adam_m, adam_v, each n float64 values
        assert [key for key, _, _ in table[:3]] == ["params", "adam_m", "adam_v"]
        n = len(state.params.flat)
        assert all(shape == [n] for _, _, shape in table[:3])
        for which, message in ((0, "does not fit the model"), (1, "differ in length")):
            shorter = [list(entry) for entry in table]
            shorter[which][2] = [n - 1]
            cut = 8 * (which * n + n - 1)
            with pytest.raises(T.CheckpointIntegrityError, match=message):
                T.load_checkpoint(resealed(dict(header, arrays=shorter),
                                           arrays[:cut] + arrays[cut + 8 :]))
        as_ints = [list(entry) for entry in table]
        as_ints[2][1] = "<i8"
        with pytest.raises(T.CheckpointIntegrityError, match="dtype"):
            T.load_checkpoint(resealed(dict(header, arrays=as_ints)))
