import numpy as np
import pytest

from driftcast import evaluation as E
from driftcast import trainer as T
from driftcast.data import Dataset, EntityRecord, HorizonConfig


def windows_from_log_rowwise(log, dataset, horizon):
    """One row at a time: the reference for ``windows_from_log``."""
    preds, truths = [], []
    for day, eidx, pred in zip(log.days, log.entity_idx, log.preds):
        anchor = day * 24
        metric = dataset.records[eidx].metric
        if anchor - horizon.backward < 0 or anchor + horizon.forward > len(metric):
            continue
        preds.append(pred)
        truths.append(metric[anchor - horizon.backward : anchor + horizon.forward])
    return np.array(preds), np.array(truths)


class TestWindowsFromLog:
    def test_matches_the_rowwise_pairing(self):
        rng = np.random.default_rng(7)
        records = tuple(
            EntityRecord(entity_id=f"e{i}", features=rng.normal(size=(120, 2)),
                         metric=rng.normal(size=120), interactions=np.ones((5, 3)))
            for i in range(3)
        )
        dataset = Dataset(records=records, meta={})
        horizon = HorizonConfig(lookback=24, backward=30, forward=6)
        log = T.PredictionLog()
        # day 1's window starts before hour 0 and day 5's ends past the series
        for day in range(6):
            log.append_day(day, [2, 0, 1], rng.normal(size=(3, horizon.horizon)))
        preds, truths = E.windows_from_log(log, dataset, horizon)
        ref_preds, ref_truths = windows_from_log_rowwise(log, dataset, horizon)
        assert preds.shape == truths.shape == (9, horizon.horizon)
        np.testing.assert_array_equal(preds, ref_preds)
        np.testing.assert_array_equal(truths, ref_truths)


class TestComputeMetrics:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        truth = rng.normal(size=(10, 8))
        report = E.compute_metrics(truth.copy(), truth)
        assert report.rmse == 0.0
        assert report.nrmse == pytest.approx(0.0, abs=1e-12)
        assert report.r2 == 1.0
        assert report.n_windows == 10

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        truth = rng.normal(size=(20, 6))
        report = E.compute_metrics(truth + 5.0, truth)
        assert report.rmse == pytest.approx(5.0)
        assert report.nrmse == pytest.approx(0.0, abs=1e-9)
        var = float(((truth - truth.mean()) ** 2).mean())
        assert report.r2 == pytest.approx(1.0 - 25.0 / var)

    def test_mean_prediction_gives_zero_r2(self):
        rng = np.random.default_rng(2)
        truth = rng.normal(size=(15, 4))
        pred = np.full_like(truth, truth.mean())
        report = E.compute_metrics(pred, truth)
        assert report.r2 == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_truth_windows_skipped(self):
        rng = np.random.default_rng(3)
        truth = rng.normal(size=(4, 5))
        truth[1] = 3.0
        report = E.compute_metrics(truth + 1.0, truth)
        assert report.degenerate_windows_skipped == 1
        assert report.nrmse == pytest.approx(0.0, abs=1e-9)

    def test_zero_total_variance_rejected(self):
        with pytest.raises(ValueError, match="zero total variance"):
            E.compute_metrics(np.ones((3, 4)), np.ones((3, 4)))

    def test_rmse_translation_equivariance(self):
        rng = np.random.default_rng(4)
        truth = rng.normal(size=(12, 6))
        pred = truth + rng.normal(size=(12, 6))
        a = E.compute_metrics(pred, truth)
        b = E.compute_metrics(pred + 7.0, truth + 7.0)
        assert a.rmse == pytest.approx(b.rmse, abs=1e-12)

    def test_nrmse_affine_invariance(self):
        rng = np.random.default_rng(5)
        truth = rng.normal(size=(12, 6))
        pred = truth + 0.3 * rng.normal(size=(12, 6))
        a = E.compute_metrics(pred, truth)
        b = E.compute_metrics(4.2 * pred - 3.0, truth)
        assert a.nrmse == pytest.approx(b.nrmse, abs=1e-9)


class TestAverageRanks:
    def test_distinct_values(self):
        ranks = E._average_ranks(np.array([0.3, 0.1, 0.2]), larger_is_better=False)
        np.testing.assert_array_equal(ranks, [3.0, 1.0, 2.0])

    def test_larger_is_better(self):
        ranks = E._average_ranks(np.array([0.3, 0.1, 0.2]), larger_is_better=True)
        np.testing.assert_array_equal(ranks, [1.0, 3.0, 2.0])

    def test_two_way_tie_averaged(self):
        ranks = E._average_ranks(np.array([0.5, 0.5, 0.9]), larger_is_better=False)
        np.testing.assert_array_equal(ranks, [1.5, 1.5, 3.0])

    def test_rank_sum_conserved(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            values = rng.integers(0, 5, size=8).astype(float)
            ranks = E._average_ranks(values, larger_is_better=False)
            assert ranks.sum() == pytest.approx(8 * 9 / 2)


class TestRankTableShape:
    def test_dominating_scheme_gets_rank_one(self):
        # build a synthetic two-variant, two-scheme outcome by hand
        values_a = np.array([1.0, 2.0])  # scheme 0 dominates on variant a
        values_b = np.array([1.0, 3.0])
        avg = (E._average_ranks(values_a, False) + E._average_ranks(values_b, False)) / 2
        np.testing.assert_array_equal(avg, [1.0, 2.0])
