import numpy as np
import pytest

from driftcast.data import (
    Dataset,
    EntityRecord,
    HorizonConfig,
    WindowRangeError,
    anchor_bounds,
    znormalize_rows,
)
from driftcast.sampling import CandidateArray
from driftcast.trainer import DatasetIndex, build_candidates


def make_record(hours=8760, d=3, k=4, seed=0):
    rng = np.random.default_rng(seed)
    return EntityRecord(
        entity_id="e000",
        features=rng.normal(size=(hours, d)),
        metric=rng.normal(size=hours),
        interactions=np.abs(rng.poisson(5.0, size=(hours // 24, k))).astype(float),
    )


def one_record_dataset(**record_kwargs):
    return Dataset(records=(make_record(**record_kwargs),), meta={})


def gather_one(dataset, anchor, cfg, with_targets=True):
    """The window anchored at ``anchor`` in the dataset's only record."""
    cands = CandidateArray(np.zeros(1, dtype=np.int32), np.array([anchor], dtype=np.int64))
    X, I, Y = DatasetIndex(dataset, cfg).gather(cands, with_targets)
    return X[0], I[0], None if Y is None else Y[0]


def gather_per_entity(index, cands, with_targets=True):
    """One entity at a time through strided views: the reference for ``gather``."""
    h, dataset = index.horizon, index.dataset
    swv = np.lib.stride_tricks.sliding_window_view
    n = len(cands)
    X = np.empty((n, h.lookback, dataset.n_features))
    I = np.empty((n, dataset.interaction_dim))
    Y = np.empty((n, h.horizon)) if with_targets else None
    for e in np.unique(cands.entity_idx):
        record = dataset.records[e]
        sel = cands.entity_idx == e
        anchors = cands.anchors[sel]
        X[sel] = swv(record.features, h.lookback, axis=0)[anchors - h.lookback].transpose(0, 2, 1)
        I[sel] = record.interactions[anchors // 24]
        if with_targets:
            Y[sel] = swv(record.metric, h.horizon)[anchors - h.backward]
    return X, I, Y


def znormalize(x):
    """One vector at a time: the reference that ``znormalize_rows`` must match."""
    x = np.asarray(x, dtype=np.float64)
    std = x.std()
    if std == 0.0:
        return np.zeros_like(x), True
    return (x - x.mean()) / std, False


def znormalize_row(x):
    """``znormalize_rows`` on a single row."""
    rows, degenerate = znormalize_rows(np.asarray(x, dtype=np.float64)[None, :])
    return rows[0], bool(degenerate[0])


class TestMakeWindow:
    """Window geometry and feasibility bounds of ``DatasetIndex.gather``."""

    def test_matches_the_per_entity_gather(self):
        records = tuple(
            EntityRecord(entity_id=f"e{i}", features=r.features, metric=r.metric,
                         interactions=r.interactions)
            for i, r in enumerate(make_record(hours=600, d=2, k=3, seed=s) for s in range(4))
        )
        dataset = Dataset(records=records, meta={})
        rng = np.random.default_rng(12)
        for cfg in (HorizonConfig(48, 24, 24), HorizonConfig(30, 0, 7), HorizonConfig(1, 5, 1)):
            index = DatasetIndex(dataset, cfg)
            for with_targets in (True, False):
                lo = cfg.min_anchor if with_targets else cfg.lookback
                hi = dataset.hours - (cfg.forward if with_targets else 1)
                for n in (0, 1, 257):
                    anchors = rng.integers(lo, hi + 1, size=n)
                    anchors[: min(n, 2)] = [lo, hi][: min(n, 2)]
                    cands = CandidateArray(rng.integers(0, 4, size=n).astype(np.int32), anchors)
                    got = index.gather(cands, with_targets)
                    ref = gather_per_entity(index, cands, with_targets)
                    for a, b in zip(got, ref):
                        if b is None:
                            assert a is None
                        else:
                            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_default_geometry(self):
        ds = one_record_dataset()
        rec = ds.records[0]
        X, I, Y = gather_one(ds, 168, HorizonConfig(168, 24, 24))
        assert np.array_equal(X, rec.features[0:168])
        # 48-value target spanning [anchor - backward, anchor + forward)
        assert np.array_equal(Y, rec.metric[144:192])
        assert Y.shape == (48,)
        assert np.array_equal(I, rec.interactions[168 // 24])
        # without targets the inputs are the same
        X2, I2, Y2 = gather_one(ds, 168, HorizonConfig(168, 24, 24), with_targets=False)
        assert Y2 is None and np.array_equal(X2, X) and np.array_equal(I2, I)

    def test_lookback_violation_by_one(self):
        # a negative view index would wrap to the series' last 168 hours
        ds = one_record_dataset()
        for with_targets in (True, False):
            with pytest.raises(WindowRangeError, match=r"167\.\.167 leave .* 168\.\."):
                gather_one(ds, 167, HorizonConfig(168, 24, 24), with_targets)

    def test_right_edge_fit(self):
        ds = one_record_dataset()
        _, _, Y = gather_one(ds, 8736, HorizonConfig(168, 24, 24))
        assert np.array_equal(Y, ds.records[0].metric[8712:8760])
        # without targets the last feasible anchor is the series' last hour
        X, I, _ = gather_one(ds, 8759, HorizonConfig(168, 24, 24), with_targets=False)
        assert np.array_equal(X, ds.records[0].features[8591:8759])
        assert np.array_equal(I, ds.records[0].interactions[-1])

    def test_right_edge_violation(self):
        ds = one_record_dataset()
        with pytest.raises(WindowRangeError, match=r"\.\.8736 "):
            gather_one(ds, 8737, HorizonConfig(168, 24, 24))
        with pytest.raises(WindowRangeError, match=r"\.\.8759 "):
            gather_one(ds, 8760, HorizonConfig(168, 24, 24), with_targets=False)

    def test_backward_violation(self):
        # lookback 10 holds, backward 24 does not: the target would wrap
        ds = one_record_dataset(hours=480)
        with pytest.raises(WindowRangeError, match=r"range 24\.\..*backward=24"):
            gather_one(ds, 20, HorizonConfig(10, 24, 24))
        X, _, _ = gather_one(ds, 20, HorizonConfig(10, 24, 24), with_targets=False)
        assert np.array_equal(X, ds.records[0].features[10:20])


class TestEnumerateCandidates:
    """Feasible anchors of ``build_candidates`` against ``gather``'s bounds."""

    def test_full_year_count(self):
        ds = one_record_dataset()
        cands = build_candidates(ds, 8760, HorizonConfig(168, 24, 24))
        # independent count: one candidate per anchor in [max(t_p,t_a), end - t_b]
        expected = 8760 - 24 - 168 + 1
        assert len(cands) == expected == 8569
        assert (cands.entity_idx[0], cands.anchors[0]) == (0, 168)
        assert cands.anchors[-1] == 8736
        assert np.array_equal(cands.anchors, np.arange(168, 8737))

    def test_no_feasible_anchor(self):
        ds = one_record_dataset(hours=240)
        assert len(build_candidates(ds, 191, HorizonConfig(168, 24, 24))) == 0

    def test_single_feasible_anchor(self):
        ds = one_record_dataset(hours=240)
        cands = build_candidates(ds, 192, HorizonConfig(168, 24, 24))
        assert cands.anchors.tolist() == [168]
        # a labeled span past the series is rejected, not enumerated
        with pytest.raises(ValueError, match="exceeds"):
            build_candidates(ds, 241, HorizonConfig(168, 24, 24))

    def test_every_candidate_windowable(self):
        # exhaustive agreement between the bounds and gather on a small record
        ds = one_record_dataset(hours=96)
        cfg = HorizonConfig(10, 6, 8)
        labeled_end = 90
        valid = set(build_candidates(ds, labeled_end, cfg).anchors.tolist())
        lo, hi = anchor_bounds(labeled_end, cfg)
        assert valid == set(range(lo, hi + 1))
        for anchor in range(0, 96):
            if lo <= anchor <= 96 - cfg.forward:
                gather_one(ds, anchor, cfg)
            else:
                with pytest.raises(WindowRangeError):
                    gather_one(ds, anchor, cfg)


class TestZnormalize:
    """``znormalize_rows`` on one-row inputs; the loop version is the oracle."""

    def test_closed_form(self):
        z, degenerate = znormalize_row([1.0, 2.0, 3.0])
        assert not degenerate
        np.testing.assert_allclose(z, [-1.224744871391589, 0.0, 1.224744871391589])

    def test_constant_input(self):
        z, degenerate = znormalize_row([5.0, 5.0, 5.0])
        assert degenerate
        assert np.array_equal(z, np.zeros(3))

    def test_random_vector_stats(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=48)
        z, degenerate = znormalize_row(x)
        assert not degenerate
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=32)
        z1, _ = znormalize_row(x)
        z2, _ = znormalize_row(z1)
        np.testing.assert_allclose(z1, z2, atol=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=24)
        z, _ = znormalize_row(x)
        z2, _ = znormalize_row(3.7 * x + 11.0)
        np.testing.assert_allclose(z, z2, atol=1e-9)

    def test_rows_match_scalar_version(self):
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(5, 12))
        mat[2] = 4.0
        rows, degenerate = znormalize_rows(mat)
        for i in range(5):
            zi, di = znormalize(mat[i])
            np.testing.assert_allclose(rows[i], zi)
            assert degenerate[i] == di


class TestRecordValidation:
    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="metric hours"):
            EntityRecord(
                entity_id="x",
                features=rng.normal(size=(48, 2)),
                metric=rng.normal(size=47),
                interactions=np.ones((2, 3)),
            )

    def test_negative_interactions_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="non-negative"):
            EntityRecord(
                entity_id="x",
                features=rng.normal(size=(48, 2)),
                metric=rng.normal(size=48),
                interactions=-np.ones((2, 3)),
            )

    def test_snapshot_count_must_cover_days(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="snapshots"):
            EntityRecord(
                entity_id="x",
                features=rng.normal(size=(48, 2)),
                metric=rng.normal(size=48),
                interactions=np.ones((3, 3)),
            )

    def test_records_are_immutable(self):
        rec = make_record(hours=48)
        with pytest.raises(ValueError):
            rec.features[0, 0] = 99.0
