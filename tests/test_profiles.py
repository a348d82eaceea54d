import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcast.profiles import (
    ArcCountCurve,
    MatrixProfileIndex,
    _sliding_dot,
    _window_stats,
    channel_index,
    corrected_arc_count,
    extend_profile,
    fluss_probability,
    mass,
    matrix_profile_index,
    sampling_curve,
    summed_arc_curve,
)


def naive_distance_profile(query, series):
    """O(nm) oracle: explicit z-normalization and Euclidean distance."""
    m = len(query)
    windows = np.lib.stride_tricks.sliding_window_view(series, m)
    zq = (query - query.mean()) / query.std()
    out = np.empty(len(windows))
    for j, win in enumerate(windows):
        sd = win.std()
        if sd <= 1e-12 * max(1.0, abs(win.mean())):
            out[j] = math.sqrt(2 * m)
        else:
            zw = (win - win.mean()) / sd
            out[j] = math.sqrt(((zq - zw) ** 2).sum())
    return out


def naive_mpi(series, m, radius):
    """O(n^2 m) oracle with identical degeneracy and smallest-index tie rule."""
    windows = np.lib.stride_tricks.sliding_window_view(series, m)
    length = len(windows)
    mus = windows.mean(axis=1)
    sds = windows.std(axis=1)
    degenerate = sds <= 1e-12 * np.maximum(1.0, np.abs(mus))
    nn = np.empty(length, dtype=np.int64)
    for i in range(length):
        best, best_j = np.inf, -1
        for j in range(length):
            if abs(i - j) <= radius:
                continue
            if degenerate[i] or degenerate[j]:
                d = math.sqrt(2 * m)
            else:
                zi = (windows[i] - mus[i]) / sds[i]
                zj = (windows[j] - mus[j]) / sds[j]
                d = math.sqrt(((zi - zj) ** 2).sum())
            if d < best:
                best, best_j = d, j
        nn[i] = best_j
    return nn


def row_recursion_index(series, m, radius):
    """The slow oracle: one row of sliding dot products at a time.

    The series is centred on its mean; row i's dot products come from row
    i-1's in O(n) (row 0's by FFT) and are normalized with rolling window
    statistics.  Ties break toward the smallest index.
    """
    x = series - series.mean()
    mu, sig, degenerate = _window_stats(x, m)
    length = len(x) - m + 1
    qt_first = _sliding_dot(x[:m], x)
    nn = np.empty(length, dtype=np.int64)
    qt = qt_first.copy()
    safe_sig = np.where(degenerate, 1.0, sig)
    head = x[: length - 1]
    tail = x[m : m + length - 1]
    for i in range(length):
        if i > 0:
            qt[1:] = qt[:-1] - head * x[i - 1] + tail * x[i + m - 1]
            qt[0] = qt_first[i]
        corr = (qt - (m * mu[i]) * mu) / ((m * safe_sig[i]) * safe_sig)
        np.clip(corr, -1.0, 1.0, out=corr)
        if degenerate[i]:
            corr[:] = 0.0
        else:
            corr[degenerate] = 0.0
        corr[max(0, i - radius) : i + radius + 1] = -np.inf
        nn[i] = int(np.argmax(corr))
    return nn


def nearest_distance_gaps(series, m, radius, nn):
    """|d(i, nn[i]) - min_j d(i, j)| per window, z-distances by brute force.

    A pair with an exactly flat window has the convention distance sqrt(2m).
    """
    windows = np.lib.stride_tricks.sliding_window_view(series, m)
    centered = windows - windows.mean(axis=1, keepdims=True)
    flat = windows.max(axis=1) == windows.min(axis=1)
    z = centered / np.where(flat, 1.0, np.sqrt((centered ** 2).mean(axis=1)))[:, None]
    z[flat] = 0.0
    dist = np.sqrt(np.maximum(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2), 0.0))
    dist[flat, :] = math.sqrt(2 * m)
    dist[:, flat] = math.sqrt(2 * m)
    idx = np.arange(len(z))
    dist[np.abs(idx[:, None] - idx[None, :]) <= radius] = np.inf
    return np.abs(dist[idx, nn] - dist.min(axis=1))


@st.composite
def walk_and_days(draw):
    """A random walk with at most one flat stretch, a prefix and day lengths.

    One stretch at most: the windows that overhang two flat stretches by one
    point have the same z-normalized shape, an exact tie that rounding breaks.
    """
    m = draw(st.integers(3, 24))
    # from 2m + 2 points on, every window has a neighbour outside its zone
    n = draw(st.integers(2 * m + 2, 2 * m + 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = np.cumsum(rng.normal(size=n))
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        series[start : start + draw(st.integers(1, 3 * m))] = series[start]
    prefix = draw(st.integers(2 * m + 2, n))
    days = draw(st.lists(st.integers(1, 60), max_size=6))
    return series, m, prefix, days


def extend_by_days(series, m, prefix, days):
    radius = math.ceil(m / 2)
    nn = matrix_profile_index(series[:prefix], m).nn_index
    end = prefix
    for step in days + [len(series)]:
        end = min(len(series), end + step)
        nn = extend_profile(nn, series[:end], m, radius).nn_index
    return nn


class TestExtendProfile:
    @settings(max_examples=80, deadline=None)
    @given(walk_and_days())
    def test_day_by_day_equals_scratch_and_oracle(self, case):
        series, m, prefix, days = case
        radius = math.ceil(m / 2)
        extended = extend_by_days(series, m, prefix, days)
        scratch = matrix_profile_index(series, m).nn_index
        np.testing.assert_array_equal(extended, scratch)
        np.testing.assert_array_equal(scratch, row_recursion_index(series, m, radius))
        assert nearest_distance_gaps(series, m, radius, scratch).max() <= 1e-9

    def test_paper_shape_days_equal_scratch_and_oracle(self):
        rng = np.random.default_rng(11)
        n, m = 6600, 168
        t = np.arange(n)
        series = (np.sin(2 * np.pi * t / 24) + 0.5 * np.sin(2 * np.pi * t / 168)
                  + 0.1 * rng.normal(size=n))
        extended = extend_by_days(series, m, n - 3 * 24, [24, 24])
        scratch = matrix_profile_index(series, m).nn_index
        np.testing.assert_array_equal(extended, scratch)
        np.testing.assert_array_equal(scratch, row_recursion_index(series, m, m // 2))

    def test_channel_constant_on_the_prefix(self, caplog):
        rng = np.random.default_rng(12)
        m = 12
        series = np.concatenate([np.full(60, 2.5), np.cumsum(rng.normal(size=140))])
        with caplog.at_level(logging.WARNING):
            prefix_index = channel_index(series[:60, None], m)
        assert "constant channel" in caplog.text
        assert (prefix_index == -1).all()
        grown = channel_index(series[:, None], m, prefix_index)
        np.testing.assert_array_equal(grown[0], matrix_profile_index(series, m).nn_index)
        np.testing.assert_array_equal(grown[0], row_recursion_index(series, m, m // 2))

    def test_longer_index_is_rebuilt_from_scratch(self):
        rng = np.random.default_rng(13)
        m = 16
        series = np.cumsum(rng.normal(size=300))
        longer = matrix_profile_index(series, m).nn_index
        shorter = extend_profile(longer, series[:200], m, m // 2).nn_index
        np.testing.assert_array_equal(shorter, matrix_profile_index(series[:200], m).nn_index)

    def test_index_pointing_outside_its_prefix_rejected(self):
        series = np.cumsum(np.random.default_rng(14).normal(size=100))
        nn = matrix_profile_index(series[:80], 10).nn_index.copy()
        nn[3] = 80
        with pytest.raises(ValueError, match="inside the prefix"):
            extend_profile(nn, series, 10, 5)

    def test_stacked_curves_equal_per_entity_curves(self):
        rng = np.random.default_rng(15)
        m = 20
        entities = [np.cumsum(rng.normal(size=(400, 3)), axis=0) for _ in range(4)]
        entities[1][:, 2] = 7.0  # one constant channel
        entities[3][:] = 1.0  # every channel constant
        curves = [fluss_probability(e, m) for e in entities]
        stacked = sampling_curve(np.stack([c.nn_index for c in curves]), m).p
        for curve, row in zip(curves, stacked):
            assert curve.p.tobytes() == row.tobytes()
        assert (curves[1].nn_index[2] == -1).all()
        np.testing.assert_array_equal(stacked[3], np.full(len(stacked[3]), 1 / len(stacked[3])))


class TestMass:
    def test_self_match(self):
        rng = np.random.default_rng(0)
        series = np.cumsum(rng.normal(size=400))
        query = series[37 : 37 + 64].copy()
        profile = mass(query, series)
        assert profile.distances[37] < 1e-6

    def test_negated_query_anticorrelation(self):
        rng = np.random.default_rng(1)
        series = np.cumsum(rng.normal(size=300))
        m = 50
        query = -series[20 : 20 + m]
        profile = mass(query, series)
        assert profile.distances[20] == pytest.approx(2 * math.sqrt(m), abs=1e-6)

    def test_matches_naive_oracle_on_random_walks(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            series = np.cumsum(rng.normal(size=512))
            query = rng.normal(size=48)
            fast = mass(query, series).distances
            slow = naive_distance_profile(query, series)
            assert np.max(np.abs(fast - slow)) < 1e-6

    def test_degenerate_query_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            mass(np.full(10, 2.0), np.random.default_rng(0).normal(size=50))

    def test_degenerate_subsequence_flagged(self):
        series = np.concatenate([np.zeros(30), np.random.default_rng(3).normal(size=30)])
        profile = mass(np.array([1.0, 2.0, 3.0, 1.0]), series)
        assert profile.degenerate[:20].all()
        assert profile.distances[0] == pytest.approx(math.sqrt(2 * 4))


class TestMatrixProfileIndex:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            n, m = 240, 16
            series = np.cumsum(rng.normal(size=n))
            mpi = matrix_profile_index(series, m)
            oracle = naive_mpi(series, m, mpi.exclusion_radius)
            assert np.array_equal(mpi.nn_index, oracle), f"trial {trial}"

    def test_repeated_pattern_links_copies(self):
        rng = np.random.default_rng(5)
        pattern = np.sin(np.linspace(0, 4 * np.pi, 100)) + 0.02 * rng.normal(size=100)
        series = np.concatenate([pattern, pattern])
        m = 25
        mpi = matrix_profile_index(series, m)
        first = mpi.nn_index[: 100 - m]
        assert np.all(np.abs(first - (np.arange(100 - m) + 100)) <= mpi.exclusion_radius)

    def test_constant_series_tie_rule(self):
        mpi = matrix_profile_index(np.full(100, 3.7), 10)
        assert mpi.degenerate.all()
        r = mpi.exclusion_radius
        # smallest index outside the exclusion zone
        for i in (0, 1, 50, 90):
            expected = 0 if i > r else i + r + 1
            assert mpi.nn_index[i] == expected

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            matrix_profile_index(np.arange(19.0), 10)
        # long enough for two windows, but the middle window has no neighbour
        # outside its exclusion zone
        rng = np.random.default_rng(11)
        for n, m, shortest in ((6, 3, 8), (7, 3, 8), (14, 7, 16), (15, 7, 16), (8, 4, 9)):
            with pytest.raises(ValueError, match=f"series length {n} must be at least"):
                matrix_profile_index(rng.normal(size=n), m)
            mpi = matrix_profile_index(rng.normal(size=shortest), m)
            assert len(mpi.nn_index) == shortest - m + 1

    def test_exclusion_invariant(self):
        rng = np.random.default_rng(6)
        mpi = matrix_profile_index(np.cumsum(rng.normal(size=200)), 12)
        gaps = np.abs(np.arange(len(mpi.nn_index)) - mpi.nn_index)
        assert np.all(gaps > mpi.exclusion_radius)


class TestCorrectedArcCount:
    def _mpi(self, nn, m=5):
        nn = np.asarray(nn, dtype=np.int64)
        return MatrixProfileIndex(
            nn_index=nn, m=m, exclusion_radius=0,
            degenerate=np.zeros(len(nn), dtype=bool),
        )

    def test_two_self_contained_regimes(self):
        # 40 positions; halves link internally; nothing crosses the midpoint
        nn = np.concatenate([np.arange(20)[::-1], 20 + np.arange(20)[::-1]])
        curve = corrected_arc_count(self._mpi(nn))
        assert curve.cac[20] == 0.0

    def test_cap_at_one(self):
        # every arc spans the whole curve, so counts exceed the parabola
        nn = np.zeros(40, dtype=np.int64)
        nn[0] = 39
        curve = corrected_arc_count(self._mpi(nn))
        assert curve.cac.max() == 1.0
        assert np.all(curve.cac <= 1.0)

    def test_edges_forced_to_one(self):
        nn = np.roll(np.arange(60), 7)
        curve = corrected_arc_count(self._mpi(nn, m=8))
        assert np.all(curve.cac[:8] == 1.0)
        assert np.all(curve.cac[-8:] == 1.0)

    def test_random_arcs_interior_near_one(self):
        # Monte-Carlo oracle: uniformly random neighbors make the actual count
        # track the expected parabola, so the interior mean stays near 1.
        rng = np.random.default_rng(7)
        interior_means = []
        for _ in range(100):
            length = 200
            pos = np.arange(length)
            nn = (pos + 1 + rng.integers(0, length - 1, size=length)) % length
            curve = corrected_arc_count(self._mpi(nn, m=10))
            interior_means.append(curve.cac[10:-10].mean())
        assert abs(np.mean(interior_means) - 1.0) < 0.15


class TestFlussProbability:
    def test_clamp_and_normalize_trace(self):
        # direct trace of the reverse running-minimum loop on [3,1,2,5]
        total = np.array([3.0, 1.0, 2.0, 5.0])
        clamped = np.minimum.accumulate(total[::-1])[::-1]
        np.testing.assert_array_equal(clamped, [1.0, 1.0, 2.0, 5.0])
        np.testing.assert_allclose(clamped / clamped.sum(), [1 / 9, 1 / 9, 2 / 9, 5 / 9])

    def test_already_nondecreasing_unchanged(self):
        total = np.array([1.0, 1.0, 2.0, 5.0])
        clamped = np.minimum.accumulate(total[::-1])[::-1]
        np.testing.assert_array_equal(clamped, total)

    def test_regime_change_mass_split(self):
        t = np.arange(3000)
        series = np.where(t < 1500, np.sin(2 * np.pi * t / 24), np.sin(2 * np.pi * t / 12))
        curve = fluss_probability(series, 100)
        after = curve.p[1500:].sum()
        assert after >= 0.8

    def test_output_invariants(self):
        rng = np.random.default_rng(8)
        series = np.cumsum(rng.normal(size=(500, 3)), axis=0)
        curve = fluss_probability(series, 24)
        assert np.all(curve.p >= 0)
        assert curve.p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(curve.p) >= -1e-15)

    def test_constant_channel_skipped(self, caplog):
        rng = np.random.default_rng(9)
        series = np.stack([np.cumsum(rng.normal(size=300)), np.ones(300)], axis=1)
        with caplog.at_level(logging.WARNING):
            curve = fluss_probability(series, 20)
        assert "constant channel" in caplog.text
        varying = fluss_probability(series[:, :1], 20)
        np.testing.assert_allclose(curve.p, varying.p)

    def test_all_constant_gives_uniform(self, caplog):
        with caplog.at_level(logging.WARNING):
            curve = fluss_probability(np.ones((200, 2)), 16)
        length = 200 - 16 + 1
        np.testing.assert_allclose(curve.p, np.full(length, 1.0 / length))

    def test_summed_curve_is_per_channel_sum(self):
        rng = np.random.default_rng(10)
        series = np.cumsum(rng.normal(size=(400, 2)), axis=0)
        total = summed_arc_curve(series, 20)
        expected = sum(
            corrected_arc_count(matrix_profile_index(series[:, j], 20)).cac
            for j in range(2)
        )
        np.testing.assert_allclose(total, expected)

    def test_cac_bounds_asserted(self):
        with pytest.raises(AssertionError):
            ArcCountCurve(cac=np.array([0.5, 1.2]))
