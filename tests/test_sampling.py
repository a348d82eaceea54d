import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftcast
from driftcast import sampling as S
from driftcast.data import InvariantError
from driftcast.profiles import SamplingCurve, fluss_probability

CHI2_CRIT_999_DF99 = 148.23035916510173  # chi2.ppf(0.999, 99), frozen from scipy


def cand_array(pairs):
    pairs = sorted(pairs)
    return S.CandidateArray(
        np.array([p[0] for p in pairs], dtype=np.int32),
        np.array([p[1] for p in pairs], dtype=np.int64),
    )


def single_entity_candidates(anchors, entity=0):
    return cand_array([(entity, a) for a in anchors])


def segment_loop(candidates, curves, lookback):
    """The segment rule's weights by a loop over entities: the fancy index's oracle."""
    raw = np.empty(len(candidates))
    for e in np.unique(candidates.entity_idx):
        sel = candidates.entity_idx == e
        raw[sel] = curves[int(e)][candidates.anchors[sel] - lookback]
    total = raw.sum()
    return raw / total if total > 0 else np.full(len(raw), 1.0 / len(raw))


# The features of no entity: the rules that do not read them get these.
NO_HISTORY = np.empty((0, 0, 0))


class TestParseScheme:
    def test_plain(self):
        spec = S.parse_scheme("segment:similar")
        assert spec.temporal == "segment" and spec.nontemporal == "similar"
        assert spec.label == "segment:similar"

    def test_fixed_window(self):
        spec = S.parse_scheme("fixed90:uniform")
        assert spec.temporal == "fixed" and spec.fixed_days == 90
        assert spec.label == "fixed90:uniform"

    def test_invalid_strings(self):
        for bad in ("segment", "warp:uniform", "uniform:best", "fixed0:uniform",
                    "frozen:frozen", "frozen:uniform", "uniform:frozen", "fixed:uniform"):
            with pytest.raises(ValueError):
                S.parse_scheme(bad)

    def test_labels_round_trip(self):
        temporal = ["uniform", "fixed1", "fixed16", "fixed90", "decay", "segment"]
        for t in temporal:
            for nt in S.NONTEMPORAL_SCHEMES:
                spec = S.parse_scheme(f"{t}:{nt}")
                assert spec.labels == (t, nt) and spec.label == f"{t}:{nt}"
                assert S.parse_scheme(spec.label) == spec
                assert not spec.frozen
                assert spec.reads_errors == (nt not in ("uniform", "similar"))
        assert len(S.TEMPORAL_SCHEMES) == 4 and len(S.NONTEMPORAL_SCHEMES) == 8

    def test_frozen(self):
        spec = S.parse_scheme("frozen")
        assert spec.frozen and not spec.reads_errors
        assert spec.labels == ("frozen", "frozen") and spec.label == "frozen"
        assert S.parse_scheme(spec.label) == spec


class TestTemporalWeights:
    def test_uniform(self):
        cands = single_entity_candidates(range(100, 110))
        w = S.temporal_weights(S.SchemeSpec("uniform", "uniform"), cands, 200, None, 24)
        np.testing.assert_allclose(w.weights, 0.1)

    def test_fixed_window_cutoff(self):
        # ages 10 days and 100 days against a 90-day window
        now = 2400 + 100 * 24
        cands = single_entity_candidates([now - 10 * 24, now - 100 * 24])
        spec = S.SchemeSpec("fixed", "uniform", fixed_days=90)
        w = S.temporal_weights(spec, cands, now, None, 24)
        by_anchor = dict(zip(w.candidates.anchors, w.weights))
        assert by_anchor[now - 10 * 24] == 1.0
        assert by_anchor[now - 100 * 24] == 0.0

    def test_fixed_window_without_candidates_raises(self):
        # TrainConfig rejects a window too short to reach the newest label
        now = 500 * 24
        cands = single_entity_candidates([now - 400 * 24, now - 300 * 24])
        spec = S.SchemeSpec("fixed", "uniform", fixed_days=10)
        with pytest.raises(InvariantError, match="holds no candidates"):
            S.temporal_weights(spec, cands, now, None, 24)

    def test_decay_formula(self):
        # weight = max(eps, 1 - age/(oldest+1)); evaluated directly
        now = 200 * 24
        ages = np.array([0.0, 50.0, 199.0])
        cands = single_entity_candidates([int(now - a * 24) for a in ages])
        w = S.temporal_weights(S.SchemeSpec("decay", "uniform"), cands, now, None, 24)
        raw = np.maximum(S.DECAY_EPS, 1.0 - ages / (ages.max() + 1.0))
        expected = raw / raw.sum()
        by_anchor = dict(zip(w.candidates.anchors, w.weights))
        for age, exp in zip(ages, expected):
            assert by_anchor[int(now - age * 24)] == pytest.approx(exp)
        # newest beats oldest by the full linear range
        assert by_anchor[now] / by_anchor[int(now - 199 * 24)] == pytest.approx(200.0)

    def test_segment_uses_curve_positions(self):
        lookback = 10
        # two regimes of 20 windows whose arcs stay inside them: no mass up to 20
        nn = np.concatenate([np.arange(20)[::-1], 20 + np.arange(20)[::-1]])
        segmentation = SamplingCurve(nn[None, None, :].astype(np.int32), 5)
        p = segmentation.p[0]
        assert p[:21].max() == 0.0 and p[35] > 0.0
        cands = single_entity_candidates([15, 25, 45])
        spec = S.SchemeSpec("segment", "uniform")
        w = S.temporal_weights(spec, cands, 60, segmentation, lookback)
        by_anchor = dict(zip(w.candidates.anchors, w.weights))
        assert by_anchor[15] == 0.0 and by_anchor[25] == 0.0
        assert by_anchor[45] == 1.0  # position 35 holds all the mass
        with pytest.raises(InvariantError, match="segmentation never computed"):
            S.temporal_weights(spec, cands, 60, None, lookback)

    def test_segment_rule_equals_the_per_entity_loop(self):
        rng = np.random.default_rng(21)
        spec = S.SchemeSpec("segment", "uniform")
        for trial in range(20):
            entities, hours, lookback = int(rng.integers(1, 5)), 150, int(rng.integers(8, 20))
            history = np.cumsum(rng.normal(size=(entities, hours, 2)), axis=1)
            history[rng.integers(entities), :, rng.integers(2)] = 3.0  # a constant channel
            segmentation = fluss_probability(history, lookback)
            pairs = {(int(e), int(a))
                     for e, a in zip(rng.integers(0, entities, 60),
                                     rng.integers(lookback, hours + 1, 60))}
            cands = cand_array(pairs)
            w = S.temporal_weights(spec, cands, hours, segmentation, lookback)
            expected = segment_loop(cands, dict(enumerate(segmentation.p)), lookback)
            assert w.weights.tobytes() == expected.tobytes(), f"trial {trial}"


class TestNontemporalWeights:
    def test_high_error_linear_rank(self):
        cands = single_entity_candidates([10, 20, 30])
        cache = S.ErrorCache(
            candidates=cands, errors=np.array([5.0, 1.0, 3.0]),
            anchor_cutoff=30, day=1,
        )
        spec = S.SchemeSpec("uniform", "high_error")
        w = S.nontemporal_weights(spec, cands, cache, None, NO_HISTORY, NO_HISTORY)
        np.testing.assert_allclose(w.weights, [3 / 6, 1 / 6, 2 / 6])

    def test_low_error_is_exact_reverse(self):
        rng = np.random.default_rng(0)
        cands = single_entity_candidates(range(50, 80))
        errors = rng.permutation(len(cands.anchors)).astype(float)
        cache = S.ErrorCache(candidates=cands, errors=errors, anchor_cutoff=79, day=1)
        hi = S.nontemporal_weights(S.SchemeSpec("uniform", "high_error"), cands, cache,
                                   None, NO_HISTORY, NO_HISTORY)
        lo = S.nontemporal_weights(S.SchemeSpec("uniform", "low_error"), cands, cache,
                                   None, NO_HISTORY, NO_HISTORY)
        n = len(cands.anchors)
        total = n * (n + 1) / 2
        ranks_hi = hi.weights * total
        ranks_lo = lo.weights * total
        # rank_high + rank_low == n + 1 for every candidate: exact reversal
        np.testing.assert_allclose(ranks_hi + ranks_lo, n + 1, atol=1e-9)

    def test_error_rules_need_a_refreshed_cache(self):
        cands = single_entity_candidates([10, 20])
        cache = S.ErrorCache(candidates=cands, errors=np.ones(2), anchor_cutoff=20, day=1)
        empty = S.ErrorCache(candidates=cands.take(slice(0)), errors=np.empty(0),
                             anchor_cutoff=20, day=1)
        unrecorded = S.DynamicsHistory(capacity=3, snapshots=np.zeros((2, 3)),
                                       counts=np.zeros(2, dtype=np.int64))
        for kind in S.ERROR_SCHEMES:
            spec = S.SchemeSpec("uniform", kind)
            for no_cache in (None, empty):
                with pytest.raises(InvariantError, match="never refreshed"):
                    S.nontemporal_weights(spec, cands, no_cache, None, NO_HISTORY, NO_HISTORY)
            if kind.endswith("_error"):
                continue
            for no_dynamics in (None, unrecorded):
                with pytest.raises(InvariantError, match="never recorded"):
                    S.nontemporal_weights(spec, cands, cache, no_dynamics,
                                          NO_HISTORY, NO_HISTORY)

    def test_low_variability_prefers_constant_snapshots(self):
        cands = single_entity_candidates([10, 20])
        cache = S.ErrorCache(
            candidates=cands, errors=np.array([1.0, 1.0]), anchor_cutoff=20, day=3,
        )
        snapshots = np.zeros((2, 5))
        snapshots[0, :3] = 2.0                 # constant history
        snapshots[1, :3] = [1.0, 3.0, 1.0]     # alternating history
        dyn = S.DynamicsHistory(capacity=5, snapshots=snapshots,
                                counts=np.array([3, 3]))
        w = S.nontemporal_weights(
            S.SchemeSpec("uniform", "low_variability"), cands, cache, dyn,
            NO_HISTORY, NO_HISTORY,
        )
        assert w.weights[0] > w.weights[1]

    def test_confidence_is_negated_mean_error(self):
        snapshots = np.zeros((2, 4))
        snapshots[0, :2] = [1.0, 3.0]
        snapshots[1, :2] = [10.0, 10.0]
        dyn = S.DynamicsHistory(capacity=4, snapshots=snapshots,
                                counts=np.array([2, 2]))
        confidence, variability = dyn.stats()
        np.testing.assert_allclose(confidence, [-2.0, -10.0])
        np.testing.assert_allclose(variability, [1.0, 0.0])

    def test_under_two_snapshots_get_median(self):
        snapshots = np.zeros((3, 4))
        snapshots[0, :3] = [1.0, 2.0, 3.0]
        snapshots[1, :2] = [5.0, 7.0]
        snapshots[2, 0] = 100.0
        dyn = S.DynamicsHistory(capacity=4, snapshots=snapshots,
                                counts=np.array([3, 2, 1]))
        confidence, _ = dyn.stats()
        assert confidence[2] == pytest.approx(np.median([confidence[0], confidence[1]]))

    def test_similar_identical_window_gets_entity_max(self):
        rng = np.random.default_rng(1)
        lookback = 24
        feats = np.cumsum(rng.normal(size=(300, 2)), axis=0)
        query = feats[100 : 100 + lookback].copy()
        cands = single_entity_candidates([124, 150, 200])  # anchor 124 -> position 100
        w = S.nontemporal_weights(
            S.SchemeSpec("uniform", "similar"), cands, None, None, feats[None], query[None]
        )
        by_anchor = dict(zip(w.candidates.anchors, w.weights))
        assert by_anchor[124] == max(w.weights)


def refresh_two_branch(loss_fn, candidates, cache, dynamics, subsample_size, rng, day,
                       capacity):
    """Oracle: the refresh with a separate first-day branch for a missing cache."""
    if cache is None:
        n = len(candidates)
        if n <= subsample_size:
            tracked = candidates
        else:
            keep = np.sort(rng.choice(n, size=subsample_size, replace=False))
            tracked = candidates.take(keep)
        old_keys = np.empty(0, dtype=np.int64)
    else:
        fresh = candidates.anchors > cache.anchor_cutoff
        merged_entity = np.concatenate(
            [cache.candidates.entity_idx, candidates.entity_idx[fresh]]
        )
        merged_anchor = np.concatenate([cache.candidates.anchors, candidates.anchors[fresh]])
        order = np.lexsort((merged_anchor, merged_entity))
        tracked = S.CandidateArray(merged_entity[order], merged_anchor[order])
        if len(tracked) > subsample_size:
            keep = np.sort(rng.choice(len(tracked), size=subsample_size, replace=False))
            tracked = tracked.take(keep)
        old_keys = cache.candidates.keys

    errors = np.asarray(loss_fn(tracked), dtype=np.float64)
    n = len(tracked)
    snapshots = np.zeros((n, capacity))
    counts = np.zeros(n, dtype=np.int64)
    if dynamics is not None and len(old_keys):
        pos = np.searchsorted(old_keys, tracked.keys)
        pos = np.clip(pos, 0, len(old_keys) - 1)
        hit = old_keys[pos] == tracked.keys
        snapshots[hit] = dynamics.snapshots[pos[hit]]
        counts[hit] = dynamics.counts[pos[hit]]
    snapshots[:, 1:] = snapshots[:, :-1]
    snapshots[:, 0] = errors
    counts = np.minimum(counts + 1, capacity)
    new_cache = S.ErrorCache(candidates=tracked, errors=errors,
                             anchor_cutoff=int(candidates.anchors.max()), day=day)
    return new_cache, S.DynamicsHistory(capacity=capacity, snapshots=snapshots,
                                        counts=counts)


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestRefreshErrorCache:
    def test_one_path_equals_the_two_branch_oracle(self):
        """Bitwise the oracle's caches and RNG state over seeded multi-day runs."""
        loss_fn = lambda c: (c.anchors * 0.37 + c.entity_idx) % 5.0
        for seed in range(120):
            gen = np.random.default_rng(seed)
            n_entities = int(gen.integers(1, 6))
            first, end = int(gen.integers(0, 30)), int(gen.integers(30, 200))
            pool = n_entities * (end - first)
            # subsample sizes below and above the first day's pool
            size = int(gen.integers(1, 2 * pool))
            capacity = int(gen.integers(1, 5))
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            state_ours = state_ref = (None, None)
            for day in range(3):
                last = end + day * int(gen.integers(0, 30))
                anchors = np.arange(first, last, dtype=np.int64)
                cands = S.CandidateArray(
                    np.repeat(np.arange(n_entities, dtype=np.int32), len(anchors)),
                    np.tile(anchors, n_entities),
                )
                state_ours = S.refresh_error_cache(loss_fn, cands, *state_ours, size, ours,
                                                   day, capacity)
                state_ref = refresh_two_branch(loss_fn, cands, *state_ref, size, ref,
                                               day, capacity)
                (c1, d1), (c2, d2) = state_ours, state_ref
                for a, b in ((c1.candidates.entity_idx, c2.candidates.entity_idx),
                             (c1.candidates.anchors, c2.candidates.anchors),
                             (c1.errors, c2.errors), (d1.snapshots, d2.snapshots),
                             (d1.counts, d2.counts)):
                    assert same_array(a, b), (seed, day)
                assert (c1.anchor_cutoff, c1.day, d1.capacity) == (
                    c2.anchor_cutoff, c2.day, d2.capacity)
                assert ours.bit_generator.state == ref.bit_generator.state

    def test_perfect_model_gives_zero_errors(self):
        cands = single_entity_candidates(range(30, 40))
        rng = np.random.default_rng(2)
        cache, dyn = S.refresh_error_cache(
            lambda c: np.zeros(len(c.anchors)), cands, None, None,
            subsample_size=100, rng=rng, day=1, capacity=10,
        )
        assert np.array_equal(cache.errors, np.zeros(10))
        assert dyn.counts.tolist() == [1] * 10

    def test_full_coverage_when_subsample_large(self):
        cands = single_entity_candidates(range(30, 50))
        rng = np.random.default_rng(3)
        cache, _ = S.refresh_error_cache(
            lambda c: np.ones(len(c.anchors)), cands, None, None,
            subsample_size=1000, rng=rng, day=1, capacity=10,
        )
        assert len(cache.candidates) == 20

    def test_errors_match_loss_fn(self):
        cands = single_entity_candidates(range(10, 25))
        rng = np.random.default_rng(4)
        loss_fn = lambda c: c.anchors.astype(float) * 2.0
        cache, _ = S.refresh_error_cache(
            loss_fn, cands, None, None, subsample_size=100, rng=rng, day=1, capacity=10
        )
        np.testing.assert_allclose(cache.errors, cache.candidates.anchors * 2.0)

    def test_new_candidates_join_and_history_slides(self):
        rng = np.random.default_rng(5)
        day1 = single_entity_candidates(range(10, 15))
        cache, dyn = S.refresh_error_cache(
            lambda c: np.ones(len(c.anchors)), day1, None, None, 100, rng, 1, 10
        )
        day2 = single_entity_candidates(range(10, 18))
        cache2, dyn2 = S.refresh_error_cache(
            lambda c: np.full(len(c.anchors), 2.0), day2, cache, dyn, 100, rng, 2, 10
        )
        assert len(cache2.candidates) == 8
        old = cache2.candidates.anchors < 15
        assert np.all(dyn2.counts[old] == 2)
        assert np.all(dyn2.counts[~old] == 1)
        np.testing.assert_allclose(dyn2.snapshots[old, 0], 2.0)
        np.testing.assert_allclose(dyn2.snapshots[old, 1], 1.0)

    def test_subsample_bound_respected(self):
        cands = single_entity_candidates(range(0, 200))
        rng = np.random.default_rng(6)
        cache, _ = S.refresh_error_cache(
            lambda c: np.ones(len(c.anchors)), cands, None, None, 50, rng, 1, 10
        )
        assert len(cache.candidates) == 50


class TestCombine:
    def test_uniform_is_identity(self):
        cands = single_entity_candidates(range(5))
        rng = np.random.default_rng(7)
        raw = rng.random(5)
        w1 = S.CandidateWeights(cands, raw / raw.sum())
        uniform = S.uniform_weights(cands)
        combined = S.combine(w1, uniform)
        np.testing.assert_allclose(combined.weights, w1.weights, atol=1e-12)

    def test_product_then_renormalize(self):
        cands = single_entity_candidates([1, 2])
        w1 = S.CandidateWeights(cands, np.array([0.5, 0.5]))
        w2 = S.CandidateWeights(cands, np.array([0.8, 0.2]))
        np.testing.assert_allclose(S.combine(w1, w2).weights, [0.8, 0.2])

    def test_disjoint_support_falls_back(self, caplog):
        cands = single_entity_candidates([1, 2])
        w1 = S.CandidateWeights(cands, np.array([1.0, 0.0]))
        w2 = S.CandidateWeights(cands, np.array([0.0, 1.0]))
        with caplog.at_level(logging.WARNING):
            combined = S.combine(w1, w2)
        assert "empty support" in caplog.text
        np.testing.assert_allclose(combined.weights, 0.5)

    def test_mismatched_candidates_rejected(self):
        w1 = S.uniform_weights(single_entity_candidates([1, 2]))
        w2 = S.uniform_weights(single_entity_candidates([1, 3]))
        with pytest.raises(ValueError, match="different candidate"):
            S.combine(w1, w2)


class TestSampleBatch:
    def test_matches_rng_choice(self):
        """Same indices and generator state as ``rng.choice(p=)``, the reference."""
        rng = np.random.default_rng(31)
        for n in (1, 2, 17, 1000):
            cands = single_entity_candidates(range(n))
            raw = rng.random(n) * (rng.random(n) < 0.7)    # some zero weights
            raw[rng.integers(n)] = 1.0
            for w in (S.uniform_weights(cands), S.CandidateWeights(cands, raw / raw.sum())):
                for seed in (0, 1, 2, 3):
                    for size in (1, 5, 128, 3001):
                        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                        first = S.sample_batch(w, size, ours)
                        second = S.sample_batch(w, size, ours)     # the cached cdf
                        for batch in (first, second):
                            idx = ref.choice(n, size=size, replace=True, p=w.weights)
                            np.testing.assert_array_equal(batch.anchors, idx)
                        assert ours.bit_generator.state == ref.bit_generator.state

    def test_degenerate_weights(self):
        cands = single_entity_candidates([7, 8])
        w = S.CandidateWeights(cands, np.array([1.0, 0.0]))
        batch = S.sample_batch(w, 64, np.random.default_rng(8))
        assert np.all(batch.anchors == 7)

    def test_deterministic_given_seed(self):
        cands = single_entity_candidates(range(50))
        w = S.uniform_weights(cands)
        a = S.sample_batch(w, 256, np.random.default_rng(9))
        b = S.sample_batch(w, 256, np.random.default_rng(9))
        assert np.array_equal(a.anchors, b.anchors)

    def test_empirical_distribution(self):
        n, draws = 100, 100_000
        cands = single_entity_candidates(range(n))
        w = S.uniform_weights(cands)
        batch = S.sample_batch(w, draws, np.random.default_rng(10))
        counts = np.bincount(batch.anchors, minlength=n).astype(float)
        assert np.max(np.abs(counts / draws - 1.0 / n)) < 0.005
        chi2 = float((((counts - draws / n) ** 2) / (draws / n)).sum())
        assert chi2 < CHI2_CRIT_999_DF99

    def test_nonuniform_empirical_distribution(self):
        rng = np.random.default_rng(11)
        n, draws = 100, 100_000
        cands = single_entity_candidates(range(n))
        raw = rng.random(n) + 0.05
        w = S.CandidateWeights(cands, raw / raw.sum())
        batch = S.sample_batch(w, draws, np.random.default_rng(12))
        counts = np.bincount(batch.anchors, minlength=n).astype(float)
        expected = w.weights * draws
        chi2 = float((((counts - expected) ** 2) / expected).sum())
        assert chi2 < CHI2_CRIT_999_DF99


class TestWeightInvariants:
    def test_every_emitted_weighting_is_normalized(self):
        rng = np.random.default_rng(13)
        cands = single_entity_candidates(range(40))
        cache = S.ErrorCache(
            candidates=cands, errors=rng.random(40), anchor_cutoff=39, day=1
        )
        checks = [
            S.temporal_weights(S.SchemeSpec("uniform", "uniform"), cands, 100 * 24, None, 24),
            S.temporal_weights(S.SchemeSpec("decay", "uniform"), cands, 100 * 24, None, 24),
            S.nontemporal_weights(S.SchemeSpec("uniform", "high_error"), cands, cache,
                                  None, NO_HISTORY, NO_HISTORY),
            S.nontemporal_weights(S.SchemeSpec("uniform", "low_error"), cands, cache,
                                  None, NO_HISTORY, NO_HISTORY),
        ]
        for w in checks:
            assert np.all(w.weights >= 0)
            assert w.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_negative_weights_rejected(self):
        cands = single_entity_candidates([1, 2])
        with pytest.raises(AssertionError):
            S.CandidateWeights(cands, np.array([1.5, -0.5]))


OPTIMIZED_SCRIPT = """
import numpy as np
from driftcast.data import InvariantError
from driftcast.profiles import _arc_counts
from driftcast.sampling import CandidateArray, CandidateWeights

cands = CandidateArray(np.zeros(2, dtype=np.int32), np.array([1, 2]))
spill = np.zeros((2, 40), dtype=np.int64)
spill[0] = 45  # row 0's arcs end inside row 1, whose crossings turn negative
for make in (lambda: CandidateWeights(cands, np.array([1.5, -0.5])),
             lambda: _arc_counts(spill, 5)):
    try:
        make()
        print("passed")
    except InvariantError:
        print("raised")
print(__debug__)
"""


def test_invariant_checks_survive_python_O():
    src = str(Path(driftcast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised", "False"]
