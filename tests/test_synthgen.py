import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from driftcast.data import DatasetError, load_dataset
from driftcast.synthgen import GenConfig, generate


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


SMALL = dict(n_entities=8, n_clusters=2, d=3, days=70, seed=4,
             noise_level=0.05, outlier_rate=0.0, scale_spread=3.0)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("gen") / "ds"
    generate(GenConfig(**SMALL), root)
    return load_dataset(root)


class TestGenerate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = GenConfig(n_entities=4, n_clusters=2, d=2, days=40, seed=7)
        a, b = tmp_path / "a", tmp_path / "b"
        generate(cfg, a)
        generate(cfg, b)
        assert dir_digest(a) == dir_digest(b)

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate(GenConfig(n_entities=4, n_clusters=2, d=2, days=40, seed=7), a)
        generate(GenConfig(n_entities=4, n_clusters=2, d=2, days=40, seed=8), b)
        assert dir_digest(a) != dir_digest(b)

    def test_drift_hour_recorded(self, tmp_path):
        cfg = GenConfig(n_entities=4, n_clusters=2, d=2, days=300,
                        drift_kind="abrupt", drift_day=200, seed=1)
        generate(cfg, tmp_path / "ds")
        meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
        assert meta["drift"]["hour"] == 4800

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="drift_day"):
            GenConfig(n_entities=4, n_clusters=2, days=40, drift_kind="abrupt")
        with pytest.raises(ValueError, match="n_clusters"):
            GenConfig(n_entities=2, n_clusters=5)
        with pytest.raises(ValueError, match="scale_spread"):
            GenConfig(scale_spread=0.5)

    def test_interaction_mass_concentrates_within_cluster(self, small_dataset):
        ds = small_dataset
        clusters = ds.meta["clusters"]
        ids = [r.entity_id for r in ds.records]
        for record in ds.records:
            mine = clusters[record.entity_id]
            mean_row = record.interactions.mean(axis=0)
            same = [i for i, e in enumerate(ids) if clusters[e] == mine]
            cross = [i for i, e in enumerate(ids) if clusters[e] != mine]
            assert np.all(record.interactions >= 0)
            assert mean_row[same].sum() >= 3.0 * mean_row[cross].sum()

    def test_feature_twin_clusters(self, small_dataset):
        # clusters 0 and 1 share clean feature profiles: averaging many
        # entities of each cluster should give near-identical channel means
        ds = small_dataset
        clusters = ds.meta["clusters"]
        prof = {0: [], 1: []}
        for record in ds.records:
            prof[clusters[record.entity_id]].append(record.features[: 24 * 7])
        mean0 = np.mean(prof[0], axis=0)
        mean1 = np.mean(prof[1], axis=0)
        corr = np.corrcoef(mean0[:, 1].ravel(), mean1[:, 1].ravel())[0, 1]
        assert corr > 0.98

    def test_drift_changes_functionals(self, tmp_path):
        cfg = GenConfig(n_entities=6, n_clusters=2, d=3, days=120, seed=2,
                        drift_kind="abrupt", drift_day=60, noise_level=0.02,
                        outlier_rate=0.0)
        generate(cfg, tmp_path / "ds")
        ds = load_dataset(tmp_path / "ds")
        # pre- and post-drift metric segments differ in their relation to
        # features: correlate metric with itself one regime apart
        for record in ds.records:
            pre = record.metric[24 * 20 : 24 * 40]
            post = record.metric[24 * 80 : 24 * 100]
            assert abs(pre.mean() - post.mean()) > 0.1 * (pre.std() + post.std())


class TestClusterOracle:
    def test_cluster_identity_separates_regressors(self, tmp_path):
        # least-squares oracle fit: with cluster identity the shape is
        # recoverable, without it the twin clusters cancel out
        cfg = GenConfig(n_entities=12, n_clusters=2, d=4, days=120, seed=3,
                        noise_level=0.05, outlier_rate=0.0, scale_spread=3.0,
                        entity_jitter=0.1)
        root = tmp_path / "ds"
        generate(cfg, root)
        ds = load_dataset(root)
        clusters = ds.meta["clusters"]
        lb, back, fwd = 48, 24, 24

        def windows(anchors):
            X, Y, C = [], [], []
            for record in ds.records:
                for a in anchors:
                    X.append(record.features[a - lb : a].ravel())
                    Y.append(record.metric[a - back : a + fwd])
                    C.append(clusters[record.entity_id])
            return np.array(X), np.array(Y), np.array(C)

        Xtr, Ytr, Ctr = windows(range(lb, 80 * 24, 6))
        Xte, Yte, Cte = windows(range(85 * 24, 118 * 24, 6))

        def znorm(A):
            mu, sd = A.mean(1, keepdims=True), A.std(1, keepdims=True)
            return (A - mu) / np.where(sd == 0, 1, sd)

        def nrmse(P, Y):
            return float(np.sqrt(((znorm(P) - znorm(Y)) ** 2).mean(1)).mean())

        def fit(X, Y):
            Xb = np.hstack([X, np.ones((len(X), 1))])
            return np.linalg.lstsq(Xb, Y, rcond=None)[0]

        def predict(X, W):
            return np.hstack([X, np.ones((len(X), 1))]) @ W

        with_cluster = np.zeros_like(Yte)
        for c in np.unique(Ctr):
            W = fit(Xtr[Ctr == c], Ytr[Ctr == c])
            mask = Cte == c
            with_cluster[mask] = predict(Xte[mask], W)
        without_cluster = predict(Xte, fit(Xtr, Ytr))

        assert nrmse(with_cluster, Yte) < 0.3
        assert nrmse(without_cluster, Yte) >= 0.7


class TestDescribe:
    """A generated directory as ``load_dataset`` reads it back."""

    def test_summary_matches_recomputation(self, tmp_path):
        root = tmp_path / "ds"
        generate(GenConfig(**SMALL), root)
        ds = load_dataset(root)
        assert len(ds.records) == SMALL["n_entities"]
        assert ds.days == SMALL["days"] and ds.n_features == SMALL["d"]
        assert ds.interaction_dim == SMALL["n_entities"]
        assert [r.entity_id for r in ds.records] == json.loads(
            (root / "meta.json").read_text())["entities"]
        body = np.loadtxt(root / "entity_e000.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(ds.records[0].features, body[:, 1:-1])
        np.testing.assert_array_equal(ds.records[0].metric, body[:, -1])

    def test_missing_interactions_named(self, tmp_path):
        root = tmp_path / "ds"
        generate(GenConfig(n_entities=3, n_clusters=1, d=2, days=40, seed=0), root)
        (root / "interactions.csv").unlink()
        with pytest.raises(DatasetError, match="interactions.csv"):
            load_dataset(root)

    def test_malformed_entity_file_has_location(self, tmp_path):
        root = tmp_path / "ds"
        generate(GenConfig(n_entities=3, n_clusters=1, d=2, days=40, seed=0), root)
        path = root / "entity_e001.csv"
        lines = path.read_text().splitlines()
        lines[5] = "not,a,valid,row"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="entity_e001.csv"):
            load_dataset(root)

    # lines[4] is day 1 of e000, lines[7] its day 2
    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines.__setitem__(4, lines[4].rsplit(",", 1)[0]), "4 were found"),
        (lambda lines: lines.__setitem__(4, lines[4] + "x"), "could not convert"),
        (lambda lines: lines.pop(7), "entity e000 must have one snapshot per day 0..38"),
        (lambda lines: lines.__setitem__(7, "5" + lines[7][1:]),
         "entity e000 must have one snapshot per day 0..39"),
    ], ids=["short row", "non-numeric count", "missing day", "repeated day"])
    def test_malformed_interactions_named(self, tmp_path, edit, message):
        root = tmp_path / "ds"
        generate(GenConfig(n_entities=3, n_clusters=1, d=2, days=40, seed=0), root)
        path = root / "interactions.csv"
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="interactions.csv") as err:
            load_dataset(root)
        assert message in str(err.value)
