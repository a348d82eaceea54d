import tracemalloc

import numpy as np
import pytest

from driftcast import model as M
from driftcast.data import InvariantError, znormalize_rows
from driftcast.nnkernel import AdamState, adam_step

SMALL = dict(
    n_features=3, interaction_dim=5, lookback=16, horizon=6,
    embed_dim=8, conv_channels=7, kernel_width=3, n_blocks=2,
    bank_size=4, shape_loss_weight=0.5,
)


def small_config(variant="proposed", **over):
    return M.ModelConfig(variant=variant, **{**SMALL, **over})


def random_batch(cfg, b=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(b, cfg.lookback, cfg.n_features))
    I = np.abs(rng.normal(size=(b, cfg.interaction_dim))) + 0.1
    Y = rng.normal(size=(b, cfg.horizon))
    return X, I, Y


BATCH_SIZES = (1, 3)


def interaction_rows(C, vec, b, seed=0):
    """``batch_forward``'s cached (i_norm, h_i) for ``vec`` as row b-1 of a batch of b.

    The other rows are random positive interaction vectors.
    """
    cfg = small_config(interaction_dim=C.shape[0], embed_dim=C.shape[1])
    rng = np.random.default_rng(seed)
    params = M.init_params(cfg, rng)
    params["embed.C"] = C
    I = np.abs(rng.normal(size=(b, cfg.interaction_dim))) + 0.1
    I[b - 1] = vec
    X = rng.normal(size=(b, cfg.lookback, cfg.n_features))
    cache = M.batch_forward(params, cfg, X, I)[1]
    np.testing.assert_allclose(cache["i_norm"], I / I.sum(axis=1, keepdims=True))
    np.testing.assert_allclose(cache["h_i"], cache["i_norm"] @ C)
    return cache["i_norm"][b - 1], cache["h_i"][b - 1]


class TestInteractionEncode:
    def test_one_hot_selects_row(self):
        rng = np.random.default_rng(0)
        C = rng.normal(size=(5, 8))
        one_hot = np.zeros(5)
        one_hot[3] = 7.0
        for b in BATCH_SIZES:
            np.testing.assert_allclose(interaction_rows(C, one_hot, b)[1], C[3])

    def test_sum_to_one_normalization(self):
        C = np.eye(4)
        for b in BATCH_SIZES:
            i_norm, h_i = interaction_rows(C, np.array([2.0, 6.0, 0.0, 0.0]), b)
            np.testing.assert_allclose(i_norm, [0.25, 0.75, 0.0, 0.0])
            np.testing.assert_allclose(h_i, [0.25, 0.75, 0.0, 0.0])

    def test_two_entity_average(self):
        rng = np.random.default_rng(1)
        C = rng.normal(size=(6, 4))
        vec = np.zeros(6)
        vec[1] = vec[4] = 3.0
        for b in BATCH_SIZES:
            np.testing.assert_allclose(interaction_rows(C, vec, b)[1], (C[1] + C[4]) / 2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        C = rng.normal(size=(5, 3))
        vec = np.abs(rng.normal(size=5))
        for b in BATCH_SIZES:
            a = interaction_rows(C, vec, b)[1]
            np.testing.assert_allclose(interaction_rows(C, 123.0 * vec, b)[1], a, atol=1e-12)

    def test_all_zero_rejected(self):
        for vec in (np.zeros(4), np.array([-1.0, 2.0, 0.0, 0.0])):
            for b in BATCH_SIZES:
                with pytest.raises(M.DegenerateInteractionError):
                    interaction_rows(np.eye(4), vec, b)
        assert issubclass(M.DegenerateInteractionError, ValueError)


def h_t_of(params, cfg, X, I):
    """Temporal representation from ``batch_forward``'s cache."""
    return M.batch_forward(params, cfg, X, I)[1]["h_t"]


def row_losses(err, serr, gamma):
    losses = (err * err).mean(axis=1)
    return losses if serr is None else losses + gamma * (serr * serr).mean(axis=1)


class TestTemporalEncode:
    def test_zero_params_give_zero(self):
        cfg = small_config()
        params = {k: np.zeros_like(v) for k, v in
                  M.init_params(cfg, np.random.default_rng(0)).items()}
        for b in BATCH_SIZES:
            X, I, _ = random_batch(cfg, b=b, seed=1)
            np.testing.assert_array_equal(h_t_of(params, cfg, X, I),
                                          np.zeros((b, cfg.conv_channels)))

    def test_last_row_sensitivity(self):
        cfg = small_config()
        params = M.init_params(cfg, np.random.default_rng(3))
        for b in BATCH_SIZES:
            X, I, _ = random_batch(cfg, b=b, seed=4)
            h1 = h_t_of(params, cfg, X, I)
            X2 = X.copy()
            X2[b - 1, -1] += 1.0
            h2 = h_t_of(params, cfg, X2, I)
            assert not np.allclose(h1[b - 1], h2[b - 1])
            # the other examples of the batch are untouched
            np.testing.assert_array_equal(h1[: b - 1], h2[: b - 1])


class TestScaleDecode:
    def test_zero_interaction_passage_gives_zero(self):
        cfg = small_config()
        params = M.init_params(cfg, np.random.default_rng(5))
        params["scale_inter1.W"][:] = 0.0
        params["scale_inter2.W"][:] = 0.0
        params["scale_inter2.b"][:] = 0.0
        for b in BATCH_SIZES:
            X, I, _ = random_batch(cfg, b=b, seed=6)
            out, _ = M.batch_forward(params, cfg, X, I)
            np.testing.assert_array_equal(out["sigma"], np.zeros(b))
            np.testing.assert_array_equal(out["mu"], np.zeros(b))

    def test_basis_pick(self):
        # processed temporal vector e_1 against a known mapping matrix
        cfg = small_config()
        params = M.init_params(cfg, np.random.default_rng(8))
        u = np.zeros(cfg.embed_dim)
        u[0] = 1.0
        w = np.zeros((cfg.embed_dim, 2))
        w[0] = [3.0, 7.0]
        out = u @ w
        assert tuple(out) == (3.0, 7.0)


class TestShapeDecode:
    def test_one_hot_mix_selects_bank_row(self):
        cfg = small_config()
        rng = np.random.default_rng(9)
        bank = rng.normal(size=(cfg.bank_size, cfg.horizon))
        mix = np.zeros(cfg.bank_size)
        mix[2] = 1.0
        np.testing.assert_allclose(mix @ bank, bank[2])

    def test_convexity_on_equal_rows(self):
        cfg = small_config()
        rng = np.random.default_rng(10)
        bank = rng.normal(size=(cfg.bank_size, cfg.horizon))
        bank[1] = bank[0]
        mix = np.array([0.4, 0.6, 0.0, 0.0])
        np.testing.assert_allclose(mix @ bank, bank[0])

    def test_mix_weights_positive_sum_one(self):
        cfg = small_config()
        params = M.init_params(cfg, np.random.default_rng(11))
        for seed in range(5):
            for b in BATCH_SIZES:
                X, I, _ = random_batch(cfg, b=b, seed=seed)
                out, _ = M.batch_forward(params, cfg, X, I)
                mix = out["mix_weights"]
                assert mix.shape == (b, cfg.bank_size)
                assert np.all(mix > 0)
                np.testing.assert_allclose(mix.sum(axis=1), 1.0, rtol=0, atol=1e-12)
                np.testing.assert_array_equal(
                    out["shape"], np.einsum("bn,bnh->bh", mix, out["bank"])
                )


class TestForward:
    def test_amalgamate_identity(self):
        cfg = small_config()
        params = M.init_params(cfg, np.random.default_rng(12))
        for b in BATCH_SIZES:
            X, I, _ = random_batch(cfg, b=b, seed=13)
            out, _ = M.batch_forward(params, cfg, X, I)
            np.testing.assert_array_equal(
                out["m_hat"], out["shape"] * out["sigma"][:, None] + out["mu"][:, None]
            )

    def test_flat_shape_gives_constant_output(self):
        shape = np.zeros(6)
        m_hat = shape * 2.0 + 3.0
        np.testing.assert_array_equal(m_hat, np.full(6, 3.0))
        shape = np.zeros(6)
        shape[1] = 1.0
        np.testing.assert_array_equal((shape * 2.0 + 3.0)[:2], [3.0, 5.0])

    def test_prediction_fields_by_variant(self):
        for variant in M.VARIANTS:
            cfg = small_config(variant)
            params = M.init_params(cfg, np.random.default_rng(14))
            X, I, _ = random_batch(cfg, b=3, seed=15)
            batch, _ = M.batch_forward(params, cfg, X, I)
            for b in BATCH_SIZES:
                out, _ = M.batch_forward(params, cfg, X[:b], I[:b])
                assert out["m_hat"].shape == (b, 6)
                # each example's output does not depend on the rest of the batch
                np.testing.assert_allclose(out["m_hat"], batch["m_hat"][:b],
                                           rtol=0, atol=1e-12)
                if variant == "proposed":
                    assert out["shape"].shape == (b, 6)
                    assert out["bank"].shape == (b, 4, 6)
                else:
                    assert set(out) == {"m_hat"}


class TestLoss:
    """``loss_errors`` on hand-made rows, and the batch losses built on it."""

    def test_perfect_prediction_zero_loss(self):
        target = np.array([[1.0, 2.0, 3.0, 4.0]])
        ztarget, _ = znormalize_rows(target)
        err, serr = M.loss_errors(ztarget * 2.0 + 1.0, ztarget, ztarget * 2.0 + 1.0)
        assert row_losses(err, serr, gamma=3.0)[0] == pytest.approx(0.0)

    def test_zero_shape_term_is_gamma(self):
        # z-scores have unit population variance, so a flat shape costs gamma
        target = np.array([[1.0, 2.0, 4.0, 8.0]])
        shape = np.zeros((1, 4))
        err, serr = M.loss_errors(shape * 1.0 + 0.0, shape, target)
        expected_mse = float((target**2).mean())
        assert row_losses(err, serr, gamma=2.5)[0] == pytest.approx(expected_mse + 2.5)
        # without a shape (base variants) only the error term is left
        err, serr = M.loss_errors(shape, None, target)
        assert serr is None
        assert row_losses(err, serr, gamma=2.5)[0] == pytest.approx(expected_mse)

    def test_degenerate_target_drops_shape_term(self):
        shape = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0]])
        target = np.array([[7.0, 7.0, 7.0], [1.0, 2.0, 3.0]])
        err, serr = M.loss_errors(shape * 1.0 + 0.0, shape, target)
        np.testing.assert_array_equal(serr[0], np.zeros(3))
        assert np.all(serr[1] != 0.0)
        expected_mse = float(((shape[0] - target[0]) ** 2).mean())
        assert row_losses(err, serr, gamma=10.0)[0] == pytest.approx(expected_mse)

    def test_matches_hand_computed_value(self):
        rng = np.random.default_rng(17)
        cfg = small_config()
        params = M.init_params(cfg, rng)
        X, I, Y = random_batch(cfg, b=4, seed=18)
        Y[2] = 1.5
        losses = M.batch_losses(params, cfg, X, I, Y, gamma=0.7)
        out, _ = M.batch_forward(params, cfg, X, I)
        for i in range(4):
            mse = float(((out["m_hat"][i] - Y[i]) ** 2).mean())
            y = Y[i]
            degenerate = y.std() == 0.0
            zy = np.zeros_like(y) if degenerate else (y - y.mean()) / y.std()
            nmse = 0.0 if degenerate else float(((out["shape"][i] - zy) ** 2).mean())
            assert losses[i] == pytest.approx(mse + 0.7 * nmse, abs=1e-12)
        # the mean training loss is the mean of the per-example losses
        loss, _ = M.batch_loss_and_grads(params, cfg, X, I, Y, gamma=0.7)
        assert loss == pytest.approx(losses.mean(), abs=1e-12)


def finite_difference_check(variant, seed=0, coords=40, eps=1e-6, tol=1e-5):
    rng = np.random.default_rng(seed)
    cfg = small_config(variant)
    params = M.init_params(cfg, rng)
    X, I, Y = random_batch(cfg, b=2, seed=seed + 100)
    _, grads = M.batch_loss_and_grads(params, cfg, X, I, Y, gamma=0.5)
    worst = 0.0
    for name, p in params.items():
        flat = p.ravel()
        ana = grads[name].ravel()
        picks = (
            range(flat.size) if flat.size <= coords
            else rng.choice(flat.size, coords, replace=False)
        )
        for i in picks:
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = M.batch_loss_and_grads(params, cfg, X, I, Y, gamma=0.5)
            flat[i] = orig - eps
            down, _ = M.batch_loss_and_grads(params, cfg, X, I, Y, gamma=0.5)
            flat[i] = orig
            num = (up - down) / (2 * eps)
            worst = max(worst, abs(num - ana[i]) / max(1.0, abs(num), abs(ana[i])))
    assert worst < tol, f"{variant}: max relative error {worst}"


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_full_model_gradients(variant):
    finite_difference_check(variant)


def test_one_example_overfit():
    rng = np.random.default_rng(19)
    cfg = small_config(conv_channels=8, shape_loss_weight=1.0)
    params = M.init_params(cfg, rng)
    X, I, Y = random_batch(cfg, b=1, seed=20)
    state = AdamState.zeros(len(params.flat), 0.01)
    initial, _ = M.batch_loss_and_grads(params, cfg, X, I, Y, 1.0)
    for _ in range(500):
        _, grads = M.batch_loss_and_grads(params, cfg, X, I, Y, 1.0)
        adam_step(params.flat, grads.flat, state)
    final, _ = M.batch_loss_and_grads(params, cfg, X, I, Y, 1.0)
    assert final < 1e-3 * initial


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        small_config("proposed_gru")


class TestWorkspace:
    """The TCN's activations live in reused per-thread buffers."""

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_outputs_survive_the_next_forward_pass(self, variant):
        cfg = small_config(variant)
        params = M.init_params(cfg, np.random.default_rng(2))
        X, I, _ = random_batch(cfg, b=3, seed=3)
        out, cache = M.batch_forward(params, cfg, X, I)
        kept = {k: v.copy() for k, v in out.items()}
        h_t = cache["h_t"].copy()
        X2, I2, _ = random_batch(cfg, b=5, seed=4)
        M.batch_forward(params, cfg, X2, I2)
        M.batch_loss_and_grads(params, cfg, X2, I2, np.zeros((5, cfg.horizon)), 0.5)
        for k, v in kept.items():
            assert out[k].tobytes() == v.tobytes(), k
        assert cache["h_t"].tobytes() == h_t.tobytes()

    def test_backward_on_a_refilled_cache_raises(self):
        cfg = small_config()
        params = M.init_params(cfg, np.random.default_rng(5))
        X, I, Y = random_batch(cfg, b=2, seed=6)
        out, cache = M.batch_forward(params, cfg, X, I)
        grad = np.ones_like(out["m_hat"])
        M.batch_forward(params, cfg, X[:1], I[:1])        # refills the buffers
        with pytest.raises(InvariantError, match="overwritten"):
            M.batch_backward(params, cfg, cache, grad)
        # and a cache serves one backward pass: it overwrites the buffers
        _, cache = M.batch_forward(params, cfg, X, I)
        M.batch_backward(params, cfg, cache, grad)
        with pytest.raises(InvariantError, match="overwritten"):
            M.batch_backward(params, cfg, cache, grad)

    def test_inference_passes_leave_the_cache_alone(self):
        cfg = small_config()
        params = M.init_params(cfg, np.random.default_rng(9))
        X, I, _ = random_batch(cfg, b=2, seed=10)
        out, cache = M.batch_forward(params, cfg, X, I)
        grad = np.ones_like(out["m_hat"])
        expected = M.batch_backward(params, cfg, cache, grad).flat.copy()
        _, cache = M.batch_forward(params, cfg, X, I)
        X2, I2, Y2 = random_batch(cfg, b=7, seed=11)    # larger than the cached batch
        M.batch_predict(params, cfg, X2, I2)
        M.batch_losses(params, cfg, X2, I2, Y2, 0.5)
        assert M.batch_backward(params, cfg, cache, grad).flat.tobytes() == expected.tobytes()
        _, cache = M.batch_forward(params, cfg, X, I, for_backward=False)
        with pytest.raises(InvariantError, match="without a backward cache"):
            M.batch_backward(params, cfg, cache, grad)

    def test_gradients_are_a_fresh_flat_vector(self):
        cfg = small_config()
        params = M.init_params(cfg, np.random.default_rng(7))
        X, I, Y = random_batch(cfg, b=2, seed=8)
        _, g1 = M.batch_loss_and_grads(params, cfg, X, I, Y, 0.5)
        kept = g1.flat.copy()
        _, g2 = M.batch_loss_and_grads(params, cfg, X[::-1], I[::-1], Y, 0.5)
        assert not np.shares_memory(g1.flat, g2.flat)
        assert g1.flat.tobytes() == kept.tobytes()
        assert list(g1) == list(params)
        assert all(g1[n].shape == p.shape for n, p in params.items())
        assert all(np.shares_memory(g1[n], g1.flat) for n in g1)

    def test_steady_state_step_allocates_little(self):
        """A desk-shape training step takes its activations from the workspace."""
        cfg = M.ModelConfig(variant="proposed", n_features=1, interaction_dim=8,
                            lookback=48, horizon=48, embed_dim=16, conv_channels=16,
                            kernel_width=3, n_blocks=2, bank_size=8)
        rng = np.random.default_rng(9)
        params = M.init_params(cfg, rng)
        state = AdamState.zeros(len(params.flat), 1e-3)
        batches = [(rng.normal(size=(128, 48, 1)), rng.uniform(1, 5, size=(128, 8)),
                    rng.normal(size=(128, 48))) for _ in range(2)]

        def step(X, I, Y):
            _, grads = M.batch_loss_and_grads(params, cfg, X, I, Y, 0.5)
            adam_step(params.flat, grads.flat, state)

        step(*batches[0])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step(*batches[1])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the activations alone are 6 buffers of 128 x 48 x 16 doubles, 4.7 MB
        assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MB"
