import numpy as np
import pytest

from driftcast import nnkernel as nn
from gradcheck import grad_check


def check_op_gradient(forward, backward, x, seed=0):
    """Gradient of sum(forward(x)) against central differences."""
    rng = np.random.default_rng(seed)
    gy = rng.normal(size=forward(x).shape)

    def f(xx):
        y = forward(xx)
        return float((y * gy).sum()), backward(xx, gy)

    return grad_check(f, x)


# --------------------------------------------------------------------------
# Slow im2col reference for the causal conv: builds the (rows, c_in * width)
# patch matrix and scatters its gradient back through a padded buffer.
# --------------------------------------------------------------------------


def _conv_cols(x, width):
    """Causal patch matrix: cols[..., t, i, dt] = x[..., t - width + 1 + dt, i]."""
    pad = [(0, 0)] * x.ndim
    pad[-2] = (width - 1, 0)
    xp = np.pad(x, pad)
    return np.lib.stride_tricks.sliding_window_view(xp, width, axis=-2)


def im2col_conv(x, K, b):
    c_out, c_in, width = K.shape
    cols = _conv_cols(x, width)
    kmat = K.transpose(1, 2, 0).reshape(c_in * width, c_out)
    flat = cols.reshape(*cols.shape[:-2], c_in * width)
    return flat @ kmat + b


def im2col_conv_backward(x, K, grad_y):
    c_out, c_in, width = K.shape
    t = x.shape[-2]
    cols = _conv_cols(x, width).reshape(-1, c_in * width)
    gf = grad_y.reshape(-1, c_out)
    kmat = K.transpose(1, 2, 0).reshape(c_in * width, c_out)
    grad_b = gf.sum(axis=0)
    grad_K = (cols.T @ gf).reshape(c_in, width, c_out).transpose(2, 0, 1)
    gcols = (gf @ kmat.T).reshape(*grad_y.shape[:-1], c_in, width)
    pad_shape = list(x.shape)
    pad_shape[-2] = t + width - 1
    gxp = np.zeros(pad_shape)
    for dt in range(width):
        gxp[..., dt : dt + t, :] += gcols[..., dt]
    return gxp[..., width - 1 :, :], grad_K, grad_b


class TestDense:
    def test_identity(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(nn.dense(x, np.eye(2), np.zeros(2)), x)

    def test_zero_input_gives_bias(self):
        rng = np.random.default_rng(0)
        W, b = rng.normal(size=(3, 4)), rng.normal(size=4)
        np.testing.assert_array_equal(nn.dense(np.zeros(3), W, b), b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="dense shape"):
            nn.dense(np.zeros(3), np.zeros((4, 2)), np.zeros(2))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        x, W, b = rng.normal(size=5), rng.normal(size=(5, 3)), rng.normal(size=3)
        err = check_op_gradient(
            lambda xx: nn.dense(xx, W, b),
            lambda xx, gy: nn.dense_backward(xx, W, gy)[0],
            x,
        )
        assert err < 1e-6
        err_w = check_op_gradient(
            lambda ww: nn.dense(x, ww.reshape(5, 3), b),
            lambda ww, gy: nn.dense_backward(x, ww.reshape(5, 3), gy)[1].ravel(),
            W.ravel(),
        )
        assert err_w < 1e-6


class TestConv1dCausal:
    def test_running_sum(self):
        x = np.array([[1.0], [2.0], [3.0]])
        K = np.ones((1, 1, 3))
        y = nn.conv1d_causal(x, K, np.zeros(1))
        np.testing.assert_array_equal(y.ravel(), [1.0, 3.0, 6.0])

    def test_width_one_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 1))
        y = nn.conv1d_causal(x, np.ones((1, 1, 1)), np.zeros(1))
        np.testing.assert_allclose(y, x)

    def test_against_nested_sum_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, 3))
        K = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=2)
        y = nn.conv1d_causal(x, K, b)
        t_len, c_out, c_in, w = 9, 2, 3, 4
        oracle = np.zeros((t_len, c_out))
        for t in range(t_len):
            for o in range(c_out):
                acc = b[o]
                for i in range(c_in):
                    for dt in range(w):
                        src = t - (w - 1) + dt
                        if src >= 0:
                            acc += K[o, i, dt] * x[src, i]
                oracle[t, o] = acc
        np.testing.assert_allclose(y, oracle, atol=1e-10)

    def test_causality(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 2))
        K = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=3)
        y = nn.conv1d_causal(x, K, b)
        x2 = x.copy()
        x2[7:] += 100.0
        y2 = nn.conv1d_causal(x2, K, b)
        np.testing.assert_array_equal(y[:7], y2[:7])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 2))
        K = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=3)
        err_x = check_op_gradient(
            lambda xx: nn.conv1d_causal(xx, K, b),
            lambda xx, gy: nn.conv1d_causal_backward(xx, K, gy)[0],
            x, seed,
        )
        err_k = check_op_gradient(
            lambda kk: nn.conv1d_causal(x, kk.reshape(3, 2, 3), b),
            lambda kk, gy: nn.conv1d_causal_backward(x, kk.reshape(3, 2, 3), gy)[1].ravel(),
            K.ravel(), seed,
        )
        assert err_x < 1e-6 and err_k < 1e-6

    @pytest.mark.parametrize(
        "x_shape, k_shape",
        [
            ((4, 10, 3), (5, 3, 3)),      # batched, B >= 2
            ((2, 3, 7, 3), (4, 3, 3)),    # two leading batch axes
            ((3, 2, 3), (2, 3, 4)),       # T < width
            ((3, 1, 2), (2, 2, 3)),       # a single time step
            ((5, 6, 2), (3, 2, 1)),       # width == 1
            ((9, 3), (2, 3, 4)),          # unbatched
        ],
    )
    def test_against_im2col_oracle(self, x_shape, k_shape):
        rng = np.random.default_rng(11)
        x = rng.normal(size=x_shape)
        K = rng.normal(size=k_shape)
        b = rng.normal(size=k_shape[0])
        y = nn.conv1d_causal(x, K, b)
        np.testing.assert_allclose(y, im2col_conv(x, K, b), rtol=0, atol=1e-12)
        gy = rng.normal(size=y.shape)
        got = nn.conv1d_causal_backward(x, K, gy)
        for g, ref in zip(got, im2col_conv_backward(x, K, gy)):
            assert g.shape == ref.shape
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)
        _, gk, gb = nn.conv1d_causal_backward(x, K, gy, need_grad_x=False)
        np.testing.assert_array_equal(gk, got[1])
        np.testing.assert_array_equal(gb, got[2])

    def test_non_contiguous_inputs_match_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 3, 11)).transpose(0, 2, 1)[:, ::2]   # (6, 6, 3)
        K = rng.normal(size=(3, 4, 3)).transpose(1, 0, 2)            # (4, 3, 3)
        b = rng.normal(size=4)
        assert not x.flags.c_contiguous and not K.flags.c_contiguous
        y = nn.conv1d_causal(x, K, b)
        np.testing.assert_allclose(y, im2col_conv(x, K, b), rtol=0, atol=1e-12)
        gy = rng.normal(size=(6, 8, 4))[:, 1:7]
        got = nn.conv1d_causal_backward(x, K, gy)
        for g, ref in zip(got, im2col_conv_backward(x, K, gy)):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)

    def test_batched_kernel_gradient(self):
        # B = 3 crosses two series boundaries, which the grad_K correction handles
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 5, 2))
        K = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=3)
        err_k = check_op_gradient(
            lambda kk: nn.conv1d_causal(x, kk.reshape(K.shape), b),
            lambda kk, gy: nn.conv1d_causal_backward(x, kk.reshape(K.shape), gy)[1].ravel(),
            K.ravel(), 13,
        )
        assert err_k < 1e-6


class TestRelu:
    def test_values(self):
        np.testing.assert_array_equal(nn.relu(np.array([-1.0, 2.0])), [0.0, 2.0])
        np.testing.assert_array_equal(nn.relu(np.array([-5.0, -0.1])), [0.0, 0.0])

    def test_subgradient_at_zero_is_zero(self):
        g = nn.relu_backward(np.array([0.0, 1.0, -1.0]), np.ones(3))
        np.testing.assert_array_equal(g, [0.0, 1.0, 0.0])

    def test_in_place_and_output_mask(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=12)
        a[3] = 0.0
        ref = nn.relu(a)
        gy = rng.normal(size=12)
        expected = nn.relu_backward(a, gy)
        r = nn.relu(a, out=a)
        assert r is a
        np.testing.assert_array_equal(r, ref)
        np.testing.assert_array_equal(nn.relu_backward(r, gy), expected)

    def test_gradient_away_from_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=10) + np.sign(rng.normal(size=10)) * 0.5
        err = check_op_gradient(nn.relu, nn.relu_backward, x)
        assert err < 1e-6


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(nn.softmax(np.zeros(2)), [0.5, 0.5])

    def test_shift_invariance(self):
        np.testing.assert_allclose(nn.softmax(np.array([1000.0, 1000.0])), [0.5, 0.5])
        rng = np.random.default_rng(5)
        x = rng.normal(size=6)
        np.testing.assert_allclose(nn.softmax(x), nn.softmax(x + 123.0), atol=1e-12)

    def test_closed_form(self):
        np.testing.assert_allclose(
            nn.softmax(np.array([np.log(2.0), 0.0])), [2 / 3, 1 / 3]
        )

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            y = nn.softmax(rng.normal(size=8) * 10)
            assert abs(y.sum() - 1.0) < 1e-12
            assert np.all(y > 0)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=6)
        err = check_op_gradient(
            nn.softmax, lambda xx, gy: nn.softmax_backward(nn.softmax(xx), gy), x
        )
        assert err < 1e-6


class TestGlobalAvgPool:
    def test_values(self):
        np.testing.assert_array_equal(
            nn.global_avg_pool_time(np.array([[1.0, 2.0], [3.0, 4.0]])), [2.0, 3.0]
        )
        row = np.array([[5.0, 6.0]])
        np.testing.assert_array_equal(nn.global_avg_pool_time(row), [5.0, 6.0])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty time axis"):
            nn.global_avg_pool_time(np.zeros((0, 3)))

    def test_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 3))
        err = check_op_gradient(
            nn.global_avg_pool_time, nn.global_avg_pool_time_backward, x
        )
        assert err < 1e-6

    def test_pool_gradient_masked_in_place_over_the_relu_output(self):
        # the TCN's top block: the pooling gradient taken through the ReLU,
        # written over the ReLU output that the mask is read from
        rng = np.random.default_rng(18)
        r = nn.relu(rng.normal(size=(4, 7, 3)))
        g = rng.normal(size=(4, 3))
        g[0, 0] = -1.5                   # masked negatives give -0.0, as grad * mask does
        expected = np.broadcast_to((g / 7)[:, None, :], r.shape) * (r > 0)
        buf = r.copy()
        out = nn.relu_backward(buf, nn.global_avg_pool_time_backward(buf, g), out=buf)
        assert out is buf and buf.tobytes() == expected.tobytes()


def adam_step_per_array(param, grad, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-array Adam update the fused one replaced: the reference.

    Returns (new_param, m, v) after step t (1-based), allocating every result.
    """
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad * grad
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdam:
    def test_first_step_magnitude(self):
        p = np.array([1.0])
        g = np.array([0.5])
        state = nn.AdamState.zeros(1, learning_rate=1e-3)
        nn.adam_step(p, g, state)
        delta = float(1.0 - p[0])
        # closed form: lr * |g| / (|g| + eps)
        assert delta == pytest.approx(1e-3 * 0.5 / (0.5 + 1e-8), abs=1e-15)
        assert delta > 0  # moved against the positive gradient
        assert state.step_count == 1

    def test_zero_gradient_no_move(self):
        p = np.array([1.0, -2.0])
        state = nn.AdamState.zeros(2, learning_rate=0.1)
        nn.adam_step(p, np.zeros(2), state)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_quadratic_descent_matches_scalar_recursion(self):
        # independent scalar recursion of the same update rule
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p_ref, m, v = 1.0, 0.0, 0.0
        for t in range(1, 101):
            g = 2 * p_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        p = np.array([1.0])
        state = nn.AdamState.zeros(1, learning_rate=lr)
        for _ in range(100):
            nn.adam_step(p, 2 * p, state)
        assert abs(float(p[0])) < 1.0
        assert float(p[0]) == pytest.approx(p_ref, abs=1e-12)

    def test_non_finite_gradient_fails_fast(self):
        p = np.array([1.0, 2.0])
        state = nn.AdamState.zeros(2, learning_rate=0.1)
        nn.adam_step(p, np.array([0.5, -0.5]), state)
        before = (p.copy(), state.first_moment.copy(), state.second_moment.copy())
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                nn.adam_step(p, np.array([0.1, bad]), state)
        # nothing was updated
        for now, then in zip((p, state.first_moment, state.second_moment), before):
            np.testing.assert_array_equal(now, then)
        assert state.step_count == 1

    def test_shape_mismatch_rejected(self):
        state = nn.AdamState.zeros(3, learning_rate=0.1)
        with pytest.raises(ValueError, match="unlike param"):
            nn.adam_step(np.zeros(2), np.zeros(2), state)

    def test_fused_equals_per_array_oracle(self):
        """One update of a flat vector is, bit for bit, one per piece of it."""
        rng = np.random.default_rng(21)
        shapes = [("a", (3, 4, 2)), ("b", (5,)), ("c", (7, 3)), ("d", (1,))]
        params = nn.FlatViews.empty(shapes)
        params.flat[:] = rng.normal(size=len(params.flat))
        ref = {name: (p.copy(), np.zeros_like(p), np.zeros_like(p))
               for name, p in params.items()}
        state = nn.AdamState.zeros(len(params.flat), learning_rate=3e-3)
        for t in range(1, 51):
            grads = params.over(rng.normal(size=len(params.flat)) * 10.0 ** rng.integers(-6, 3))
            if t % 7 == 0:
                grads.flat[:] = 0.0                # an all-zero gradient
            grads["c"][rng.random(grads["c"].shape) < 0.3] = 0.0
            nn.adam_step(params.flat, grads.flat, state)
            for name, (p_ref, m_ref, v_ref) in ref.items():
                ref[name] = adam_step_per_array(p_ref, grads[name], m_ref, v_ref, t, 3e-3)
            m, v = params.over(state.first_moment), params.over(state.second_moment)
            for name, (p_ref, m_ref, v_ref) in ref.items():
                assert params[name].tobytes() == p_ref.tobytes(), (t, name)
                assert m[name].tobytes() == m_ref.tobytes(), (t, name)
                assert v[name].tobytes() == v_ref.tobytes(), (t, name)
        assert state.step_count == 50


class TestFlatViews:
    def test_views_cover_the_vector_in_order(self):
        flat = np.arange(10.0)
        views = nn.FlatViews(flat, [("w", (2, 3)), ("b", (4,))])
        assert list(views) == ["w", "b"]
        np.testing.assert_array_equal(views["w"], [[0, 1, 2], [3, 4, 5]])
        views["b"][...] = -1.0
        np.testing.assert_array_equal(flat[6:], -1.0)
        other = views.over(np.zeros(10))
        assert [a.shape for a in other.values()] == [(2, 3), (4,)]
        assert np.shares_memory(other["w"], other.flat)

    def test_length_must_match_the_layout(self):
        with pytest.raises(ValueError, match="layout"):
            nn.FlatViews(np.zeros(9), [("w", (2, 3)), ("b", (4,))])
        with pytest.raises(ValueError, match="layout"):
            nn.FlatViews(np.zeros((2, 5)), [("w", (10,))])
        with pytest.raises(ValueError, match="layout"):
            nn.FlatViews(np.zeros(20)[::2], [("w", (10,))])


class TestGradCheck:
    def test_sum_function(self):
        err = grad_check(lambda x: (x.sum(), np.ones_like(x)), np.arange(5.0))
        assert err < 1e-10

    def test_zero_function(self):
        err = grad_check(lambda x: (0.0, np.zeros_like(x)), np.arange(3.0))
        assert err == 0.0

    def test_composed_network(self):
        rng = np.random.default_rng(9)
        W1, b1 = rng.normal(size=(4, 6)), rng.normal(size=6)
        W2, b2 = rng.normal(size=(6, 2)), rng.normal(size=2)

        def f(x):
            a1 = nn.dense(x, W1, b1)
            r1 = nn.relu(a1)
            y = nn.dense(r1, W2, b2)
            gy = np.ones_like(y)
            gr1, _, _ = nn.dense_backward(r1, W2, gy)
            ga1 = nn.relu_backward(a1, gr1)
            gx, _, _ = nn.dense_backward(x, W1, ga1)
            return float(y.sum()), gx

        assert grad_check(f, rng.normal(size=4)) < 1e-6

    def test_wrong_gradient_is_caught(self):
        err = grad_check(lambda x: (float((x**2).sum()), x), np.array([1.0, 2.0]))
        assert err > 1e-2
