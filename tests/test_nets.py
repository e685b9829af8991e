
import numpy as np
import pytest

from gqn.blob import load_blob, save_blob
from gqn.nets import (
    DivergenceError,
    adam_step,
    backward,
    copy_params,
    forward,
    huber_loss_and_grad,
    init_adam,
    init_net,
    net_from_state,
    net_state,
)


def finite_difference_grads(net, inputs, output_grads, h=1e-5):
    """Central differences of F(params) = sum(forward(inputs) * output_grads)."""

    def objective():
        out, _ = forward(net, inputs)
        return float(np.sum(out * output_grads))

    fd_w, fd_b = [], []
    for params, store in ((net.weights, fd_w), (net.biases, fd_b)):
        for p in params:
            g = np.zeros_like(p)
            flat = p.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.shape[0]):
                orig = flat[i]
                flat[i] = orig + h
                up = objective()
                flat[i] = orig - h
                down = objective()
                flat[i] = orig
                gflat[i] = (up - down) / (2 * h)
            store.append(g)
    return fd_w, fd_b


def assert_grads_close(analytic, fd, rel=1e-4):
    for a, f in zip(analytic, fd):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        assert np.max(np.abs(a - f) / denom) < rel


def relu_margin(net, inputs) -> float:
    """Distance of hidden pre-activations from the ReLU kink."""
    _, cache = forward(net, inputs)
    return min(float(np.min(np.abs(z))) for z in cache.pre_activations[:-1])


class TestInitNet:
    def test_deterministic_given_seed(self):
        a = init_net([3, 4, 2], seed=7)
        b = init_net([3, 4, 2], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_fan_in_bound(self):
        net = init_net([3, 4, 2], seed=1)
        assert np.all(np.abs(net.weights[0]) <= 1.0 / np.sqrt(3))
        assert np.all(np.abs(net.weights[1]) <= 1.0 / np.sqrt(4))

    def test_biases_zero(self):
        net = init_net([3, 4, 2], seed=1)
        for b in net.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError):
            init_net([1], seed=0)

    def test_non_positive_dims_rejected(self):
        with pytest.raises(ValueError):
            init_net([3, 0, 2], seed=0)

    def test_shapes_chain(self):
        net = init_net([3, 5, 4, 2], seed=0)
        assert [w.shape for w in net.weights] == [(5, 3), (4, 5), (2, 4)]
        assert [b.shape for b in net.biases] == [(5,), (4,), (2,)]


class TestForward:
    def test_zero_weight_net_maps_to_zero(self):
        net = init_net([3, 4, 2], seed=0)
        for w in net.weights:
            w[:] = 0.0
        out, _ = forward(net, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_identity_single_layer(self):
        net = init_net([3, 3], seed=0)
        net.weights[0][:] = np.eye(3)
        net.biases[0][:] = 0.0
        x = np.random.default_rng(1).normal(size=(4, 3))
        out, _ = forward(net, x)
        assert np.array_equal(out, x)

    def test_identical_rows_give_identical_outputs(self):
        net = init_net([3, 8, 2], seed=3)
        row = np.random.default_rng(2).normal(size=3)
        out, _ = forward(net, np.stack([row, row]))
        assert np.array_equal(out[0], out[1])

    def test_shape_mismatch_rejected(self):
        net = init_net([3, 4, 2], seed=0)
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 5)))

    def test_outputs_finite(self):
        net = init_net([4, 16, 3], seed=5)
        out, _ = forward(net, np.random.default_rng(0).normal(size=(10, 4)))
        assert np.all(np.isfinite(out))


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = init_net([4, 8, 3], seed=11)
        x = rng.normal(size=(3, 4))
        assert relu_margin(net, x) > 1e-3  # keep finite differences off the kink
        gout = rng.normal(size=(3, 3))
        _, cache = forward(net, x)
        grads = backward(net, cache, gout)
        fd_w, fd_b = finite_difference_grads(net, x, gout)
        assert_grads_close(grads.weights, fd_w)
        assert_grads_close(grads.biases, fd_b)

    def test_matches_finite_differences_deeper(self):
        rng = np.random.default_rng(29)
        net = init_net([8, 16, 16, 5], seed=292)
        x = rng.normal(size=(2, 8))
        assert relu_margin(net, x) > 1e-3
        gout = rng.normal(size=(2, 5))
        _, cache = forward(net, x)
        grads = backward(net, cache, gout)
        fd_w, fd_b = finite_difference_grads(net, x, gout)
        assert_grads_close(grads.weights, fd_w)
        assert_grads_close(grads.biases, fd_b)

    def test_zero_output_grads(self):
        net = init_net([4, 8, 3], seed=1)
        _, cache = forward(net, np.ones((2, 4)))
        grads = backward(net, cache, np.zeros((2, 3)))
        for g in grads.weights + grads.biases:
            assert np.array_equal(g, np.zeros_like(g))

    def test_linearity_in_output_grads(self):
        rng = np.random.default_rng(4)
        net = init_net([4, 8, 3], seed=4)
        x = rng.normal(size=(2, 4))
        gout = rng.normal(size=(2, 3))
        _, cache = forward(net, x)
        g1 = backward(net, cache, gout)
        g2 = backward(net, cache, 2.0 * gout)
        for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
            assert np.allclose(2.0 * a, b, rtol=0, atol=0)

    def test_stale_cache_rejected(self):
        net = init_net([4, 8, 3], seed=0)
        other = init_net([4, 6, 3], seed=0)
        _, cache = forward(other, np.ones((2, 4)))
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros((2, 3)))

    def test_mismatched_output_grads_rejected(self):
        net = init_net([4, 8, 3], seed=0)
        _, cache = forward(net, np.ones((2, 4)))
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros((5, 3)))


class TestHuber:
    def test_zero_residual(self):
        loss, grad = huber_loss_and_grad(np.array([1.0, -2.0]), np.array([1.0, -2.0]), 1.0)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_quadratic_branch(self):
        loss, _ = huber_loss_and_grad(np.array([0.0]), np.array([0.5]), 1.0)
        assert loss == pytest.approx(0.125, abs=0)

    def test_linear_branch(self):
        loss, _ = huber_loss_and_grad(np.array([0.0]), np.array([3.0]), 1.0)
        assert loss == pytest.approx(2.5, abs=0)

    def test_gradient_bound(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=32) * 10
        target = rng.normal(size=32) * 10
        w = rng.uniform(0, 2, size=32)
        delta = 0.7
        _, grad = huber_loss_and_grad(pred, target, delta, w)
        assert np.all(np.abs(grad) <= w * delta / 32 + 1e-15)

    def test_continuity_at_delta(self):
        delta = 1.0
        eps = 1e-9
        pred = np.array([0.0])
        lo_loss, lo_grad = huber_loss_and_grad(pred, np.array([delta - eps]), delta)
        hi_loss, hi_grad = huber_loss_and_grad(pred, np.array([delta + eps]), delta)
        assert abs(hi_loss - lo_loss) < 1e-8
        assert abs(hi_grad[0] - lo_grad[0]) < 1e-8

    def test_weighted_mean(self):
        # two items, weights (2, 0): only the first contributes, halved by B=2
        loss, grad = huber_loss_and_grad(
            np.array([0.0, 0.0]), np.array([0.5, 3.0]), 1.0, np.array([2.0, 0.0]))
        assert loss == pytest.approx(0.125)
        assert grad[1] == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            huber_loss_and_grad(np.zeros(2), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            huber_loss_and_grad(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            huber_loss_and_grad(np.zeros(2), np.zeros(2), 1.0, np.array([1.0, -1.0]))


def _grads_like(net, fill):
    from gqn.nets import NetGrads

    return NetGrads(weights=[np.full_like(w, fill) for w in net.weights],
                    biases=[np.full_like(b, fill) for b in net.biases])


class TestAdam:
    def test_zero_grads_fixed_point(self):
        net = init_net([3, 4, 2], seed=0)
        before = [w.copy() for w in net.weights]
        state = init_adam(net)
        adam_step(net, _grads_like(net, 0.0), state)
        assert state.step_count == 1
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)

    def test_first_step_magnitude(self):
        # scalar parameter, grad 1, lr 0.1: bias-corrected first step is
        # lr * 1 / (1 + tiny) -- effectively a 0.1 decrease
        net = init_net([1, 1], seed=0)
        net.weights[0][:] = 0.5
        state = init_adam(net, learning_rate=0.1)
        adam_step(net, _grads_like(net, 1.0), state)
        assert net.weights[0][0, 0] == pytest.approx(0.5 - 0.1, abs=1e-7)

    def test_deterministic_from_copied_state(self):
        net1 = init_net([3, 4, 2], seed=9)
        net2 = net1.clone()
        s1 = init_adam(net1, learning_rate=1e-3)
        s2 = s1.clone()
        rng = np.random.default_rng(0)
        grads = _grads_like(net1, 0.0)
        for g in grads.weights + grads.biases:
            g[:] = rng.normal(size=g.shape)
        adam_step(net1, grads, s1)
        adam_step(net2, grads, s2)
        for a, b in zip(net1.weights + net1.biases, net2.weights + net2.biases):
            assert np.array_equal(a, b)
        assert s1.step_count == s2.step_count == 1

    def test_nan_grads_rejected(self):
        net = init_net([3, 4, 2], seed=0)
        before = [w.copy() for w in net.weights]
        state = init_adam(net)
        grads = _grads_like(net, 0.0)
        grads.weights[0][0, 0] = np.nan
        with pytest.raises(DivergenceError):
            adam_step(net, grads, state)
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)
        assert state.step_count == 0

    def test_shape_mismatch_rejected(self):
        net = init_net([3, 4, 2], seed=0)
        other = init_net([3, 5, 2], seed=0)
        with pytest.raises(ValueError):
            adam_step(net, _grads_like(other, 0.0), init_adam(net))


class TestCopyParams:
    def test_forward_equal_after_copy(self):
        src = init_net([3, 6, 2], seed=1)
        dst = init_net([3, 6, 2], seed=2)
        copy_params(src, dst)
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert np.array_equal(forward(src, x)[0], forward(dst, x)[0])

    def test_deep_copy_semantics(self):
        src = init_net([3, 6, 2], seed=1)
        dst = init_net([3, 6, 2], seed=2)
        copy_params(src, dst)
        snapshot = [w.copy() for w in dst.weights]
        src.weights[0][:] += 1.0
        for w, s in zip(dst.weights, snapshot):
            assert np.array_equal(w, s)

    def test_architecture_mismatch_rejected(self):
        with pytest.raises(ValueError):
            copy_params(init_net([3, 6, 2], seed=0), init_net([3, 5, 2], seed=0))


class TestCheckpoint:
    def test_exact_round_trip(self, tmp_path):
        net = init_net([4, 8, 3], seed=13)
        state = init_adam(net, learning_rate=2e-4)
        grads = _grads_like(net, 0.0)
        rng = np.random.default_rng(5)
        for g in grads.weights + grads.biases:
            g[:] = rng.normal(size=g.shape)
        adam_step(net, grads, state)
        path = tmp_path / "net.bin"
        save_blob(path, *net_state(net, state))
        loaded_net, loaded_state = net_from_state(*load_blob(path))
        assert loaded_net.layer_dims == net.layer_dims
        for a, b in zip(loaded_net.weights + loaded_net.biases, net.weights + net.biases):
            assert np.array_equal(a, b)
        assert loaded_state.step_count == state.step_count
        assert loaded_state.learning_rate == state.learning_rate
        for a, b in zip(loaded_state.m_weights + loaded_state.v_weights,
                        state.m_weights + state.v_weights):
            assert np.array_equal(a, b)
