"""Dense network engine tests, including the finite-difference gradient oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from climbloc.errors import ConfigError, NumericalFailureError
from climbloc.nnet import (
    _forward_trace,
    Dataset,
    DenseNetwork,
    TrainConfig,
    net_forward,
    net_from_dict,
    net_gradient,
    net_init,
    net_to_dict,
    sgd,
    train,
)


def finite_difference_grads(net, x, target, w_out, eps=1e-6):
    """Central differences over every parameter; the independent oracle."""

    def loss():
        err = net_forward(net, x) - np.asarray(target)
        return float(np.sum(np.asarray(w_out) * err * err))

    fd_w, fd_b = [], []
    for layer in range(len(net.weights)):
        gw = np.zeros_like(net.weights[layer])
        for idx in np.ndindex(*net.weights[layer].shape):
            net.weights[layer][idx] += eps
            up = loss()
            net.weights[layer][idx] -= 2 * eps
            down = loss()
            net.weights[layer][idx] += eps
            gw[idx] = (up - down) / (2 * eps)
        fd_w.append(gw)
        gb = np.zeros_like(net.biases[layer])
        for j in range(len(gb)):
            net.biases[layer][j] += eps
            up = loss()
            net.biases[layer][j] -= 2 * eps
            down = loss()
            net.biases[layer][j] += eps
            gb[j] = (up - down) / (2 * eps)
        fd_b.append(gb)
    return fd_w, fd_b


class TestInit:
    def test_deterministic(self):
        a, b = net_init([4, 8, 3], seed=7), net_init([4, 8, 3], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert net_init([4, 8, 3], seed=8).weights[0][0, 0] != a.weights[0][0, 0]

    def test_he_variance(self):
        net = net_init([100, 100, 1], seed=3)
        var = float(np.var(net.weights[0]))
        assert 0.8 * (2.0 / 100) < var < 1.2 * (2.0 / 100)

    def test_rejects_degenerate_specs(self):
        with pytest.raises(ConfigError):
            net_init([5], seed=0)
        with pytest.raises(ConfigError):
            net_init([], seed=0)

    def test_biases_start_at_zero(self):
        net = net_init([3, 4, 2], seed=0)
        for b in net.biases:
            assert not b.any()


class TestForward:
    def test_identity_single_layer(self):
        net = net_init([3, 3], seed=0)
        net.weights[0] = np.eye(3)
        net.biases[0] = np.zeros(3)
        np.testing.assert_allclose(net_forward(net, [1.0, -2.0, 0.5]), [1.0, -2.0, 0.5])

    def test_zero_output_layer(self):
        net = net_init([4, 8, 3], seed=1)
        net.weights[-1] = np.zeros_like(net.weights[-1])
        net.biases[-1] = np.zeros_like(net.biases[-1])
        np.testing.assert_array_equal(net_forward(net, [5.0, 1.0, -3.0, 2.0]), np.zeros(3))

    def test_dead_hidden_layer_passes_only_bias(self):
        net = net_init([2, 4, 2], seed=1)
        net.weights[0] = -np.ones_like(net.weights[0])  # negative pre-activations
        net.biases[0] = np.zeros(4)
        net.biases[-1] = np.array([0.7, -0.4])
        np.testing.assert_allclose(net_forward(net, [1.0, 2.0]), [0.7, -0.4])

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            net_forward(net_init([3, 2], seed=0), [1.0, 2.0])

    def test_standardization_is_applied(self):
        net = net_init([2, 2], seed=0)
        net.weights[0] = np.eye(2)
        net.input_mean = np.array([10.0, -1.0])
        net.input_std = np.array([2.0, 0.5])
        np.testing.assert_allclose(net_forward(net, [12.0, 0.0]), [1.0, 2.0])

    def test_matches_the_training_trace_bit_for_bit(self):
        rng = np.random.default_rng(11)
        net = net_init([6, 32, 16, 3], seed=2)
        net.input_mean = rng.normal(size=6)
        net.input_std = rng.uniform(0.5, 2.0, 6)
        x = rng.normal(0.0, 3.0, (257, 6))
        np.testing.assert_array_equal(net_forward(net, x), _forward_trace(net, x)[-1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_finite_in_finite_out(self, seed):
        rng = np.random.default_rng(seed)
        net = net_init([5, 16, 16, 4], seed=seed)
        out = net_forward(net, rng.uniform(-1e3, 1e3, 5))
        assert np.all(np.isfinite(out))


class TestGradient:
    def test_zero_at_exact_fit(self):
        net = net_init([2, 2], seed=0)
        net.weights[0] = np.eye(2)
        target = net_forward(net, [0.3, -0.7])
        loss, gw, gb = net_gradient(net, [0.3, -0.7], target, [1.0, 1.0])
        assert loss == 0.0
        for g in gw + gb:
            assert not np.abs(g).max()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            net = net_init([4, 8, 6, 3], seed=100 + trial)
            x = rng.normal(0, 1, 4)
            target = rng.normal(0, 1, 3)
            w_out = rng.uniform(0.5, 2.0, 3)
            _, gw, gb = net_gradient(net, x, target, w_out)
            fd_w, fd_b = finite_difference_grads(net, x, target, w_out)
            for got, want in zip(gw + gb, fd_w + fd_b):
                scale = max(1.0, float(np.abs(want).max()))
                assert np.abs(got - want).max() / scale < 1e-4

    def test_output_weight_scales_its_gradient_row(self):
        net = net_init([3, 5, 3], seed=9)
        x, target = [0.1, 0.2, 0.3], [1.0, 1.0, 1.0]
        _, gw1, _ = net_gradient(net, x, target, [1.0, 1.0, 1.0])
        _, gw2, _ = net_gradient(net, x, target, [1.0, 1.0, 2.0])
        np.testing.assert_allclose(gw2[-1][2], 2.0 * gw1[-1][2], rtol=1e-12)
        np.testing.assert_allclose(gw2[-1][0], gw1[-1][0], rtol=1e-12)

    def test_rejects_wrong_weight_length(self):
        net = net_init([2, 2], seed=0)
        with pytest.raises(ValueError):
            net_gradient(net, [1.0, 2.0], [0.0, 0.0], [1.0])


def _linear_dataset(n=256, slope=2.0, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, 1))
    return Dataset(inputs=x, targets=slope * x)


class TestTraining:
    def test_zero_learning_rate_is_a_no_op(self):
        net = net_init([1, 1], seed=0)
        before = [w.copy() for w in net.weights]
        trained, _ = train(net, _linear_dataset(), TrainConfig(learning_rate=0.0, epochs=3))
        for w0, w1 in zip(before, trained.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_learns_slope_two(self):
        net = net_init([1, 1], seed=0)
        trained, _ = train(
            net, _linear_dataset(), TrainConfig(learning_rate=0.05, epochs=400, axis_weights=(1.0,))
        )
        # effective slope of the learned affine map
        y0, y1 = net_forward(trained, [0.0])[0], net_forward(trained, [1.0])[0]
        assert y1 - y0 == pytest.approx(2.0, abs=1e-3)
        assert y0 == pytest.approx(0.0, abs=1e-3)

    def test_loss_history_non_increasing_on_convex_problem(self):
        net = net_init([1, 1], seed=1)
        _, history = train(
            net,
            _linear_dataset(),
            TrainConfig(learning_rate=0.01, epochs=50, batch_size=256, axis_weights=(1.0,)),
        )
        losses = [h[0] for h in history]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        net = net_init([1, 8, 1], seed=0)
        with pytest.raises(NumericalFailureError, match="diverged at epoch"):
            train(net, _linear_dataset(), TrainConfig(learning_rate=1e12, epochs=20, axis_weights=(1.0,)))

    def test_deterministic(self):
        data = _linear_dataset()
        cfg = TrainConfig(learning_rate=0.01, epochs=5, seed=3, axis_weights=(1.0,))
        a, ha = train(net_init([1, 4, 1], seed=2), data, cfg)
        b, hb = train(net_init([1, 4, 1], seed=2), data, cfg)
        assert ha == hb
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_input_net_is_untouched(self):
        net = net_init([1, 1], seed=0)
        snapshot = net.weights[0].copy()
        train(net, _linear_dataset(), TrainConfig(learning_rate=0.05, epochs=10, axis_weights=(1.0,)))
        np.testing.assert_array_equal(net.weights[0], snapshot)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(split=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(axis_weights=(2.0, 1.0, 1.0))  # w_z < w_x


class TestSgd:
    def tree(self):
        return {"b": [np.zeros(()), np.ones(2)], "a": np.zeros((2, 2))}

    def test_non_finite_epoch_restores_the_last_finite_epoch(self):
        params = self.tree()
        arrays = [params["a"], *params["b"]]
        epoch_losses = iter([(1.0, 2.0), (0.5, 1.5), (float("nan"), 1.0), (0.1, 0.1)])
        # every step subtracts 1 from each entry: two minibatches of 2 rows per epoch
        history = sgd(
            params,
            4,
            TrainConfig(epochs=4, batch_size=2),
            lambda rows: (1.0, {"a": -np.ones((2, 2)), "b": [-1.0, -np.ones(2)]}),
            lambda: next(epoch_losses),
        )
        assert history == [(1.0, 2.0), (0.5, 1.5)]
        # restored in place: the same array objects hold their epoch-2 values
        assert [params["a"], *params["b"]] == arrays
        np.testing.assert_array_equal(params["a"], np.full((2, 2), 4.0))
        assert params["b"][0] == 4.0
        np.testing.assert_array_equal(params["b"][1], [5.0, 5.0])

    def test_non_finite_first_epoch_restores_the_initial_values(self):
        params = self.tree()
        history = sgd(
            params,
            3,
            TrainConfig(epochs=2, batch_size=2),
            lambda rows: (0.5, {"a": np.ones((2, 2)), "b": [1.0, np.ones(2)]}),
            lambda: (1.0, float("inf")),
        )
        assert history == []
        for got, want in zip([params["a"], *params["b"]], [np.zeros((2, 2)), np.zeros(()), np.ones(2)]):
            np.testing.assert_array_equal(got, want)

    def test_a_python_float_parameter_is_rejected(self):
        # it could not step in place, so it must not pass silently
        with pytest.raises((AttributeError, TypeError)):
            sgd([1.0], 2, TrainConfig(epochs=1), lambda rows: (1.0, [1.0]), lambda: (0.0, 0.0))

    def test_minibatches_cover_every_row_once_per_epoch(self):
        seen = []

        def grads_of(rows):
            seen.extend(rows.tolist())
            return 0.0, [np.zeros(1)]

        sgd([np.zeros(1)], 7, TrainConfig(epochs=2, batch_size=3, seed=4), grads_of, lambda: (0.0, 0.0))
        assert sorted(seen[:7]) == sorted(seen[7:]) == list(range(7))
        assert seen[:7] != seen[7:]


class TestSerialization:
    def test_bit_exact_json_round_trip(self):
        net, _ = train(
            net_init([3, 8, 2], seed=11),
            Dataset(np.random.default_rng(0).normal(0, 1, (64, 3)),
                    np.random.default_rng(1).normal(0, 1, (64, 2))),
            TrainConfig(learning_rate=1e-3, epochs=3, axis_weights=(1.0, 1.0)),
        )
        doc = json.loads(json.dumps(net_to_dict(net), sort_keys=True))
        back = net_from_dict(doc)
        for wa, wb in zip(net.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(net.biases, back.biases):
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(net.input_mean, back.input_mean)
        np.testing.assert_array_equal(net.input_std, back.input_std)
        x = np.array([0.3, -1.2, 4.5])
        np.testing.assert_array_equal(net_forward(net, x), net_forward(back, x))

    def test_rejects_foreign_activation_layout(self):
        doc = net_to_dict(net_init([2, 3, 1], seed=0))
        doc["activations"] = ["tanh", "identity"]
        with pytest.raises(ConfigError):
            net_from_dict(doc)
