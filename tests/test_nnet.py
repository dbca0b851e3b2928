"""Dense network engine tests, including the finite-difference gradient oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from climbloc.errors import ConfigError, NumericalFailureError
from climbloc.nnet import (
    _evaluate,
    _forward_trace,
    _loss_and_grads,
    Dataset,
    DenseNetwork,
    TrainConfig,
    fit_standardization,
    net_forward,
    net_from_dict,
    net_gradient,
    net_init,
    net_to_dict,
    pack,
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


def per_array_sgd(arrays, n_train, cfg, grads_of, losses):
    """The SGD loop that steps each array on its own, kept as the reference for `sgd`.

    `grads_of(rows)` returns (step, one gradient per array); each array takes
    `p -= step * g` in place, and the checkpoint is one copy per array.
    """
    checkpoint = [p.copy() for p in arrays]
    rng = np.random.default_rng(cfg.seed)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            step, grads = grads_of(order[start : start + cfg.batch_size])
            for p, g in zip(arrays, grads, strict=True):
                np.subtract(p, step * g, out=p)
        train_loss, val_loss = losses()
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            for p, saved in zip(arrays, checkpoint):
                p[...] = saved
            break
        history.append((train_loss, val_loss))
        checkpoint = [p.copy() for p in arrays]
    return history


def reference_train(net, dataset, cfg):
    """`train` on a deep copy of `net` stepped one array at a time by `per_array_sgd`."""
    n = len(dataset)
    n_train = min(n - 1, max(1, int(round(n * cfg.split))))
    x_train, t_train = dataset.inputs[:n_train], dataset.targets[:n_train]
    x_val, t_val = dataset.inputs[n_train:], dataset.targets[n_train:]
    out = net_from_dict(net_to_dict(net))
    fit_standardization(out, x_train)
    w_out = cfg.output_weights(out.layer_sizes[-1])

    def grads_of(rows):
        _, grads_w, grads_b = _loss_and_grads(out, x_train[rows], t_train[rows], w_out)
        return cfg.learning_rate, [*grads_w, *grads_b]

    def losses():
        return _evaluate(out, x_train, t_train, w_out), _evaluate(out, x_val, t_val, w_out)

    return out, per_array_sgd([*out.weights, *out.biases], n_train, cfg, grads_of, losses)


class TestPack:
    def test_views_hold_the_values_in_order(self):
        arrays = [np.arange(6.0).reshape(2, 3), 6.0, np.array([7.0, 8.0, 9.0])]
        theta, views = pack(arrays)
        assert theta.dtype == np.float64
        np.testing.assert_array_equal(theta, np.arange(10.0))
        assert [v.shape for v in views] == [(2, 3), (), (3,)]
        for view, array in zip(views, arrays):
            np.testing.assert_array_equal(view, array)
            assert np.shares_memory(view, theta)

    def test_a_step_on_theta_moves_every_view_and_no_input(self):
        arrays = [np.ones((2, 2)), 0.5]
        theta, (w, b) = pack(arrays)
        theta -= 1.0
        np.testing.assert_array_equal(w, np.zeros((2, 2)))
        assert b == -0.5
        np.testing.assert_array_equal(arrays[0], np.ones((2, 2)))


class TestSgd:
    def test_non_finite_epoch_restores_the_last_finite_epoch(self):
        theta, views = pack([np.zeros((2, 2)), 0.0, np.ones(2)])
        epoch_losses = iter([(1.0, 2.0), (0.5, 1.5), (float("nan"), 1.0), (0.1, 0.1)])
        # every step adds 1 to each entry: two minibatches of 2 rows per epoch
        history = sgd(
            theta,
            4,
            TrainConfig(epochs=4, batch_size=2),
            lambda rows: (1.0, -np.ones(7)),
            lambda: next(epoch_losses),
        )
        assert history == [(1.0, 2.0), (0.5, 1.5)]
        # restored in place: the views still read theta, which holds its epoch-2 values
        np.testing.assert_array_equal(theta, [4.0, 4.0, 4.0, 4.0, 4.0, 5.0, 5.0])
        np.testing.assert_array_equal(views[0], np.full((2, 2), 4.0))
        assert views[1] == 4.0
        np.testing.assert_array_equal(views[2], [5.0, 5.0])

    def test_non_finite_first_epoch_restores_the_initial_values(self):
        theta, _ = pack([np.zeros((2, 2)), 0.0, np.ones(2)])
        history = sgd(
            theta,
            3,
            TrainConfig(epochs=2, batch_size=2),
            lambda rows: (0.5, np.ones(7)),
            lambda: (1.0, float("inf")),
        )
        assert history == []
        np.testing.assert_array_equal(theta, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0])

    def test_minibatches_cover_every_row_once_per_epoch(self):
        seen = []

        def grad_of(rows):
            seen.extend(rows.tolist())
            return 0.0, np.zeros(1)

        sgd(np.zeros(1), 7, TrainConfig(epochs=2, batch_size=3, seed=4), grad_of, lambda: (0.0, 0.0))
        assert sorted(seen[:7]) == sorted(seen[7:]) == list(range(7))
        assert seen[:7] != seen[7:]

    @pytest.mark.parametrize(
        "cfg",
        [
            TrainConfig(learning_rate=0.01, epochs=6, batch_size=16, seed=3, axis_weights=(1.0,)),
            TrainConfig(learning_rate=0.2, epochs=3, batch_size=5, seed=8, axis_weights=(1.0,), split=0.6),
        ],
    )
    def test_train_equals_the_per_array_reference(self, cfg):
        net, data = net_init([1, 8, 4, 1], seed=2), _linear_dataset(n=90)
        trained, history = train(net, data, cfg)
        want, want_history = reference_train(net, data, cfg)
        assert history == want_history
        for got, ref in zip([*trained.weights, *trained.biases], [*want.weights, *want.biases], strict=True):
            assert np.array_equal(got, ref)
        assert np.array_equal(trained.input_mean, want.input_mean)
        assert np.array_equal(trained.input_std, want.input_std)


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
