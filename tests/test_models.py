"""Sensor FCNN model tests: feature layout, inference contract, dataset oracle."""

import dataclasses
import json

import numpy as np
import pytest

from climbloc.core import UwbMeasurement
from climbloc.errors import ConfigError, MissingInputError
from climbloc.models import (
    SIGMA_MIN,
    BaroFcnnModel,
    UwbFcnnModel,
    baro_fcnn_infer,
    baro_inputs,
    build_training_set,
    model_from_dict,
    model_to_dict,
    train_baro_model,
    train_uwb_model,
    uwb_fcnn_infer,
    uwb_inputs,
)
from climbloc.nnet import TrainConfig, net_forward, net_init
from climbloc.sim import (
    BaroNoise,
    GpsNoise,
    ImuNoise,
    ScenarioConfig,
    TrajectoryProfile,
    UwbNoise,
    simulate_scenario,
)
from climbloc.solvers import baro_altitude, uwb_geometric_fixes, uwb_geometric_solve

K = 4  # small window keeps these tests quick


def vertical_quiet_scenario(duration=20.0):
    """Noise-free, purely vertical run: both classical solvers are exact."""
    cfg = ScenarioConfig(
        duration=duration,
        dt=0.01,
        profile=TrajectoryProfile(horizontal_amplitude=0.0, yaw_amplitude=0.0, pauses=()),
        imu=ImuNoise(accel_sigma=0.0, gyro_sigma=0.0, accel_bias=(0, 0, 0), gyro_bias=(0, 0, 0)),
        gps=GpsNoise(sigma_xy=0.0, sigma_z=0.0, occlusions=()),
        uwb=UwbNoise(range_sigma=0.0, angle_sigma=0.0, nlos_windows=()),
        baro=BaroNoise(pressure_sigma=0.0, drift_rate=0.0),
    )
    return simulate_scenario(cfg)


def zeroed_uwb_model(k=K):
    net = net_init([UwbFcnnModel.input_size(k), 8, 6], seed=0)
    net.weights[-1] = np.zeros_like(net.weights[-1])
    net.biases[-1] = np.zeros_like(net.biases[-1])
    return UwbFcnnModel(network=net, k=k)


class TestInference:
    def test_zeroed_output_layer_hits_sigma_floor(self):
        data = vertical_quiet_scenario()
        positions, sigmas = uwb_fcnn_infer(zeroed_uwb_model(), data.uwb[:K], data.anchor)
        np.testing.assert_array_equal(positions, [[0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(sigmas, [[SIGMA_MIN, SIGMA_MIN, SIGMA_MIN]])

    def test_partial_window_not_ready(self):
        # fewer than k samples: no full window, so 0 rows of the right width
        data = vertical_quiet_scenario()
        for n in (0, K - 1):
            positions, sigmas = uwb_fcnn_infer(zeroed_uwb_model(), data.uwb[:n], data.anchor)
            assert positions.shape == sigmas.shape == (0, 3)
            assert uwb_inputs(data.uwb[:n], data.anchor, K).shape == (0, 3 * K + 3)
            net = net_init([K + 1, 4, 2], seed=0)
            altitudes, sigma_z = baro_fcnn_infer(BaroFcnnModel(network=net, k=K), data.baro[:n])
            assert altitudes.shape == sigma_z.shape == (0,)

    def test_baro_zeroed_output(self):
        net = net_init([K + 1, 4, 2], seed=0)
        net.weights[-1] = np.zeros_like(net.weights[-1])
        net.biases[-1] = np.zeros_like(net.biases[-1])
        data = vertical_quiet_scenario()
        altitudes, sigmas = baro_fcnn_infer(BaroFcnnModel(network=net, k=K), data.baro[:K])
        np.testing.assert_array_equal(altitudes, [0.0])
        np.testing.assert_array_equal(sigmas, [SIGMA_MIN])

    def test_batched_rows_match_single_window_forward(self):
        # one pass over the stream == one forward per window, row for row
        data = vertical_quiet_scenario()
        uwb_model = UwbFcnnModel(network=net_init([3 * K + 3, 8, 6], seed=4), k=K)
        baro_model = BaroFcnnModel(network=net_init([K + 1, 8, 2], seed=4), k=K)
        positions, sigmas = uwb_fcnn_infer(uwb_model, data.uwb[:30], data.anchor)
        altitudes, sigma_z = baro_fcnn_infer(baro_model, data.baro[:30])
        assert len(positions) == len(altitudes) == 30 - K + 1
        for i in range(30 - K + 1):
            window = data.uwb[i : i + K]
            out = net_forward(uwb_model.network, uwb_inputs(window, data.anchor, K)[0])
            np.testing.assert_allclose(positions[i], out[0:3], rtol=1e-13)
            np.testing.assert_allclose(sigmas[i], np.maximum(np.abs(out[3:6]), SIGMA_MIN), rtol=1e-13)
            out = net_forward(baro_model.network, baro_inputs(data.baro[i : i + K], K)[0])
            assert altitudes[i] == pytest.approx(out[0], rel=1e-13)
            assert sigma_z[i] == pytest.approx(max(abs(out[1]), SIGMA_MIN), rel=1e-13)

    def test_model_shape_validation(self):
        with pytest.raises(ConfigError):
            UwbFcnnModel(network=net_init([5, 6], seed=0), k=K)
        with pytest.raises(ConfigError):
            BaroFcnnModel(network=net_init([K + 2, 2], seed=0), k=K)


class TestTrainingSet:
    def test_window_counting(self):
        data = vertical_quiet_scenario()
        n = len(data.uwb)
        ds = build_training_set(data, "uwb", k=K)
        assert len(ds) == n - K + 1
        # exactly one example from a stream of k samples
        clipped = type(data)(
            truth=data.truth, imu=data.imu, gps=data.gps, uwb=data.uwb[:K],
            baro=data.baro[:K], anchor=data.anchor,
            baro_reference=data.baro_reference, origin=data.origin,
        )
        assert len(build_training_set(clipped, "uwb", k=K)) == 1
        assert len(build_training_set(clipped, "baro", k=K)) == 1

    def test_noiseless_error_targets_vanish(self):
        data = vertical_quiet_scenario()
        uwb = build_training_set(data, "uwb", k=K)
        np.testing.assert_allclose(uwb.targets[:, 3:6], 0.0, atol=1e-9)
        baro = build_training_set(data, "baro", k=K)
        np.testing.assert_allclose(baro.targets[:, 1], 0.0, atol=1e-9)

    def test_error_column_matches_independent_recompute(self):
        cfg = ScenarioConfig(duration=15.0, profile=TrajectoryProfile(pauses=()))
        data = simulate_scenario(cfg)
        ds = build_training_set(data, "uwb", k=K)
        uwb = data.uwb
        for row in (0, 7, len(ds) - 1):
            i = row + K - 1
            m = UwbMeasurement(t=uwb.t[i], range=uwb.range[i], alpha=uwb.alpha[i], beta=uwb.beta[i])
            p_true = data.truth.position[int(round(m.t / cfg.dt))]
            p_geo = uwb_geometric_solve(m, data.anchor).position.as_array()
            np.testing.assert_allclose(ds.targets[row, 0:3], p_true, atol=1e-12)
            np.testing.assert_allclose(ds.targets[row, 3:6], p_true - p_geo, atol=1e-12)
        baro = build_training_set(data, "baro", k=K)
        t, pressure = data.baro.t[K - 1], data.baro.pressure[K - 1]
        up = data.truth.position[int(round(t / cfg.dt)), 2]
        assert baro.targets[0, 1] == pytest.approx(up - baro_altitude(pressure, data.baro_reference), abs=1e-12)

    def test_chunking_invariance(self):
        # rebuilding each window's features sample by sample matches the rows
        data = vertical_quiet_scenario()
        ds = build_training_set(data, "baro", k=K)
        baro, uwb = data.baro, data.uwb
        rows = [
            [baro.pressure[j] for j in range(i - K + 1, i + 1)] + [baro.internal_altitude[i]]
            for i in range(K - 1, len(baro))
        ]
        np.testing.assert_array_equal(np.array(rows), ds.inputs)
        ds = build_training_set(data, "uwb", k=K)
        measurements = [
            UwbMeasurement(t=uwb.t[j], range=uwb.range[j], alpha=uwb.alpha[j], beta=uwb.beta[j])
            for j in range(len(uwb))
        ]
        rows = [
            [v for m in measurements[i - K + 1 : i + 1] for v in (m.range, m.alpha, m.beta)]
            + list(uwb_geometric_solve(measurements[i], data.anchor).position.as_array())
            for i in range(K - 1, len(uwb))
        ]
        np.testing.assert_array_equal(np.array(rows), ds.inputs)

    def test_uwb_set_solves_its_fixes_once(self, monkeypatch):
        data = vertical_quiet_scenario(duration=5.0)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return uwb_geometric_fixes(*args, **kwargs)

        monkeypatch.setattr("climbloc.models.uwb_geometric_fixes", counted)
        build_training_set(data, "uwb", k=K)
        assert len(calls) == 1

    def test_too_few_samples(self):
        data = vertical_quiet_scenario()
        clipped = type(data)(
            truth=data.truth, imu=data.imu, gps=data.gps, uwb=data.uwb[: K - 1],
            baro=data.baro[: K - 1], anchor=data.anchor,
            baro_reference=data.baro_reference, origin=data.origin,
        )
        with pytest.raises(ValueError):
            build_training_set(clipped, "uwb", k=K)
        with pytest.raises(ConfigError):
            build_training_set(data, "magnetometer", k=K)
        with pytest.raises(MissingInputError):
            build_training_set(dataclasses.replace(data, truth=data.truth[:0]), "baro", k=K)

    def test_targets_follow_a_clock_that_starts_late(self):
        # the same run with every timestamp 5 s later pairs each window with the same truth row
        data = simulate_scenario(ScenarioConfig(duration=15.0, profile=TrajectoryProfile(pauses=())))
        names = ("truth", "imu", "gps", "uwb", "baro")
        late = dataclasses.replace(
            data, **{n: dataclasses.replace(getattr(data, n), t=getattr(data, n).t + 5.0) for n in names}
        )
        for which in ("uwb", "baro"):
            np.testing.assert_array_equal(
                build_training_set(late, which, k=K).targets, build_training_set(data, which, k=K).targets
            )


class TestTrainedModels:
    def test_baro_calibration_on_quiet_scenario(self):
        # noiseless, zero-drift: trained altitude within 3 sigma of truth on
        # at least 95% of held-out (last quarter) windows
        data = vertical_quiet_scenario(duration=30.0)
        model, history = train_baro_model(
            data, TrainConfig(learning_rate=1e-2, epochs=300, seed=1), k=K, hidden=(32, 32)
        )
        n = len(data.baro)
        altitudes, sigmas = baro_fcnn_infer(model, data.baro)  # row i ends at sample i+K-1
        hits = total = 0
        truth_dt = data.truth.t[1] - data.truth.t[0]
        for i in range(max(int(0.75 * n), K - 1), n):
            alt, sigma = altitudes[i - K + 1], sigmas[i - K + 1]
            up = data.truth.position[int(round(data.baro.t[i] / truth_dt)), 2]
            total += 1
            hits += abs(alt - up) <= 3.0 * sigma
        assert total > 0
        assert hits / total >= 0.95

    def test_uwb_training_is_deterministic(self):
        data = vertical_quiet_scenario()
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, seed=5)
        m1, h1 = train_uwb_model(data, cfg, k=K, hidden=(16,))
        m2, h2 = train_uwb_model(data, cfg, k=K, hidden=(16,))
        assert h1 == h2
        for w1, w2 in zip(m1.network.weights, m2.network.weights):
            np.testing.assert_array_equal(w1, w2)


class TestModelSerialization:
    def test_round_trip_uwb(self):
        data = vertical_quiet_scenario()
        model, _ = train_uwb_model(data, TrainConfig(epochs=2, seed=3), k=K, hidden=(8,))
        doc = json.loads(json.dumps(model_to_dict(model), sort_keys=True))
        back = model_from_dict(doc)
        assert isinstance(back, UwbFcnnModel)
        assert back.k == model.k
        for a, b in zip(uwb_fcnn_infer(model, data.uwb, data.anchor), uwb_fcnn_infer(back, data.uwb, data.anchor)):
            np.testing.assert_array_equal(a, b)

    def test_round_trip_baro_and_kind_check(self):
        data = vertical_quiet_scenario()
        model, _ = train_baro_model(data, TrainConfig(epochs=2, seed=3), k=K, hidden=(8,))
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert isinstance(back, BaroFcnnModel)
        for a, b in zip(baro_fcnn_infer(back, data.baro), baro_fcnn_infer(model, data.baro)):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(ConfigError):
            model_from_dict({"kind": "mystery"})
