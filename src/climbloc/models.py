"""Windowed FCNN sensor models: UWB position regression and barometric altitude.

Both models consume a short history window of raw measurements and emit a
value head plus an error head. The error head is trained on the signed error
of the corresponding classical solver but consumed as a magnitude: it becomes
the per-axis sigma fed to the fusion stage, floored at SIGMA_MIN so no
modality ever claims zero variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core.types import AnchorPose
from .errors import ConfigError, MissingInputError
from .nnet import Dataset, DenseNetwork, TrainConfig, net_forward, net_from_dict, net_init, net_to_dict, train
from .solvers.uwb import uwb_geometric_fixes

SIGMA_MIN = 0.01  # m; keeps downstream fused variances strictly positive
DEFAULT_K = 10
DEFAULT_HIDDEN = (64, 64)


@dataclass(frozen=True)
class UwbFcnnModel:
    """k-step window of (d, alpha, beta), optionally plus the current geometric fix."""

    network: DenseNetwork
    k: int = DEFAULT_K
    include_geometric: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("window length k must be >= 1")
        if self.network.layer_sizes[0] != self.input_size(self.k, self.include_geometric):
            raise ConfigError(
                f"network input {self.network.layer_sizes[0]} != expected "
                f"{self.input_size(self.k, self.include_geometric)}"
            )
        if self.network.layer_sizes[-1] != 6:
            raise ConfigError("UWB model must emit 3 position + 3 error outputs")

    @staticmethod
    def input_size(k: int, include_geometric: bool) -> int:
        return 3 * k + (3 if include_geometric else 0)


@dataclass(frozen=True)
class BaroFcnnModel:
    """k-step window of pressures plus the sensor's own current altitude solution."""

    network: DenseNetwork
    k: int = DEFAULT_K

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("window length k must be >= 1")
        if self.network.layer_sizes[0] != self.k + 1:
            raise ConfigError(f"network input must be k+1 = {self.k + 1}")
        if self.network.layer_sizes[-1] != 2:
            raise ConfigError("baro model must emit (altitude, error) outputs")


def uwb_inputs(stream, anchor: AnchorPose, k: int, include_geometric: bool) -> np.ndarray:
    """One row per full window: k*(d, alpha, beta) [+ the geometric fix of its last measurement].

    Row i covers measurements i..i+k-1; a stream shorter than k gives 0 rows.
    """
    if len(stream) < k:
        return np.empty((0, UwbFcnnModel.input_size(k, include_geometric)))
    raw = np.column_stack([stream.range, stream.alpha, stream.beta])
    rows = sliding_window_view(raw, k, axis=0).transpose(0, 2, 1).reshape(-1, 3 * k)
    if include_geometric:
        rows = np.hstack([rows, uwb_geometric_fixes(stream[k - 1 :], anchor)[0]])
    return rows


def baro_inputs(stream, k: int) -> np.ndarray:
    """One row per full window: k pressures + the internal altitude of its last sample."""
    if len(stream) < k:
        return np.empty((0, k + 1))
    return np.column_stack([sliding_window_view(stream.pressure, k), stream.internal_altitude[k - 1 :]])


def uwb_fcnn_infer(model: UwbFcnnModel, stream, anchor: AnchorPose):
    """(positions, sigmas), each (n-k+1, 3): one row per full window, in one forward pass.

    Row i is the estimate at measurement i+k-1 (0 rows when n < k); sigmas
    are floored at SIGMA_MIN.
    """
    out = net_forward(model.network, uwb_inputs(stream, anchor, model.k, model.include_geometric))
    return out[:, 0:3], np.maximum(np.abs(out[:, 3:6]), SIGMA_MIN)


def baro_fcnn_infer(model: BaroFcnnModel, stream):
    """(altitudes, sigmas), each (n-k+1,): one row per full window, in one forward pass."""
    out = net_forward(model.network, baro_inputs(stream, model.k))
    return out[:, 0], np.maximum(np.abs(out[:, 1]), SIGMA_MIN)


def build_training_set(scenario, which: str, k: int = DEFAULT_K, include_geometric: bool = True) -> Dataset:
    """One example per full sliding window; targets pair truth with solver error.

    UWB rows: features = k*(d, a, b) [+ current geometric fix], targets =
    (truth position, truth - geometric fix). Baro rows: features = k pressures
    + current internal altitude, targets = (truth up, truth up - internal).
    """
    if not len(scenario.truth):
        raise MissingInputError("training needs a truth stream")
    if which == "uwb":
        stream = scenario.uwb
        if len(stream) < k:
            raise ValueError(f"need at least k={k} UWB measurements, got {len(stream)}")
        inputs = uwb_inputs(stream, scenario.anchor, k, include_geometric)
        # with the geometric input, the inputs already end with the fixes the targets need
        fixes = inputs[:, -3:] if include_geometric else uwb_geometric_fixes(stream[k - 1 :], scenario.anchor)[0]
        p_true = scenario.truth.position_at(stream.t[k - 1 :])
        targets = np.hstack([p_true, p_true - fixes])
    elif which == "baro":
        stream = scenario.baro
        if len(stream) < k:
            raise ValueError(f"need at least k={k} baro samples, got {len(stream)}")
        inputs = baro_inputs(stream, k)
        up_true = scenario.truth.position_at(stream.t[k - 1 :])[:, 2]
        targets = np.column_stack([up_true, up_true - inputs[:, -1]])
    else:
        raise ConfigError(f"unknown training-set kind {which!r} (expected 'uwb' or 'baro')")
    return Dataset(inputs=inputs, targets=targets)


def train_uwb_model(
    scenario,
    cfg: TrainConfig,
    k: int = DEFAULT_K,
    hidden=DEFAULT_HIDDEN,
    include_geometric: bool = True,
):
    data = build_training_set(scenario, "uwb", k=k, include_geometric=include_geometric)
    sizes = [UwbFcnnModel.input_size(k, include_geometric), *hidden, 6]
    net, history = train(net_init(sizes, cfg.seed), data, cfg)
    return UwbFcnnModel(network=net, k=k, include_geometric=include_geometric), history


def train_baro_model(scenario, cfg: TrainConfig, k: int = DEFAULT_K, hidden=DEFAULT_HIDDEN):
    data = build_training_set(scenario, "baro", k=k)
    net, history = train(net_init([k + 1, *hidden, 2], cfg.seed), data, cfg)
    return BaroFcnnModel(network=net, k=k), history


def model_to_dict(model) -> dict:
    if isinstance(model, UwbFcnnModel):
        return {
            "kind": "uwb-fcnn",
            "k": model.k,
            "include_geometric": model.include_geometric,
            "network": net_to_dict(model.network),
        }
    if isinstance(model, BaroFcnnModel):
        return {"kind": "baro-fcnn", "k": model.k, "network": net_to_dict(model.network)}
    raise ConfigError(f"not a serializable sensor model: {type(model).__name__}")


def model_from_dict(doc: dict):
    kind = doc.get("kind")
    if kind == "uwb-fcnn":
        return UwbFcnnModel(
            network=net_from_dict(doc["network"]),
            k=int(doc["k"]),
            include_geometric=bool(doc.get("include_geometric", True)),
        )
    if kind == "baro-fcnn":
        return BaroFcnnModel(network=net_from_dict(doc["network"]), k=int(doc["k"]))
    raise ConfigError(f"unknown model kind {kind!r}")
