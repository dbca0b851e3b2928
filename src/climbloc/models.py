"""Windowed FCNN sensor models: UWB position regression and barometric altitude.

Both models are one design. The input is a window of the last k raw samples,
then the classical solver's solution at the newest one; the output is a value
head plus an error head, one entry per solved axis. The error head is trained
on the solver's signed error but consumed as a magnitude: it becomes the
per-axis sigma fed to the fusion stage, floored at SIGMA_MIN so no modality
ever claims zero variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core.types import AnchorPose
from .errors import ConfigError, MissingInputError, model_document
from .nnet import Dataset, DenseNetwork, TrainConfig, net_forward, net_from_dict, net_init, net_to_dict, train
from .solvers.uwb import uwb_geometric_fixes

SIGMA_MIN = 0.01  # m; keeps downstream fused variances strictly positive
DEFAULT_K = 10
DEFAULT_HIDDEN = (64, 64)


@dataclass(frozen=True)
class _FcnnModel:
    """A network over k-sample windows of one sensor stream. A subclass defines
    `solution(stream, anchor, k)`: its classical solver's (n-k+1, len(axes))
    solution at the last sample of each full window."""

    kind: ClassVar[str]  # the model file's "kind"
    raw: ClassVar[tuple[str, ...]]  # the stream columns of one sample, in window order
    axes: ClassVar[tuple[int, ...]]  # the ENU axes of the solution, and of each output head

    network: DenseNetwork
    k: int = DEFAULT_K

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("window length k must be >= 1")
        if self.network.layer_sizes[0] != self.input_size(self.k):
            raise ConfigError(f"network input {self.network.layer_sizes[0]} != expected {self.input_size(self.k)}")
        if self.network.layer_sizes[-1] != 2 * len(self.axes):
            raise ConfigError(f"{self.kind} model must emit {len(self.axes)} value + {len(self.axes)} error outputs")

    @classmethod
    def input_size(cls, k: int) -> int:
        return len(cls.raw) * k + len(cls.axes)

    @classmethod
    def windows(cls, stream, anchor: AnchorPose | None, k: int) -> np.ndarray:
        """One row per full window: its k raw samples, then the solution at the last.

        Row i covers samples i..i+k-1; a stream shorter than k gives 0 rows.
        """
        if len(stream) < k:
            return np.empty((0, cls.input_size(k)))
        raw = np.column_stack([getattr(stream, column) for column in cls.raw])
        rows = sliding_window_view(raw, k, axis=0).transpose(0, 2, 1).reshape(-1, len(cls.raw) * k)
        return np.hstack([rows, cls.solution(stream, anchor, k)])

    def infer(self, stream, anchor: AnchorPose | None):
        """(values, sigmas), each (n-k+1, len(axes)): one row per full window, in one forward pass."""
        out = net_forward(self.network, self.windows(stream, anchor, self.k))
        width = len(self.axes)
        return out[:, :width], np.maximum(np.abs(out[:, width:]), SIGMA_MIN)


class UwbFcnnModel(_FcnnModel):
    """k-step window of (d, alpha, beta) plus the current geometric fix."""

    kind = "uwb-fcnn"
    raw = ("range", "alpha", "beta")
    axes = (0, 1, 2)

    @staticmethod
    def solution(stream, anchor, k):
        return uwb_geometric_fixes(stream[k - 1 :], anchor)[0]


class BaroFcnnModel(_FcnnModel):
    """k-step window of pressures plus the sensor's own current altitude solution."""

    kind = "baro-fcnn"
    raw = ("pressure",)
    axes = (2,)

    @staticmethod
    def solution(stream, anchor, k):
        return stream.internal_altitude[k - 1 :, None]


_MODELS = {"uwb": UwbFcnnModel, "baro": BaroFcnnModel}  # by the scenario stream each reads


def uwb_fcnn_infer(model: UwbFcnnModel, stream, anchor: AnchorPose):
    """(positions, sigmas), each (n-k+1, 3): one row per full window, in one forward pass.

    Row i is the estimate at measurement i+k-1 (0 rows when n < k); sigmas
    are floored at SIGMA_MIN.
    """
    return model.infer(stream, anchor)


def baro_fcnn_infer(model: BaroFcnnModel, stream):
    """(altitudes, sigmas), each (n-k+1,): one row per full window, in one forward pass."""
    altitudes, sigmas = model.infer(stream, None)
    return altitudes[:, 0], sigmas[:, 0]


def build_training_set(scenario, which: str, k: int = DEFAULT_K) -> Dataset:
    """One example per full sliding window of the `which` stream ('uwb' or 'baro').

    Features are the model's window; targets are (truth, truth - solution) on
    the model's axes, with truth taken at the window's last sample.
    """
    if not len(scenario.truth):
        raise MissingInputError("training needs a truth stream")
    if which not in _MODELS:
        raise ConfigError(f"unknown training-set kind {which!r} (expected 'uwb' or 'baro')")
    model, stream = _MODELS[which], getattr(scenario, which)
    if len(stream) < k:
        raise ValueError(f"need at least k={k} {which} samples, got {len(stream)}")
    inputs = model.windows(stream, scenario.anchor, k)
    truth = scenario.truth.position_at(stream.t[k - 1 :])[:, list(model.axes)]
    return Dataset(inputs=inputs, targets=np.hstack([truth, truth - inputs[:, -len(model.axes) :]]))


def _train(which: str, scenario, cfg: TrainConfig, k: int, hidden):
    model, data = _MODELS[which], build_training_set(scenario, which, k=k)
    net, history = train(net_init([model.input_size(k), *hidden, 2 * len(model.axes)], cfg.seed), data, cfg)
    return model(network=net, k=k), history


def train_uwb_model(scenario, cfg: TrainConfig, k: int = DEFAULT_K, hidden=DEFAULT_HIDDEN):
    return _train("uwb", scenario, cfg, k, hidden)


def train_baro_model(scenario, cfg: TrainConfig, k: int = DEFAULT_K, hidden=DEFAULT_HIDDEN):
    return _train("baro", scenario, cfg, k, hidden)


MODEL_SCHEMA = {"k": 1}  # the scalars of a model file, for errors.model_document


def model_to_dict(model) -> dict:
    if not isinstance(model, _FcnnModel):
        raise ConfigError(f"not a serializable sensor model: {type(model).__name__}")
    return {"kind": model.kind, "k": model.k, "network": net_to_dict(model.network)}


def model_from_dict(doc: dict, stream: str | None = None):
    """The sensor model a `model_to_dict` document holds: of the kind it names, or
    the model of `stream` ('uwb' or 'baro'). Another kind is a ConfigError."""
    kind = doc.get("kind")
    model = _MODELS[stream] if stream else next((m for m in _MODELS.values() if m.kind == kind), None)
    if model is None or model.kind != kind:
        raise ConfigError(f"not a {stream} model: kind {kind!r}" if stream else f"unknown model kind {kind!r}")
    with model_document(doc, MODEL_SCHEMA):
        return model(network=net_from_dict(doc["network"]), k=doc["k"])
