"""Minimal dense-network engine: forward, exact reverse-mode gradients, the one SGD loop.

Networks are ReLU-hidden / identity-output multilayer perceptrons with
per-feature input standardization baked into the model (mean/std learned
from the training split). The training loss is a per-output weighted squared
error averaged over the batch:

    L = mean_batch sum_s w_s (out_s - target_s)^2

Everything is deterministic given seeds, and models serialize to plain JSON
dicts whose floats survive a dump/load round trip bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalFailureError

_STD_FLOOR = 1e-8


@dataclass
class DenseNetwork:
    """Immutable-by-convention MLP; create with net_init or net_from_dict."""

    layer_sizes: tuple[int, ...]
    weights: list        # per layer, shape (fan_out, fan_in), row-major
    biases: list         # per layer, shape (fan_out,)
    input_mean: np.ndarray = None
    input_std: np.ndarray = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.layer_sizes = tuple(int(n) for n in self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ConfigError("a network needs at least input and output layers")
        if any(n <= 0 for n in self.layer_sizes):
            raise ConfigError("layer sizes must be positive")
        if len(self.weights) != len(self.layer_sizes) - 1 or len(self.biases) != len(self.weights):
            raise ConfigError("one weight matrix and bias vector per layer transition")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_sizes[i + 1], self.layer_sizes[i])
            if w.shape != expect or b.shape != (expect[0],):
                raise ConfigError(f"layer {i} parameter shape mismatch: {w.shape} vs {expect}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ConfigError(f"layer {i} has non-finite parameters")
        if self.input_mean is None:
            self.input_mean = np.zeros(self.layer_sizes[0])
        if self.input_std is None:
            self.input_std = np.ones(self.layer_sizes[0])
        self.input_mean = np.asarray(self.input_mean, dtype=float)
        self.input_std = np.asarray(self.input_std, dtype=float)
        if self.input_mean.shape != (self.layer_sizes[0],) or self.input_std.shape != (
            self.layer_sizes[0],
        ):
            raise ConfigError("standardization vectors must match the input size")

    @property
    def activations(self) -> tuple[str, ...]:
        return ("relu",) * (len(self.layer_sizes) - 2) + ("identity",)

    def copy(self) -> "DenseNetwork":
        return DenseNetwork(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            input_mean=self.input_mean.copy(),
            input_std=self.input_std.copy(),
            metadata=dict(self.metadata),
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    # cycled to the network's output width; for a 3-axis position head this
    # is (w_x, w_y, w_z) with the vertical axis penalized hardest
    axis_weights: tuple = (1.0, 1.0, 2.0)
    split: float = 0.75

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.epochs < 0 or self.batch_size <= 0:
            raise ConfigError("epochs must be >= 0 and batch size > 0")
        if not 0.0 < self.split < 1.0:
            raise ConfigError("split must be in (0, 1)")
        w = tuple(float(x) for x in self.axis_weights)
        if any(x < 0 for x in w):
            raise ConfigError("axis weights must be >= 0")
        if len(w) == 3 and w[2] < w[0]:
            raise ConfigError("the vertical axis weight must be >= the horizontal one")
        object.__setattr__(self, "axis_weights", w)

    def output_weights(self, n_out: int) -> np.ndarray:
        return np.resize(np.asarray(self.axis_weights, dtype=float), n_out)


@dataclass(frozen=True)
class Dataset:
    """Row-per-example supervised set; rows must already be in time order."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=float))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-D (rows = examples)")
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets must have the same number of rows")
        if len(self.inputs) == 0:
            raise ValueError("dataset is empty")

    def __len__(self):
        return len(self.inputs)


def net_init(layer_sizes, seed: int) -> DenseNetwork:
    """He-scaled random weights, zero biases; bit-reproducible per seed."""
    sizes = tuple(int(n) for n in layer_sizes)
    if len(sizes) < 2:
        raise ConfigError("need at least two layers")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseNetwork(sizes, weights, biases, metadata={"seed": int(seed)})


def _activations(net: DenseNetwork, x: np.ndarray):
    """Yield the standardized input, then each layer's activation, for a batch (rows = examples)."""
    a = (x - net.input_mean) / net.input_std
    yield a
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        a = z if i == last else np.maximum(z, 0.0)
        yield a


def _forward_trace(net: DenseNetwork, x: np.ndarray):
    """Activations per layer for a batch, all kept for backprop."""
    return list(_activations(net, x))


def net_forward(net: DenseNetwork, x) -> np.ndarray:
    """Network output for one input or a batch; holds one layer's activations at a time."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != net.layer_sizes[0]:
        raise ValueError(f"input width {x.shape[1]} != network input size {net.layer_sizes[0]}")
    for out in _activations(net, x):
        pass
    return out[0] if squeeze else out


def _backward(net: DenseNetwork, trace: list, delta: np.ndarray):
    """Backprop an output cotangent through a forward trace.

    Returns (weight grads, bias grads, input grads) where the input grads
    are taken w.r.t. the raw (unstandardized) input.
    """
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = delta.T @ trace[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            # ReLU gate: trace[i] is the post-activation of hidden layer i
            delta = (delta @ net.weights[i]) * (trace[i] > 0.0)
        else:
            delta = delta @ net.weights[i]
    return grads_w, grads_b, delta / net.input_std


def _loss_and_grads(net: DenseNetwork, x: np.ndarray, t: np.ndarray, w_out: np.ndarray):
    trace = _forward_trace(net, x)
    err = trace[-1] - t
    n = len(x)
    loss = float(np.sum(w_out * err * err) / n)
    grads_w, grads_b, _ = _backward(net, trace, 2.0 * w_out * err / n)
    return loss, grads_w, grads_b


def net_gradient(net: DenseNetwork, x, target, axis_weights):
    """Exact gradients of the weighted squared error for one example.

    Returns (loss, weight gradients, bias gradients) matching the layer
    layout of `net.weights` / `net.biases`.
    """
    x = np.asarray(x, dtype=float)[None, :]
    t = np.asarray(target, dtype=float)[None, :]
    w_out = np.asarray(axis_weights, dtype=float)
    if w_out.shape != (net.layer_sizes[-1],):
        raise ValueError("axis_weights must have one entry per output")
    return _loss_and_grads(net, x, t, w_out)


def _evaluate(net, x, t, w_out) -> float:
    err = net_forward(net, x) - t
    return float(np.sum(w_out * err * err) / len(x))


def fit_standardization(net: DenseNetwork, x: np.ndarray) -> None:
    """Set the network's input mean/std from the rows it will train on."""
    net.input_mean = x.mean(axis=0)
    net.input_std = np.maximum(x.std(axis=0), _STD_FLOOR)


def _leaves(tree) -> list:
    """The arrays of a tree of dicts and lists, in one fixed order (dict keys sorted)."""
    if isinstance(tree, dict):
        return [leaf for key in sorted(tree) for leaf in _leaves(tree[key])]
    if isinstance(tree, (list, tuple)):
        return [leaf for branch in tree for leaf in _leaves(branch)]
    return [tree]


def sgd(params, n_train: int, cfg: TrainConfig, grads_of, losses) -> list:
    """Mini-batch SGD over training rows 0..n_train-1, stepping `params` in place.

    `params` is a tree of dicts and lists of float arrays; `grads_of(rows)`
    returns (step, grads), grads in the same layout, and each array takes
    `p -= step * g`. After each epoch `losses()` gives the (train, validation)
    loss; the first non-finite one restores every array to its value after
    the last finite epoch and stops. Returns one loss pair per finite epoch.
    """
    arrays = _leaves(params)
    checkpoint = [p.copy() for p in arrays]
    rng = np.random.default_rng(cfg.seed)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            step, grads = grads_of(order[start : start + cfg.batch_size])
            for p, g in zip(arrays, _leaves(grads), strict=True):
                np.subtract(p, step * g, out=p)  # in place: a Python float leaf raises
        train_loss, val_loss = losses()
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            for p, saved in zip(arrays, checkpoint):
                p[...] = saved
            break
        history.append((train_loss, val_loss))
        checkpoint = [p.copy() for p in arrays]
    return history


def train(net: DenseNetwork, dataset: Dataset, cfg: TrainConfig):
    """Mini-batch SGD on a chronological train/validation split.

    Returns (trained network, history) where history is a list of
    (train_loss, val_loss) pairs, one per epoch. The input network is left
    untouched. Standardization is recomputed from the training split.
    """
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least two examples to split")
    n_train = min(n - 1, max(1, int(round(n * cfg.split))))
    x_train, t_train = dataset.inputs[:n_train], dataset.targets[:n_train]
    x_val, t_val = dataset.inputs[n_train:], dataset.targets[n_train:]

    out = net.copy()
    fit_standardization(out, x_train)
    w_out = cfg.output_weights(out.layer_sizes[-1])

    def grads_of(rows):
        return cfg.learning_rate, _loss_and_grads(out, x_train[rows], t_train[rows], w_out)[1:]

    def losses():
        return _evaluate(out, x_train, t_train, w_out), _evaluate(out, x_val, t_val, w_out)

    history = sgd([out.weights, out.biases], n_train, cfg, grads_of, losses)
    if len(history) < cfg.epochs:
        raise NumericalFailureError(f"training diverged at epoch {len(history)}: non-finite loss")
    out.metadata = dict(out.metadata, epochs=cfg.epochs, train_seed=cfg.seed)
    return out, history


def net_to_dict(net: DenseNetwork) -> dict:
    """JSON-ready representation; floats round-trip bit-exactly through json."""
    return {
        "layer_sizes": list(net.layer_sizes),
        "activations": list(net.activations),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "input_mean": net.input_mean.tolist(),
        "input_std": net.input_std.tolist(),
        "metadata": dict(net.metadata),
    }


def net_from_dict(doc: dict) -> DenseNetwork:
    expected = ["relu"] * (len(doc["layer_sizes"]) - 2) + ["identity"]
    if list(doc.get("activations", expected)) != expected:
        raise ConfigError("unsupported activation layout")
    return DenseNetwork(
        layer_sizes=tuple(doc["layer_sizes"]),
        weights=[np.asarray(w, dtype=float) for w in doc["weights"]],
        biases=[np.asarray(b, dtype=float) for b in doc["biases"]],
        input_mean=np.asarray(doc["input_mean"], dtype=float),
        input_std=np.asarray(doc["input_std"], dtype=float),
        metadata=dict(doc.get("metadata", {})),
    )
