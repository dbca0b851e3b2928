"""Minimal dense-network engine: forward, exact reverse-mode gradients, the one SGD loop.

Networks are ReLU-hidden / identity-output multilayer perceptrons with
per-feature input standardization baked into the model (mean/std learned
from the training split). The training loss is a per-output weighted squared
error averaged over the batch:

    L = mean_batch sum_s w_s (out_s - target_s)^2

A trainer packs what it trains into one vector θ (`pack`), which `sgd` steps,
works on a copy of its model whose arrays are views into θ, and writes each
minibatch's gradient into one buffer laid out like θ. Everything is
deterministic given seeds, and models serialize to plain JSON dicts whose
floats survive a dump/load round trip bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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

    def n_train(self, n: int) -> int:
        """Rows in the training split of `n` time-ordered rows; at least one row is left for validation."""
        return min(n - 1, max(1, int(round(n * self.split))))


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


def _layers(net: DenseNetwork, a: np.ndarray):
    """Yield each layer's activation for a batch of standardized inputs (rows = examples)."""
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        a = z if i == last else np.maximum(z, 0.0)
        yield a


def _standardize(net: DenseNetwork, x: np.ndarray) -> np.ndarray:
    return (x - net.input_mean) / net.input_std


def _output(net: DenseNetwork, a: np.ndarray) -> np.ndarray:
    """Network output for standardized rows; holds one layer's activations at a time."""
    for a in _layers(net, a):
        pass
    return a


def _forward_trace(net: DenseNetwork, x: np.ndarray) -> list:
    """The standardized input, then every layer's activation, for a batch: all kept for backprop."""
    a = _standardize(net, x)
    return [a, *_layers(net, a)]


def net_forward(net: DenseNetwork, x) -> np.ndarray:
    """Network output for one input or a batch."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != net.layer_sizes[0]:
        raise ValueError(f"input width {x.shape[1]} != network input size {net.layer_sizes[0]}")
    out = _output(net, _standardize(net, x))
    return out[0] if squeeze else out


def _backward(net: DenseNetwork, trace: list, delta: np.ndarray, grads_w: list, grads_b: list) -> None:
    """Backprop an output cotangent through a forward trace, writing each layer's
    weight and bias gradient into `grads_w[i]` and `grads_b[i]`."""
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(delta.T, trace[i], out=grads_w[i])
        delta.sum(axis=0, out=grads_b[i])
        if i > 0:
            # ReLU gate: trace[i] is the post-activation of hidden layer i
            delta = (delta @ net.weights[i]) * (trace[i] > 0.0)


def _weighted_loss(y: np.ndarray, t: np.ndarray, w_out: np.ndarray) -> float:
    err = y - t
    return float(np.sum(w_out * err * err) / len(y))


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
    trace = _forward_trace(net, x)
    grads_w, grads_b = [np.empty_like(w) for w in net.weights], [np.empty_like(b) for b in net.biases]
    _backward(net, trace, 2.0 * w_out * (trace[-1] - t), grads_w, grads_b)
    return _weighted_loss(trace[-1], t, w_out), grads_w, grads_b


def fit_standardization(net: DenseNetwork, x: np.ndarray) -> None:
    """Set the network's input mean/std from the rows it will train on."""
    net.input_mean = x.mean(axis=0)
    net.input_std = np.maximum(x.std(axis=0), _STD_FLOOR)


def pack(arrays) -> tuple[np.ndarray, list]:
    """One float64 vector θ holding `arrays` (floats allowed) end to end, in
    order, and one view into θ per array with that array's shape (0-d for a float)."""
    theta = np.concatenate(arrays, axis=None, dtype=float)
    parts = np.split(theta, np.cumsum([np.size(a) for a in arrays])[:-1])
    return theta, [part.reshape(np.shape(a)) for part, a in zip(parts, arrays)]


def sgd(theta: np.ndarray, n_train: int, cfg: TrainConfig, grad_of, losses) -> list:
    """Mini-batch SGD over training rows 0..n_train-1, stepping the vector `theta` in place.

    `grad_of(rows)` returns (step, g), g laid out like θ, and each minibatch takes
    `theta -= step * g`, scaling g in place. After each epoch `losses()` gives the
    (train, validation) loss; the first non-finite one restores θ to its value after
    the last finite epoch and stops. Returns one loss pair per finite epoch.
    numpy's overflow and invalid-value warnings are silenced: that check reports a
    diverging fit.
    """
    checkpoint = theta.copy()
    rng = np.random.default_rng(cfg.seed)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(n_train)
            for start in range(0, n_train, cfg.batch_size):
                step, g = grad_of(order[start : start + cfg.batch_size])
                theta -= np.multiply(step, g, out=g)  # scales g in place: no θ-sized temporary
            train_loss, val_loss = losses()
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                theta[...] = checkpoint
                break
            history.append((train_loss, val_loss))
            checkpoint[...] = theta
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
    n_train = cfg.n_train(n)
    t_train, t_val = dataset.targets[:n_train], dataset.targets[n_train:]

    theta, views = pack([*net.weights, *net.biases])
    depth = len(net.weights)
    out = replace(net, weights=views[:depth], biases=views[depth:])
    fit_standardization(out, dataset.inputs[:n_train])
    # standardized once per fit: elementwise, so every row is bit-identical to
    # standardizing it in its minibatch
    x_train, x_val = (_standardize(out, x) for x in (dataset.inputs[:n_train], dataset.inputs[n_train:]))
    w_out = cfg.output_weights(out.layer_sizes[-1])
    two_w = 2.0 * w_out
    g, g_views = pack(views)  # one gradient buffer laid out like θ, rewritten every minibatch
    g_w, g_b = g_views[:depth], g_views[depth:]

    def grad_of(rows):
        a = x_train[rows]
        trace = [a, *_layers(out, a)]
        _backward(out, trace, two_w * (trace[-1] - t_train[rows]) / len(rows), g_w, g_b)
        return cfg.learning_rate, g

    def losses():
        splits = ((x_train, t_train), (x_val, t_val))
        return tuple(_weighted_loss(_output(out, x), t, w_out) for x, t in splits)

    history = sgd(theta, n_train, cfg, grad_of, losses)
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
