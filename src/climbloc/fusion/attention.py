"""Per-axis attention over modality estimates with adaptive covariance.

Each axis runs its own softmax over the modalities that can observe it: the
horizontal axes see UWB and GPS/INS, the vertical axis additionally sees the
barometer. A logit combines three terms: scaled query-key agreement between
learned embeddings of the recent estimate windows, a gated linear read of
hand-computed reliability features, and a trainable prior bias.

The fused measurement variance adds the ratio-weighted intrinsic variances
to a divergence penalty: lambda times the ratio-weighted squared spread of
the modality estimates around the fused value. Agreeing modalities therefore
tighten the covariance; disagreeing ones inflate it.

The algebra exists once, batched over the rows of a frame batch: `attend`
scores the embeddings that `encode` (or the trainer, keeping activations)
computes. `fusion_ratios` and `fuse` are batch-of-one adaptors over its
softmax and fuse steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..nnet import net_forward, net_init

AXES = ("x", "y", "z")
MODALITIES = ("uwb", "gpsins", "baro")
AXIS_MODALITIES = {
    "x": ("uwb", "gpsins"),
    "y": ("uwb", "gpsins"),
    "z": ("uwb", "gpsins", "baro"),
}
MODALITY_INDEX = {m: j for j, m in enumerate(MODALITIES)}
# (axis, modality): the modalities each axis's softmax may weigh
AXIS_MASK = np.array([[m in AXIS_MODALITIES[s] for m in MODALITIES] for s in AXES])
N_RELIABILITY = 2  # features per modality

DEFAULT_L = 10  # fusion epochs per estimate window
DEFAULT_EMBED_DIM = 32
DEFAULT_KEY_DIM = 16
DEFAULT_ENCODER_HIDDEN = 64  # hidden width of each modality's window encoder
DEFAULT_LAMBDA = 1.0


@dataclass(frozen=True)
class ReliabilityScores:
    """Two hand-computed quality features per modality; a FrameBatch holding
    them requires each to be finite and >= 0.

    uwb: (1 - nlos_confidence, mean model sigma); gpsins: (1/(1+hdop),
    innovation magnitude); baro: (1/(1+window variance), sigma_z).
    """

    uwb: tuple
    gpsins: tuple
    baro: tuple

    def __post_init__(self):
        for name in MODALITIES:
            r = tuple(float(v) for v in getattr(self, name))
            if len(r) != N_RELIABILITY:
                raise ValueError(f"{name} reliability needs {N_RELIABILITY} features")
            object.__setattr__(self, name, r)


@dataclass
class AttentionParams:
    """Learnable fusion parameters; mutable because training updates in place."""

    w_q: dict          # axis -> (d_k, 3*d_e)
    w_k: np.ndarray    # (d_k, d_e), shared across modalities
    beta: dict         # axis -> float gate on the reliability term
    w_r: dict          # axis -> (N_RELIABILITY,) reliability read-out
    b_prior: dict      # (modality, axis) -> float
    d_k: int = DEFAULT_KEY_DIM

    def __post_init__(self):
        if self.d_k <= 0:
            raise ConfigError("d_k must be positive")
        d_e3 = self.w_k.shape[1] * 3
        for s in AXES:
            if self.w_q[s].shape != (self.d_k, d_e3):
                raise ConfigError(f"w_q[{s}] must be (d_k, 3*d_e)")
            if self.w_r[s].shape != (N_RELIABILITY,):
                raise ConfigError(f"w_r[{s}] must have {N_RELIABILITY} entries")
        if self.w_k.shape[0] != self.d_k:
            raise ConfigError("w_k rows must equal d_k")
        for m in MODALITIES:
            for s in AXES:
                self.b_prior.setdefault((m, s), 0.0)


def init_attention_params(
    d_e: int = DEFAULT_EMBED_DIM, d_k: int = DEFAULT_KEY_DIM, seed: int = 0
) -> AttentionParams:
    """Small random maps, unit reliability gates, barometer-on-z prior of ln 2."""
    rng = np.random.default_rng(seed)
    scale_q = 1.0 / math.sqrt(3 * d_e)
    scale_k = 1.0 / math.sqrt(d_e)
    params = AttentionParams(
        w_q={s: rng.normal(0.0, scale_q, (d_k, 3 * d_e)) for s in AXES},
        w_k=rng.normal(0.0, scale_k, (d_k, d_e)),
        beta={s: 1.0 for s in AXES},
        w_r={s: rng.normal(0.0, 0.1, N_RELIABILITY) for s in AXES},
        b_prior={(m, s): 0.0 for m in MODALITIES for s in AXES},
        d_k=d_k,
    )
    params.b_prior[("baro", "z")] = math.log(2.0)
    return params


WINDOW_WIDTHS = {"uwb": 3, "gpsins": 3, "baro": 1}  # values per window entry


def init_encoders(
    L: int = DEFAULT_L, d_e: int = DEFAULT_EMBED_DIM, hidden: int = DEFAULT_ENCODER_HIDDEN, seed: int = 0
) -> dict:
    """One fresh single-hidden-layer encoder per modality, seeded per modality."""
    return {
        m: net_init([WINDOW_WIDTHS[m] * L, hidden, d_e], seed + i)
        for i, m in enumerate(MODALITIES)
    }


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Max-stabilized softmax over the last axis, restricted to the entries `mask` keeps.

    Masked-out entries get exactly 0, and so does a row that keeps none.
    """
    top = np.where(mask, logits, -np.inf).max(axis=-1, keepdims=True)
    shifted = np.exp(np.where(mask, logits - top, -np.inf))
    total = shifted.sum(axis=-1, keepdims=True)
    return np.divide(shifted, total, out=np.zeros_like(shifted), where=total != 0)


def fuse_rows(gamma: np.ndarray, estimates: np.ndarray, sigmas: np.ndarray, lam: float):
    """Convex sum per axis plus the divergence-inflated variance, one row per frame.

    `gamma` is (row, axis, modality); `estimates` and `sigmas` are (row,
    modality, axis), 0 wherever gamma is 0. Variance per axis: sum_m gamma
    sigma^2 + lam * sum_m gamma (x_hat - fused)^2. Returns (fused, variance),
    each (row, axis).
    """
    fused = np.einsum("nsm,nms->ns", gamma, estimates)
    intrinsic = np.einsum("nsm,nms->ns", gamma, sigmas * sigmas)
    spread = estimates.transpose(0, 2, 1) - fused[..., None]
    return fused, intrinsic + lam * np.einsum("nsm,nsm->ns", gamma, spread * spread)


def ready_windows(batch: dict, encoders: dict):
    """Per modality: (its index, its name, the rows where it is ready, their
    windows), which must be as wide as its encoder's input (ValueError)."""
    for j, m in enumerate(MODALITIES):
        width = encoders[m].layer_sizes[0]
        if batch[m].shape[1] != width:
            raise ValueError(f"{m} window length {batch[m].shape[1]} != encoder input {width}")
        rows = np.flatnonzero(batch["ready"][:, j])
        yield j, m, rows, batch[m][rows]


def encode(batch: dict, encoders: dict) -> np.ndarray:
    """Embeddings (row, modality, d_e) of each ready modality's window; zeros where it is not ready."""
    z = np.zeros((len(batch["ready"]), len(MODALITIES), encoders[MODALITIES[0]].layer_sizes[-1]))
    for j, m, rows, windows in ready_windows(batch, encoders):
        z[rows, j] = net_forward(encoders[m], windows)
    return z


def attend(batch: dict, z: np.ndarray, params: AttentionParams, lam: float = DEFAULT_LAMBDA):
    """Per-axis attention over the rows of a batch: score, softmax, fuse.

    `batch` holds one row per frame, as `FrameBatch.arrays` builds it: the
    "ready" mask and the "estimates", "sigmas" and "reliability" arrays.
    `z` holds the rows' embeddings (`encode`), zeros for a modality that is
    not ready. A logit adds scaled query-key agreement, the gated
    reliability read-out and the prior bias; the softmax runs over the
    modalities each axis may weigh that are ready in the row.

    Returns (ratios, fused, variance, cache): ratios (row, axis, modality),
    fused positions and fused variances (row, axis), and the intermediates
    the training backward pass reads.
    """
    ready = batch["ready"]
    n, d_k = len(ready), params.d_k
    zc = z.reshape(n, len(MODALITIES) * z.shape[2])
    w_q = np.stack([params.w_q[s] for s in AXES]).reshape(len(AXES) * d_k, -1)
    queries = (zc @ w_q.T).reshape(n, len(AXES), d_k)
    keys = z @ params.w_k.T
    beta = np.array([params.beta[s] for s in AXES])
    w_r = np.stack([params.w_r[s] for s in AXES])
    prior = np.array([[params.b_prior[(m, s)] for m in MODALITIES] for s in AXES])
    rel = np.einsum("nmr,sr->nsm", batch["reliability"], w_r)
    logits = np.einsum("nsk,nmk->nsm", queries, keys) / math.sqrt(d_k) + beta[:, None] * rel + prior

    gamma = masked_softmax(logits, ready[:, None, :] & AXIS_MASK)
    fused, variance = fuse_rows(gamma, batch["estimates"], batch["sigmas"], lam)
    cache = {"z": z, "zc": zc, "w_q": w_q, "queries": queries, "keys": keys, "beta": beta, "rel": rel}
    return gamma, fused, variance, cache


@dataclass(frozen=True)
class FusedObservation:
    """Fused position measurement with its adaptive diagonal covariance."""

    t: float
    position: np.ndarray   # fused (x, y, z)
    variance: np.ndarray   # diagonal of the measurement covariance
    ratios: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "variance", np.asarray(self.variance, dtype=float))
        if self.position.shape != (3,) or self.variance.shape != (3,):
            raise ValueError("position and variance must be 3-vectors")
        if np.any(self.variance < 0):
            raise ValueError("variance components must be >= 0")
        for s, axis in self.ratios.items():
            if axis:
                total = sum(axis.values())
                if abs(total - 1.0) > 1e-9 or any(not 0.0 <= g <= 1.0 for g in axis.values()):
                    raise ValueError(f"axis {s} ratios are not a probability vector: {axis}")


def fusion_ratios(logits: dict) -> dict:
    """Softmax per axis over the modalities its logits name; empty axes yield empty dicts.

    A batch-of-one adaptor over `masked_softmax`: `logits` maps axis ->
    {modality: logit}.
    """
    raw = np.zeros((len(logits), len(MODALITIES)))
    mask = np.zeros(raw.shape, dtype=bool)
    for k, axis in enumerate(logits.values()):
        for m, v in axis.items():
            raw[k, MODALITY_INDEX[m]] = v
            mask[k, MODALITY_INDEX[m]] = True
    gamma = masked_softmax(raw, mask)
    return {
        s: {m: float(gamma[k, MODALITY_INDEX[m]]) for m in axis}
        for k, (s, axis) in enumerate(logits.items())
    }


def fuse(ratios: dict, estimates: dict, sigmas: dict, lam: float = DEFAULT_LAMBDA, t: float = 0.0) -> FusedObservation:
    """Fused position and variance of one frame; a batch-of-one adaptor over `fuse_rows`.

    `ratios[s]` maps modality -> weight per axis; `estimates[m]` and
    `sigmas[m]` hold the axis values the modality can see (dicts axis ->
    float).
    """
    gamma = np.zeros((1, len(AXES), len(MODALITIES)))
    est = np.zeros((1, len(MODALITIES), len(AXES)))
    sig = np.zeros_like(est)
    for k, s in enumerate(AXES):
        axis_ratios = ratios.get(s) or {}
        if not axis_ratios:
            raise ValueError(f"no modality available for axis {s}")
        for m, g in axis_ratios.items():
            j = MODALITY_INDEX[m]
            gamma[0, k, j], est[0, j, k], sig[0, j, k] = g, estimates[m][s], sigmas[m][s]
    fused, variance = fuse_rows(gamma, est, sig, lam)
    return FusedObservation(t=t, position=fused[0], variance=variance[0], ratios=ratios)

