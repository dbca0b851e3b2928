"""Gradient training of the attention-fusion parameters.

The trainable set is the three modality encoders plus every attention
parameter (query maps, shared key map, reliability gates and read-outs,
prior biases). The loss per epoch frame is the axis-weighted squared error
of the fused position against ground truth, with gradients propagated by
hand through the fusion ratio softmax, the logit algebra, and the encoders.
The trainer takes the fusible ground-truth rows of one frame batch, and each
minibatch is one pass of the attention kernel (`attend`) forward plus one
batched backward pass over its rows; `nnet.sgd` draws the minibatches, steps
and checkpoints. Only the gradient pass keeps the encoders' activations.
The trained values are packed into one vector θ in the order `_packed`
fixes; the working encoders and attention parameters are views into θ, and
each minibatch writes its gradient into one buffer laid out the same way.

Training runs after the sensor models are fitted: frames are collected with
the trained models in the loop, so the encoders see the same estimate
distributions the application phase produces.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..errors import NumericalFailureError
from ..nnet import TrainConfig, _backward, _forward_trace, fit_standardization, pack, sgd
from .attention import (
    AXES,
    DEFAULT_L,
    MODALITIES,
    AttentionParams,
    attend,
    encode,
    init_attention_params,
    init_encoders,
    ready_windows,
)
from .pipeline import FusionFrame, collect_fusion_frames, stack_frames


def _rows(batch: dict, index) -> dict:
    return {key: values[index] for key, values in batch.items()}


def _as_batch(batch, encoders: dict) -> dict:
    return stack_frames([batch], encoders).arrays() if isinstance(batch, FusionFrame) else batch


def _weighted_error(batch: dict, z, params: AttentionParams, weights):
    """The kernel scored against truth: (summed axis-weighted squared error,
    its gradient with respect to the fused positions, ratios, kernel cache)."""
    gamma, fused, _, cache = attend(batch, z, params)
    w = np.asarray(weights, dtype=float)
    err = fused - batch["truth"]
    return float(np.sum(w * err * err)), 2.0 * w * err, gamma, cache


def fusion_loss(batch, encoders: dict, params: AttentionParams, weights=(1.0, 1.0, 2.0)) -> float:
    """Summed axis-weighted squared error over `FrameBatch.arrays` rows; a FusionFrame is a batch of one."""
    batch = _as_batch(batch, encoders)
    return _weighted_error(batch, encode(batch, encoders), params, weights)[0]


def _packed(encoders: dict, params: AttentionParams) -> tuple[np.ndarray, dict]:
    """θ, the trained values in one vector, and its views by group, in θ's order:
    "w_q" (axis, d_k, 3 d_e), "beta" (axis,), "w_r" (axis, N_RELIABILITY),
    "w_k", "b_prior" (axis, modality), then the encoders' "weights" and
    "biases", each {modality: one view per layer}."""
    head = {
        "w_q": np.stack([params.w_q[s] for s in AXES]),
        "beta": [params.beta[s] for s in AXES],
        "w_r": np.stack([params.w_r[s] for s in AXES]),
        "w_k": params.w_k,
        # the whole prior table: the barometer's x and y priors are masked out
        # of their softmax, so their gradient is exactly 0 and they keep their values
        "b_prior": [[params.b_prior[(m, s)] for m in MODALITIES] for s in AXES],
    }
    layers = [a for key in ("weights", "biases") for m in MODALITIES for a in getattr(encoders[m], key)]
    theta, views = pack([*head.values(), *layers])
    groups, views = dict(zip(head, views)), iter(views[len(head) :])
    for key in ("weights", "biases"):
        groups[key] = {m: [next(views) for _ in getattr(encoders[m], key)] for m in MODALITIES}
    return theta, groups


def fusion_loss_and_grads(batch, encoders: dict, params: AttentionParams, weights=(1.0, 1.0, 2.0), out=None):
    """Summed loss plus its exact gradient for every trainable fusion parameter.

    `batch` is a minibatch of `FrameBatch.arrays` rows or one FusionFrame.
    The backward pass mirrors `attend` step by step, batched over the rows:
    squared error -> convex combination -> masked softmax -> logits ->
    encoders, whose every layer's activations the forward pass keeps.
    Gradients come in the nested layout of the parameters: `w_q[s]`, `w_k`,
    `beta[s]`, `w_r[s]`, `b_prior[(m, s)]`, `enc_w[m][i]`, `enc_b[m][i]`.
    Given `out`, the group views `_packed` returns for a vector laid out like
    θ, they are written into that vector instead, and `out` is returned.
    """
    batch = _as_batch(batch, encoders)
    z, traces = np.zeros((len(batch["ready"]), len(MODALITIES), encoders[MODALITIES[0]].layer_sizes[-1])), {}
    for j, m, rows, windows in ready_windows(batch, encoders):
        traces[m] = rows, _forward_trace(encoders[m], windows)
        z[rows, j] = traces[m][1][-1]
    loss, d_fused, gamma, c = _weighted_error(batch, z, params, weights)
    g = out if out is not None else _packed(encoders, params)[1]
    n, d_k = len(batch["truth"]), params.d_k
    d_gamma = d_fused[..., None] * batch["estimates"].transpose(0, 2, 1)
    d_logit = gamma * (d_gamma - np.sum(gamma * d_gamma, axis=2, keepdims=True))
    d_score = d_logit / math.sqrt(d_k)
    d_queries = np.einsum("nsm,nmk->nsk", d_score, c["keys"]).reshape(n, -1)
    d_keys = np.einsum("nsm,nsk->nmk", d_score, c["queries"])
    d_z = (d_queries @ c["w_q"]).reshape(c["z"].shape) + d_keys @ params.w_k
    np.matmul(d_queries.T, c["zc"], out=g["w_q"].reshape(len(AXES) * d_k, -1))
    g["beta"][...] = np.einsum("nsm,nsm->s", d_logit, c["rel"])
    np.multiply(c["beta"][:, None], np.einsum("nsm,nmr->sr", d_logit, batch["reliability"]), out=g["w_r"])
    g["w_k"][...] = np.einsum("nmk,nme->ke", d_keys, c["z"])
    g["b_prior"][...] = d_logit.sum(axis=0)
    for j, m in enumerate(MODALITIES):
        rows, trace = traces[m]
        _backward(encoders[m], trace, d_z[rows, j], g["weights"][m], g["biases"][m])
    if out is not None:
        return loss, out
    return loss, {
        "w_q": dict(zip(AXES, g["w_q"])),
        "w_k": g["w_k"],
        "beta": dict(zip(AXES, g["beta"].tolist())),
        "w_r": dict(zip(AXES, g["w_r"])),
        "b_prior": {
            (m, s): float(g["b_prior"][k, j]) for j, m in enumerate(MODALITIES) for k, s in enumerate(AXES)
        },
        "enc_w": g["weights"],
        "enc_b": g["biases"],
    }


def _mean_loss(batch: dict, encoders, params, weights) -> float:
    return fusion_loss(batch, encoders, params, weights) / len(batch["truth"])


def train_fusion(
    scenario,
    uwb_model,
    baro_model,
    cfg: TrainConfig,
    encoders: dict | None = None,
    params: AttentionParams | None = None,
    L: int = DEFAULT_L,
    frames=None,
):
    """Fit encoders + attention parameters against ground truth.

    Returns (encoders, params, history) with history one (train, validation)
    mean-loss pair per epoch. Inputs are never mutated. A non-finite epoch
    loss aborts and returns the last finite-loss checkpoint instead of
    raising, so a long fit cannot be lost to a late blow-up. `frames`, when
    given, is the FrameBatch to train on in place of one collected from the
    scenario; its fusible rows are used when it has ground truth.
    """
    if frames is None:
        frames = collect_fusion_frames(scenario, uwb_model, baro_model, L=L)
    usable = np.flatnonzero(frames.fusible & (frames.truth is not None))
    if len(usable) < 2:
        raise NumericalFailureError("not enough fusible ground-truth epochs to train on")

    encoders = encoders or init_encoders(L, seed=cfg.seed)
    params = params if params is not None else init_attention_params(seed=cfg.seed)
    theta, group = _packed(encoders, params)
    # the working copy: each trained value a view into theta
    encoders = {
        m: replace(encoders[m], weights=group["weights"][m], biases=group["biases"][m]) for m in MODALITIES
    }
    params = replace(
        params,
        w_q=dict(zip(AXES, group["w_q"])),
        beta={s: group["beta"][k, ...] for k, s in enumerate(AXES)},
        w_r=dict(zip(AXES, group["w_r"])),
        w_k=group["w_k"],
        b_prior={(m, s): group["b_prior"][k, j, ...] for j, m in enumerate(MODALITIES) for k, s in enumerate(AXES)},
    )

    n_train = cfg.n_train(len(usable))
    stacked = _rows(frames.arrays(), usable)
    del frames  # the usable rows replace the batch; freeing it keeps peak memory down
    train_set, val_set = _rows(stacked, slice(None, n_train)), _rows(stacked, slice(n_train, None))
    for j, m in enumerate(MODALITIES):
        if train_set["ready"][:, j].any():
            fit_standardization(encoders[m], train_set[m][train_set["ready"][:, j]])
    weights = tuple(cfg.output_weights(3))

    g, g_groups = _packed(encoders, params)  # the gradient buffer, rewritten every minibatch

    def grad_of(rows):
        fusion_loss_and_grads(_rows(train_set, rows), encoders, params, weights, out=g_groups)
        return cfg.learning_rate / len(rows), g

    def losses():
        return tuple(_mean_loss(split, encoders, params, weights) for split in (train_set, val_set))

    history = sgd(theta, n_train, cfg, grad_of, losses)
    floats = {name: {key: float(v) for key, v in getattr(params, name).items()} for name in ("beta", "b_prior")}
    return encoders, replace(params, **floats), history
