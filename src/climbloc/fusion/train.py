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

Training runs after the sensor models are fitted: frames are collected with
the trained models in the loop, so the encoders see the same estimate
distributions the application phase produces.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalFailureError
from ..nnet import TrainConfig, _backward, _forward_trace, fit_standardization, sgd
from .attention import (
    AXES,
    MODALITIES,
    AttentionParams,
    attend,
    encode,
    init_attention_params,
    init_encoders,
    ready_windows,
)
from .pipeline import DEFAULT_L, FusionFrame, collect_fusion_frames, stack_frames


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


def fusion_loss_and_grads(batch, encoders: dict, params: AttentionParams, weights=(1.0, 1.0, 2.0)):
    """Summed loss plus its exact gradient for every trainable fusion parameter.

    `batch` is a minibatch of `FrameBatch.arrays` rows or one FusionFrame.
    The backward pass mirrors `attend` step by step, batched over the rows:
    squared error -> convex combination -> masked softmax -> logits ->
    encoders, whose every layer's activations the forward pass keeps.
    Gradients come in the nested layout of the parameters: `w_q[s]`, `w_k`,
    `beta[s]`, `w_r[s]`, `b_prior[(m, s)]`, `enc_w[m][i]`, `enc_b[m][i]`.
    """
    batch = _as_batch(batch, encoders)
    z, traces = np.zeros((len(batch["ready"]), len(MODALITIES), encoders[MODALITIES[0]].layer_sizes[-1])), {}
    for j, m, rows, windows in ready_windows(batch, encoders):
        traces[m] = rows, _forward_trace(encoders[m], windows)
        z[rows, j] = traces[m][1][-1]
    loss, d_fused, gamma, c = _weighted_error(batch, z, params, weights)
    n, d_k = len(batch["truth"]), params.d_k
    d_gamma = d_fused[..., None] * batch["estimates"].transpose(0, 2, 1)
    d_logit = gamma * (d_gamma - np.sum(gamma * d_gamma, axis=2, keepdims=True))
    d_score = d_logit / math.sqrt(d_k)
    d_queries = np.einsum("nsm,nmk->nsk", d_score, c["keys"]).reshape(n, -1)
    d_keys = np.einsum("nsm,nsk->nmk", d_score, c["queries"])
    d_z = (d_queries @ c["w_q"]).reshape(c["z"].shape) + d_keys @ params.w_k
    g_w_q = (d_queries.T @ c["zc"]).reshape(len(AXES), d_k, -1)
    g_prior = d_logit.sum(axis=0)
    grads = {
        "w_q": dict(zip(AXES, g_w_q)),
        "w_k": np.einsum("nmk,nme->ke", d_keys, c["z"]),
        "beta": dict(zip(AXES, np.einsum("nsm,nsm->s", d_logit, c["rel"]).tolist())),
        "w_r": dict(zip(AXES, c["beta"][:, None] * np.einsum("nsm,nmr->sr", d_logit, batch["reliability"]))),
        "b_prior": {
            (m, s): float(g_prior[k, j]) for j, m in enumerate(MODALITIES) for k, s in enumerate(AXES)
        },
        "enc_w": {},
        "enc_b": {},
    }
    for j, m in enumerate(MODALITIES):
        rows, trace = traces[m]
        grads["enc_w"][m], grads["enc_b"][m], _ = _backward(encoders[m], trace, d_z[rows, j])
    return loss, grads


def _copy(params: AttentionParams, scalar) -> AttentionParams:
    """A deep copy with `scalar` applied to each `beta` and `b_prior` value."""
    return AttentionParams(
        w_q={s: w.copy() for s, w in params.w_q.items()},
        w_k=params.w_k.copy(),
        beta={s: scalar(b) for s, b in params.beta.items()},
        w_r={s: w.copy() for s, w in params.w_r.items()},
        b_prior={key: scalar(b) for key, b in params.b_prior.items()},
        d_k=params.d_k,
    )


def _mean_loss(batch: dict, encoders, params, weights) -> float:
    return fusion_loss(batch, encoders, params, weights) / len(batch["truth"])


def train_fusion(
    scenario,
    uwb_model,
    baro_model,
    encoders: dict | None = None,
    params: AttentionParams | None = None,
    cfg: TrainConfig = TrainConfig(learning_rate=1e-3, epochs=40),
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

    encoders = {m: net.copy() for m, net in (encoders or init_encoders(L, seed=cfg.seed)).items()}
    params = params if params is not None else init_attention_params(seed=cfg.seed)
    params = _copy(params, lambda b: np.array(b, dtype=float))  # 0-d arrays, so sgd steps them in place

    n_train = min(len(usable) - 1, max(1, int(round(len(usable) * cfg.split))))
    stacked = _rows(frames.arrays(), usable)
    del frames  # the usable rows replace the batch; freeing it keeps peak memory down
    train_set, val_set = _rows(stacked, slice(None, n_train)), _rows(stacked, slice(n_train, None))
    for j, m in enumerate(MODALITIES):
        if train_set["ready"][:, j].any():
            fit_standardization(encoders[m], train_set[m][train_set["ready"][:, j]])
    weights = tuple(cfg.output_weights(3))

    def grads_of(rows):
        _, grads = fusion_loss_and_grads(_rows(train_set, rows), encoders, params, weights)
        return cfg.learning_rate / len(rows), grads

    def losses():
        return tuple(_mean_loss(split, encoders, params, weights) for split in (train_set, val_set))

    # the layout of the gradients fusion_loss_and_grads returns
    tree = {key: getattr(params, key) for key in ("w_q", "w_k", "beta", "w_r", "b_prior")}
    tree["enc_w"] = {m: encoders[m].weights for m in MODALITIES}
    tree["enc_b"] = {m: encoders[m].biases for m in MODALITIES}
    history = sgd(tree, n_train, cfg, grads_of, losses)
    return encoders, _copy(params, float), history
