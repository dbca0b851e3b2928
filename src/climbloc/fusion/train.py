"""Gradient training of the attention-fusion parameters.

The trainable set is the three modality encoders plus every attention
parameter (query maps, shared key map, reliability gates and read-outs,
prior biases). The loss per epoch frame is the axis-weighted squared error
of the fused position against ground truth, with gradients propagated by
hand through the fusion ratio softmax, the logit algebra, and the encoders.
The frames are stacked into arrays once, and each minibatch is one pass of
the attention kernel (`attend`) forward plus one batched backward pass over
its rows.

Training runs after the sensor models are fitted: frames are collected with
the trained models in the loop, so the encoders see the same estimate
distributions the application phase produces.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from ..errors import NumericalFailureError
from ..nnet import _STD_FLOOR, TrainConfig, _backward
from .attention import AXES, MODALITIES, AttentionParams, attend, init_attention_params, init_encoders
from .pipeline import DEFAULT_L, FusionFrame, collect_fusion_frames, stack_frames


def _rows(batch: dict, index) -> dict:
    return {key: values[index] for key, values in batch.items()}


def _as_batch(batch, encoders: dict) -> dict:
    return stack_frames([batch], encoders) if isinstance(batch, FusionFrame) else batch


def _weighted_error(batch: dict, encoders: dict, params: AttentionParams, weights):
    """The kernel scored against truth: (summed axis-weighted squared error,
    its gradient with respect to the fused positions, ratios, kernel cache)."""
    gamma, fused, _, cache = attend(batch, encoders, params)
    w = np.asarray(weights, dtype=float)
    err = fused - batch["truth"]
    return float(np.sum(w * err * err)), 2.0 * w * err, gamma, cache


def fusion_loss(batch, encoders: dict, params: AttentionParams, weights=(1.0, 1.0, 2.0)) -> float:
    """Summed axis-weighted squared error over a `stack_frames` batch; a FusionFrame is a batch of one."""
    return _weighted_error(_as_batch(batch, encoders), encoders, params, weights)[0]


def fusion_loss_and_grads(batch, encoders: dict, params: AttentionParams, weights=(1.0, 1.0, 2.0)):
    """Summed loss plus its exact gradient for every trainable fusion parameter.

    `batch` is a minibatch from `stack_frames` or one FusionFrame. The backward
    pass mirrors `attend` step by step, batched over the rows: squared
    error -> convex combination -> masked softmax -> logits -> encoders.
    Gradients come in the nested layout of the parameters: `w_q[s]`, `w_k`,
    `beta[s]`, `w_r[s]`, `b_prior[(m, s)]`, `enc_w[m][i]`, `enc_b[m][i]`.
    """
    batch = _as_batch(batch, encoders)
    loss, d_fused, gamma, c = _weighted_error(batch, encoders, params, weights)
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
        rows, trace = c["traces"][m]
        grads["enc_w"][m], grads["enc_b"][m], _ = _backward(encoders[m], trace, d_z[rows, j])
    return loss, grads


def _apply(encoders: dict, params: AttentionParams, grads: dict, step: float) -> None:
    for s in AXES:
        params.w_q[s] -= step * grads["w_q"][s]
        params.beta[s] -= step * grads["beta"][s]
        params.w_r[s] -= step * grads["w_r"][s]
    params.w_k -= step * grads["w_k"]
    for key, g in grads["b_prior"].items():
        params.b_prior[key] -= step * g
    for m in grads["enc_w"]:
        net = encoders[m]
        for i in range(len(net.weights)):
            net.weights[i] -= step * grads["enc_w"][m][i]
            net.biases[i] -= step * grads["enc_b"][m][i]


def _bake_standardization(encoders: dict, batch: dict) -> None:
    """Fit each encoder's input mean/std from the windows it will train on."""
    for j, m in enumerate(MODALITIES):
        rows = batch[m][batch["ready"][:, j]]
        if not len(rows):
            continue
        encoders[m].input_mean = rows.mean(axis=0)
        encoders[m].input_std = np.maximum(rows.std(axis=0), _STD_FLOOR)


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
    raising, so a long fit cannot be lost to a late blow-up.
    """
    if frames is None:
        frames = collect_fusion_frames(scenario, uwb_model, baro_model, L=L)
    usable = [f for f in frames if f.fusible() and f.truth_position is not None]
    if len(usable) < 2:
        raise NumericalFailureError("not enough fusible ground-truth epochs to train on")

    encoders = {m: net.copy() for m, net in (encoders or init_encoders(L, seed=cfg.seed)).items()}
    params = copy.deepcopy(params) if params is not None else init_attention_params(seed=cfg.seed)

    n_train = min(len(usable) - 1, max(1, int(round(len(usable) * cfg.split))))
    stacked = stack_frames(usable, encoders)
    del frames, usable  # the stacked rows replace them; freeing them keeps peak memory down
    train_set, val_set = _rows(stacked, slice(None, n_train)), _rows(stacked, slice(n_train, None))
    _bake_standardization(encoders, train_set)
    weights = tuple(cfg.output_weights(3))

    rng = np.random.default_rng(cfg.seed)
    history = []
    checkpoint = (copy.deepcopy(encoders), copy.deepcopy(params))
    for _ in range(cfg.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            _, grads = fusion_loss_and_grads(_rows(train_set, rows), encoders, params, weights)
            _apply(encoders, params, grads, cfg.learning_rate / len(rows))
        train_loss = _mean_loss(train_set, encoders, params, weights)
        val_loss = _mean_loss(val_set, encoders, params, weights)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            encoders, params = checkpoint
            break
        history.append((train_loss, val_loss))
        checkpoint = (copy.deepcopy(encoders), copy.deepcopy(params))
    return encoders, params, history
