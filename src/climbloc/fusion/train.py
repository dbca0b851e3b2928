"""Gradient training of the attention-fusion parameters.

The trainable set is the three modality encoders plus every attention
parameter (query maps, shared key map, reliability gates and read-outs,
prior biases). The loss per epoch frame is the axis-weighted squared error
of the fused position against ground truth, with gradients propagated by
hand through the fusion ratio softmax, the logit algebra, and the encoders.

Training runs after the sensor models are fitted: frames are collected with
the trained models in the loop, so the encoders see the same estimate
distributions the application phase produces.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from ..errors import NumericalFailureError
from ..nnet import _STD_FLOOR, TrainConfig, net_vjp
from .attention import (
    AXES,
    AXIS_MODALITIES,
    MODALITIES,
    AttentionParams,
    attention_logits,
    encode,
    fusion_ratios,
    init_attention_params,
    init_encoders,
)
from .pipeline import DEFAULT_L, collect_fusion_frames


def _zero_grads(encoders: dict, params: AttentionParams) -> dict:
    return {
        "w_q": {s: np.zeros_like(params.w_q[s]) for s in AXES},
        "w_k": np.zeros_like(params.w_k),
        "beta": {s: 0.0 for s in AXES},
        "w_r": {s: np.zeros_like(params.w_r[s]) for s in AXES},
        "b_prior": {key: 0.0 for key in params.b_prior},
        "enc_w": {m: [np.zeros_like(w) for w in encoders[m].weights] for m in encoders},
        "enc_b": {m: [np.zeros_like(b) for b in encoders[m].biases] for m in encoders},
    }


def _accumulate(total: dict, part: dict) -> None:
    for s in AXES:
        total["w_q"][s] += part["w_q"][s]
        total["beta"][s] += part["beta"][s]
        total["w_r"][s] += part["w_r"][s]
    total["w_k"] += part["w_k"]
    for key, v in part["b_prior"].items():
        total["b_prior"][key] += v
    for m in part["enc_w"]:
        for i in range(len(part["enc_w"][m])):
            total["enc_w"][m][i] += part["enc_w"][m][i]
            total["enc_b"][m][i] += part["enc_b"][m][i]


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


def fusion_forward(frame, encoders: dict, params: AttentionParams):
    """(fused position per axis, ratios, embeddings) for one frame."""
    ready = set(frame.ready())
    windows = {m: frame.windows[m] if m in ready else None for m in MODALITIES}
    embeddings = encode(encoders, windows)
    ratios = fusion_ratios(attention_logits(params, embeddings, frame.reliability))
    fused = {
        s: sum(g * frame.estimates[m][s] for m, g in ratios[s].items()) for s in AXES if ratios[s]
    }
    return fused, ratios, embeddings


def fusion_loss(frame, encoders: dict, params: AttentionParams, weights=(1.0, 1.0, 2.0)) -> float:
    fused, _, _ = fusion_forward(frame, encoders, params)
    return sum(
        w * (fused[s] - frame.truth_position[i]) ** 2
        for i, (s, w) in enumerate(zip(AXES, weights))
        if s in fused
    )


def fusion_loss_and_grads(frame, encoders: dict, params: AttentionParams, weights=(1.0, 1.0, 2.0)):
    """Loss plus exact gradients for every trainable fusion parameter.

    The forward pass reuses the same public functions the application path
    calls; the backward pass mirrors them term by term: squared error ->
    convex combination -> softmax -> logits -> encoders.
    """
    fused, ratios, embeddings = fusion_forward(frame, encoders, params)
    grads = _zero_grads(encoders, params)
    present = [m for m in MODALITIES if embeddings.get(m) is not None]
    d_e = params.w_k.shape[1]
    zc = np.concatenate(
        [embeddings[m] if embeddings.get(m) is not None else np.zeros(d_e) for m in MODALITIES]
    )
    keys = {m: params.w_k @ embeddings[m] for m in present}
    scale = 1.0 / math.sqrt(params.d_k)

    loss = 0.0
    d_zc = np.zeros_like(zc)
    d_keys = {m: np.zeros(params.d_k) for m in present}
    for i, (s, w_s) in enumerate(zip(AXES, weights)):
        mods = [m for m in AXIS_MODALITIES[s] if m in ratios[s]]
        if not mods:
            continue
        gamma = np.array([ratios[s][m] for m in mods])
        x_hat = np.array([frame.estimates[m][s] for m in mods])
        err = fused[s] - frame.truth_position[i]
        loss += w_s * err * err

        d_gamma = 2.0 * w_s * err * x_hat
        d_logit = gamma * (d_gamma - float(gamma @ d_gamma))

        q = params.w_q[s] @ zc
        d_q = np.zeros(params.d_k)
        for j, m in enumerate(mods):
            rel = frame.reliability.of(m)
            d_keys[m] += d_logit[j] * q * scale
            d_q += d_logit[j] * keys[m] * scale
            grads["beta"][s] += d_logit[j] * float(params.w_r[s] @ rel)
            grads["w_r"][s] += d_logit[j] * params.beta[s] * rel
            grads["b_prior"][(m, s)] += d_logit[j]
        grads["w_q"][s] += np.outer(d_q, zc)
        d_zc += params.w_q[s].T @ d_q

    for idx, m in enumerate(MODALITIES):
        if m not in present:
            continue
        d_z = d_zc[idx * d_e : (idx + 1) * d_e] + params.w_k.T @ d_keys[m]
        grads["w_k"] += np.outer(d_keys[m], embeddings[m])
        _, _, g_w, g_b = net_vjp(encoders[m], frame.windows[m], d_z)
        grads["enc_w"][m] = g_w
        grads["enc_b"][m] = g_b
    return loss, grads


def _bake_standardization(encoders: dict, frames) -> None:
    """Fit each encoder's input mean/std from the frames it will train on."""
    for m, net in encoders.items():
        rows = [f.windows[m] for f in frames if f.windows.get(m) is not None]
        if not rows:
            continue
        stacked = np.asarray(rows, dtype=float)
        net.input_mean = stacked.mean(axis=0)
        net.input_std = np.maximum(stacked.std(axis=0), _STD_FLOOR)


def _mean_loss(frames, encoders, params, weights) -> float:
    if not frames:
        return 0.0
    return sum(fusion_loss(f, encoders, params, weights) for f in frames) / len(frames)


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
    train_frames, val_frames = usable[:n_train], usable[n_train:]
    _bake_standardization(encoders, train_frames)
    weights = tuple(cfg.output_weights(3))

    rng = np.random.default_rng(cfg.seed)
    history = []
    checkpoint = (copy.deepcopy(encoders), copy.deepcopy(params))
    for _ in range(cfg.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            total = _zero_grads(encoders, params)
            for r in rows:
                _, part = fusion_loss_and_grads(train_frames[r], encoders, params, weights)
                _accumulate(total, part)
            _apply(encoders, params, total, cfg.learning_rate / len(rows))
        train_loss = _mean_loss(train_frames, encoders, params, weights)
        val_loss = _mean_loss(val_frames, encoders, params, weights)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            encoders, params = checkpoint
            break
        history.append((train_loss, val_loss))
        checkpoint = (copy.deepcopy(encoders), copy.deepcopy(params))
    return encoders, params, history
