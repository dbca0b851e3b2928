"""One versioned JSON document for the whole fusion parameter bundle. Its `ukf`
object holds `q` alone (the filter starts from the mean and covariance of
`UkfState()`); a bundle of another version is refused, not migrated."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, model_document
from ..nnet import net_from_dict, net_to_dict
from .attention import AXES, DEFAULT_LAMBDA, MODALITIES, AttentionParams, encoder_window
from .ukf import UkfState

BUNDLE_VERSION = 2

BUNDLE_SCHEMA = {"window": 1, "lambda": 1.0, "ukf": {"q": 1.0}}  # the scalars, for errors.model_document
ATTENTION_SCHEMA = {"d_k": 1, "beta": dict.fromkeys(AXES, 1.0),  # those of the attention object
                    "b_prior": {m: dict.fromkeys(AXES, 1.0) for m in MODALITIES}}


def fusion_to_dict(encoders: dict, params: AttentionParams, ukf: UkfState | None = None,
                   lam: float = DEFAULT_LAMBDA) -> dict:
    """The bundle document; its `window` is the one the encoders take."""
    return {
        "version": BUNDLE_VERSION,
        "kind": "fusion",
        "window": encoder_window(encoders),
        "lambda": float(lam),
        "encoders": {m: net_to_dict(encoders[m]) for m in MODALITIES},
        "attention": {
            "d_k": params.d_k,
            "w_q": {s: params.w_q[s].tolist() for s in AXES},
            "w_k": params.w_k.tolist(),
            "beta": {s: float(params.beta[s]) for s in AXES},
            "w_r": {s: params.w_r[s].tolist() for s in AXES},
            "b_prior": {m: {s: float(params.b_prior[(m, s)]) for s in AXES} for m in MODALITIES},
        },
        "ukf": {"q": ukf.q if ukf else UkfState.q},
    }


def fusion_from_dict(doc: dict):
    """-> (encoders, params, ukf state, window length L, lambda); a refusal is a ConfigError naming the key."""
    if doc.get("kind") != "fusion":
        raise ConfigError(f"not a fusion model: kind {doc.get('kind')!r}")
    if doc.get("version") != BUNDLE_VERSION:
        raise ConfigError(f"fusion bundle version {doc.get('version')!r}, not {BUNDLE_VERSION}; retrain it")
    with model_document(doc, BUNDLE_SCHEMA, attention=ATTENTION_SCHEMA):
        att = doc["attention"]
        params = AttentionParams(
            w_q={s: np.asarray(att["w_q"][s], dtype=float) for s in AXES},
            w_k=np.asarray(att["w_k"], dtype=float),
            beta={s: float(att["beta"][s]) for s in AXES},
            w_r={s: np.asarray(att["w_r"][s], dtype=float) for s in AXES},
            b_prior={(m, s): float(att["b_prior"][m][s]) for m in MODALITIES for s in AXES},
            d_k=att["d_k"],
        )
        encoders = {m: net_from_dict(doc["encoders"][m]) for m in MODALITIES}
    if doc["window"] != encoder_window(encoders):
        raise ConfigError(f"window: must be {encoder_window(encoders)}, its encoders' window, got {doc['window']!r}")
    return encoders, params, UkfState(q=float(doc["ukf"]["q"])), doc["window"], float(doc["lambda"])
