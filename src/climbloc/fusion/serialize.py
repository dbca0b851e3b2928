"""One versioned JSON document for the whole fusion parameter bundle. Its `ukf`
object holds `q` alone (the filter starts from the mean and covariance of
`UkfState()`); a bundle of another version is refused, not migrated."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..nnet import net_from_dict, net_to_dict
from .attention import AXES, DEFAULT_L, DEFAULT_LAMBDA, MODALITIES, AttentionParams
from .ukf import UkfState

BUNDLE_VERSION = 2


def fusion_to_dict(
    encoders: dict, params: AttentionParams, ukf: UkfState | None = None,
    L: int = DEFAULT_L, lam: float = DEFAULT_LAMBDA,
) -> dict:
    ukf = ukf if ukf is not None else UkfState()
    return {
        "version": BUNDLE_VERSION,
        "kind": "fusion",
        "window": int(L),
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
        "ukf": {"q": ukf.q},
    }


def fusion_from_dict(doc: dict):
    """-> (encoders, params, ukf state, window length L, lambda)."""
    if doc.get("kind") != "fusion":
        raise ConfigError(f"not a fusion bundle: kind={doc.get('kind')!r}")
    if doc.get("version") != BUNDLE_VERSION:
        raise ConfigError(f"unsupported fusion bundle version {doc.get('version')!r}")
    att = doc["attention"]
    params = AttentionParams(
        w_q={s: np.asarray(att["w_q"][s], dtype=float) for s in AXES},
        w_k=np.asarray(att["w_k"], dtype=float),
        beta={s: float(att["beta"][s]) for s in AXES},
        w_r={s: np.asarray(att["w_r"][s], dtype=float) for s in AXES},
        b_prior={(m, s): float(att["b_prior"][m][s]) for m in MODALITIES for s in AXES},
        d_k=int(att["d_k"]),
    )
    ukf = UkfState(q=float(doc["ukf"]["q"]))
    encoders = {m: net_from_dict(doc["encoders"][m]) for m in MODALITIES}
    return encoders, params, ukf, int(doc["window"]), float(doc["lambda"])
