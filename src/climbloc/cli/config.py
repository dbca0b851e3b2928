"""The single JSON configuration document and its section builders.

One file configures the whole pipeline, split into sections:
    sim     scenario generation (trajectory, sensor noise, outage windows)
    nnet    shared training-engine defaults (SGD rate, epochs, split, seed)
    fcnn    sensor-model architecture plus per-model rate and epoch overrides
    fusion  attention fusion dimensions and its training run
    ukf     sigma-point filter tuning
    eval    report thresholds and the accuracy/uncertainty trade-off weights

The sim defaults live only in the `climbloc.sim` dataclasses: `sim` is the
JSON form of `ScenarioConfig()` (objects for dataclasses, lists for tuples),
less the fixed standard atmosphere and anchor boresight; the anchor is set by
its east/north/up `anchor_position`. Likewise `nnet` is the JSON form of
`TrainConfig()`. The document is the only way to set a seed or an epoch
count.

Unknown keys, sections of the wrong JSON type, and a count, width, seed or
switch that is not a JSON integer or boolean are rejected naming their
dotted path, so typos fail loudly instead of silently running on defaults.
`config_digest` hashes the merged document; the digest is stamped into the
run manifest.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

from ..core import Vec3Enu
from ..errors import ConfigError, MissingInputError
from ..fusion import UkfState
from ..nnet import TrainConfig
from ..sim import ScenarioConfig
from ..sim.scenario import DEFAULT_ANCHOR_POSITION


def _document(value):
    """A dataclass value as JSON: dataclasses become objects, tuples lists."""
    if is_dataclass(value):
        return {f.name: _document(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_document(v) for v in value]
    return value


def _sim_defaults() -> dict:
    # the field defaults of ScenarioConfig(); its default anchor is not built
    # here, since the boresight's SVD would add about 1 MB to every stage's RSS
    sim = {f.name: _document(f.default) for f in fields(ScenarioConfig) if f.name != "anchor"}
    del sim["baro"]["reference"]
    sim["anchor_position"] = list(_document(DEFAULT_ANCHOR_POSITION).values())
    return sim


DEFAULT_CONFIG = {
    "sim": _sim_defaults(),
    "nnet": _document(TrainConfig()),
    "fcnn": {
        "k": 10,
        "hidden": [64, 64],
        "uwb": {"include_geometric": True, "learning_rate": 0.01, "epochs": 600},
        "baro": {"learning_rate": 0.01, "epochs": 300},
    },
    "fusion": {
        "window": 10,
        "embed_dim": 32,
        "key_dim": 16,
        "hidden": 64,
        "lambda": 1.0,
        "learning_rate": 0.01,
        "epochs": 120,
        "batch_size": 16,
        "seed": 0,
        "split": 0.95,
    },
    "ukf": {"alpha": 1e-3, "beta": 2.0, "kappa": 0.0, "q": 0.05},
    "eval": {
        "cdf_thresholds": [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0],
        "k1": 1.0,
        "k2": 1.0,
        "match_tolerance": None,
    },
}

def _merge(base, override, path=""):
    """Deep merge override into a copy of base; unknown keys are fatal, and
    where the default is an object or a list the override must be one too."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"{dotted}: unknown configuration key")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{dotted}: must be an object, got {value!r}")
            out[key] = _merge(base[key], value, path=f"{dotted}.")
        elif isinstance(base[key], list) and not isinstance(value, list):
            raise ConfigError(f"{dotted}: must be a list, got {value!r}")
        else:
            out[key] = value
    return out


def load_config(path=None) -> dict:
    """Defaults, overlaid with the JSON document at `path` when given."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    if not os.path.exists(path):
        raise MissingInputError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}:{err.lineno}: invalid JSON ({err.msg})") from err
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def config_digest(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _build(section: str, factory, kwargs):
    try:
        return factory(**kwargs)
    except (ConfigError, TypeError, ValueError) as err:
        raise ConfigError(f"{section}: {err}") from err


def _dataclass(cls, doc, section: str):
    """Build `cls` from its config object: a field typed as a dataclass from
    its sub-object, a `tuple[Dataclass, ...]` field from its list."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section}: must be an object, got {doc!r}")
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in doc.items():
        hint = hints.get(key)
        if is_dataclass(hint):
            value = _dataclass(hint, value, f"{section}.{key}")
        elif get_origin(hint) is tuple and is_dataclass(get_args(hint)[0]):
            item = get_args(hint)[0]
            value = tuple(_dataclass(item, v, f"{section}.{key}[{i}]") for i, v in enumerate(value))
        kwargs[key] = value
    return _build(section, cls, kwargs)


def scenario_config(doc: dict) -> ScenarioConfig:
    sim = dict(doc["sim"])
    position = _build("sim.anchor_position", Vec3Enu.from_array, {"a": sim.pop("anchor_position")})
    cfg = _dataclass(ScenarioConfig, sim, "sim")
    # the anchor keeps the default boresight; only its mount position is configurable
    return replace(cfg, anchor=replace(cfg.anchor, position=position))


def sensor_train_config(doc: dict, which: str) -> TrainConfig:
    """nnet defaults overlaid with the training keys of fcnn.<which>; an
    invalid value is reported under the section that holds it."""
    shared = _build("nnet", TrainConfig, doc["nnet"])
    own = {key: value for key, value in doc["fcnn"][which].items() if key != "include_geometric"}
    return _build(f"fcnn.{which}", lambda **changes: replace(shared, **changes), own)


def _integer(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    return value


def fcnn_options(doc: dict, which: str) -> dict:
    fc = doc["fcnn"]
    out = {
        "k": _integer("fcnn.k", fc["k"]),
        "hidden": tuple(_integer(f"fcnn.hidden[{i}]", n) for i, n in enumerate(fc["hidden"])),
    }
    if which == "uwb":
        geometric = fc["uwb"]["include_geometric"]
        if not isinstance(geometric, bool):
            raise ConfigError(f"fcnn.uwb.include_geometric: must be true or false, got {geometric!r}")
        out["include_geometric"] = geometric
    return out


def fusion_options(doc: dict) -> dict:
    """The fusion architecture: window length, embedding and key widths, encoder hidden width, lambda."""
    fu = doc["fusion"]
    out = {key: _integer(f"fusion.{key}", fu[key]) for key in ("window", "embed_dim", "key_dim", "hidden")}
    out["lambda"] = _number("fusion.lambda", fu["lambda"])
    return out


def fusion_train_config(doc: dict) -> TrainConfig:
    fu = doc["fusion"]
    keys = ("learning_rate", "epochs", "batch_size", "seed", "split")
    return _build("fusion", TrainConfig, {k: fu[k] for k in keys})


def ukf_state(doc: dict) -> UkfState:
    return _build("ukf", UkfState, doc["ukf"])


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key}: must be a finite number, got {value!r}")
    return float(value)


def eval_options(doc: dict) -> dict:
    ev = doc["eval"]
    thresholds = [_number("eval.cdf_thresholds", v) for v in ev["cdf_thresholds"]]
    k1, k2 = _number("eval.k1", ev["k1"]), _number("eval.k2", ev["k2"])
    tolerance = ev["match_tolerance"]
    if tolerance is not None:
        tolerance = _number("eval.match_tolerance", tolerance)
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ConfigError("eval.cdf_thresholds: must be sorted ascending")
    if k1 < 0 or k2 < 0:
        raise ConfigError("eval.k1/k2: trade-off weights must be >= 0")
    return {
        "cdf_thresholds": thresholds,
        "k1": k1,
        "k2": k2,
        "match_tolerance": tolerance,
    }
