"""The single JSON configuration document and its section builders.

One file configures the whole pipeline, split into sections:
    sim     scenario generation (trajectory, sensor noise, outage windows)
    nnet    training settings both sensor models share (batch, seed, weights, split)
    fcnn    sensor-model architecture plus each model's rate and epochs
    fusion  attention fusion dimensions and its training run
    ukf     the UKF process noise q
    eval    report thresholds and the accuracy/uncertainty trade-off weights

The sim defaults live only in the `climbloc.sim` dataclasses: `sim` is the
JSON form of `ScenarioConfig()` (objects for dataclasses, lists for tuples),
less the fixed standard atmosphere and anchor boresight; the anchor is set by
its east/north/up `anchor_position`. Likewise `nnet` is the JSON form of the
`TrainConfig()` fields both sensor models share, and `ukf` holds the UKF's
one setting, `UkfState().q`. The architecture defaults of `fcnn` and `fusion`
are the library's `DEFAULT_*` constants. A training budget lives in the
document alone.

`DEFAULT_CONFIG` is also the schema: `_check` refuses, naming its dotted path,
a value without the JSON type of its default. An object takes known keys; a
list, items that pass for its first item (they are not merged with it); an
int, a JSON integer but not a boolean; a float, any finite number; a bool,
`true` or `false`; a null (`eval.match_tolerance`), null or a finite number.
Value rules stay where the value is read. `config_digest` hashes the merged
document, for the manifest.

Every JSON document the CLI reads (the config, `anchor.json`, the model
files, the manifest) is parsed by `read_document` and typed by `_check`: a
config overlays the defaults, so its keys are optional, while `anchor.json`
must hold every key of `records.ANCHOR_SCHEMA`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
from dataclasses import fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

from ..core import Vec3Enu
from ..errors import ConfigError, MissingInputError
from ..fusion import UkfState
from ..fusion.attention import DEFAULT_EMBED_DIM, DEFAULT_ENCODER_HIDDEN, DEFAULT_KEY_DIM, DEFAULT_L, DEFAULT_LAMBDA
from ..models import DEFAULT_HIDDEN, DEFAULT_K
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
    "nnet": {k: v for k, v in _document(TrainConfig()).items() if k not in ("learning_rate", "epochs")},
    "fcnn": {
        "k": DEFAULT_K,
        "hidden": list(DEFAULT_HIDDEN),
        "uwb": {"learning_rate": 0.01, "epochs": 600},
        "baro": {"learning_rate": 0.01, "epochs": 300},
    },
    "fusion": {
        "window": DEFAULT_L,
        "embed_dim": DEFAULT_EMBED_DIM,
        "key_dim": DEFAULT_KEY_DIM,
        "hidden": DEFAULT_ENCODER_HIDDEN,
        "lambda": DEFAULT_LAMBDA,
        "learning_rate": 0.01,
        "epochs": 120,
        "batch_size": 16,
        "seed": 0,
        "split": 0.95,
    },
    "ukf": {"q": UkfState.q},
    "eval": {
        "cdf_thresholds": [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0],
        "k1": 1.0,
        "k2": 1.0,
        "match_tolerance": None,
    },
}

_KINDS = {dict: "an object", list: "a list", bool: "true or false", int: "an integer"}


def _check(default, value, dotted: str, complete: bool) -> None:
    """Raise a ConfigError naming `dotted` unless `value` follows the type rule
    for `default`; with `complete`, every key of each default object is required."""
    kind = _KINDS.get(type(default))
    if kind:
        ok = type(value) is type(default)  # JSON values: a bool is not an int
    else:  # a float, or the null of eval.match_tolerance; NaN, inf and 10**400 fail the bound
        kind = "a finite number"
        ok = value is default or (type(value) in (int, float) and abs(value) <= sys.float_info.max)
    if not ok:
        raise ConfigError(f"{dotted}: must be {kind}, got {value!r}")
    if isinstance(value, dict):
        for key in [*value, *(key for key in default if complete and key not in value)]:
            path = f"{dotted}.{key}" if dotted else key
            if key not in default:
                raise ConfigError(f"{path}: unknown configuration key")
            if key not in value:
                raise ConfigError(f"{path}: missing key")
            _check(default[key], value[key], path, complete)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check(default[0], item, f"{dotted}[{i}]", complete)


def _merge(base: dict, override: dict) -> dict:
    """Deep merge a checked override into a copy of base; a non-object value replaces its default."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        out[key] = _merge(base[key], value) if isinstance(base[key], dict) else value
    return out


def read_document(path) -> dict:
    """The JSON object in the UTF-8 file at `path`. An absent file is a
    MissingInputError; a parse failure, a ConfigError naming the file and
    line; bytes that are not UTF-8, nesting too deep to parse or a top level
    that is not an object, one naming the file."""
    if not os.path.exists(path):
        raise MissingInputError(f"file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}:{err.lineno}: invalid JSON ({err.msg})") from None
        except (UnicodeDecodeError, RecursionError) as err:  # bytes not UTF-8, nesting too deep
            raise ConfigError(f"{path}: unreadable JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def load_config(path=None) -> dict:
    """Defaults, overlaid with the JSON document at `path` when given."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    user = read_document(path)
    _check(DEFAULT_CONFIG, user, "", complete=False)
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
    return _build(f"fcnn.{which}", lambda **changes: replace(shared, **changes), doc["fcnn"][which])


def _size(dotted: str, value: int) -> int:
    if value < 1:
        raise ConfigError(f"{dotted}: must be at least 1, got {value!r}")
    return value


def fcnn_options(doc: dict) -> dict:
    """The sensor-model architecture both FCNNs share: window length k, hidden widths."""
    fc = doc["fcnn"]
    hidden = tuple(_size(f"fcnn.hidden[{i}]", n) for i, n in enumerate(fc["hidden"]))
    return {"k": _size("fcnn.k", fc["k"]), "hidden": hidden}


def fusion_options(doc: dict) -> dict:
    """The fusion architecture: window length, embedding and key widths, encoder hidden width, lambda."""
    fu = doc["fusion"]
    sizes = {key: _size(f"fusion.{key}", fu[key]) for key in ("window", "embed_dim", "key_dim", "hidden")}
    return {**sizes, "lambda": fu["lambda"]}


def fusion_train_config(doc: dict) -> TrainConfig:
    fu = doc["fusion"]
    keys = ("learning_rate", "epochs", "batch_size", "seed", "split")
    return _build("fusion", TrainConfig, {k: fu[k] for k in keys})


def ukf_state(doc: dict) -> UkfState:
    return _build("ukf", UkfState, doc["ukf"])


def eval_options(doc: dict) -> dict:
    ev = dict(doc["eval"])
    # floats, so report.json writes 1.0 for a threshold or weight given as 1
    ev["cdf_thresholds"] = [float(v) for v in ev["cdf_thresholds"]]
    ev["k1"], ev["k2"] = float(ev["k1"]), float(ev["k2"])
    if any(b < a for a, b in zip(ev["cdf_thresholds"], ev["cdf_thresholds"][1:])):
        raise ConfigError("eval.cdf_thresholds: must be sorted ascending")
    if ev["k1"] < 0 or ev["k2"] < 0:
        raise ConfigError("eval.k1/k2: trade-off weights must be >= 0")
    return ev
