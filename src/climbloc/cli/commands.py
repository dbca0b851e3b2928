"""Pipeline commands: simulate, train, run, report.

The lifecycle is file-based and staged: `simulate` writes a scenario
directory, `train` fits the two sensor models and then the fusion bundle
(in that order), `run` produces one trajectory file per algorithm, and
`report` turns trajectories plus truth into metric tables. Every stage is
deterministic for a given config document, so re-running a manifest
reproduces its outputs byte for byte.

Exit codes: 0 ok, 2 config error, 3 missing input (or a path that cannot be
opened as a file), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .. import __version__
from ..errors import ConfigError, MissingInputError, NumericalFailureError
from ..fusion import (
    AXES,
    MODALITIES,
    amfa_pipeline,
    ekf_pass,
    epoch_times,
    fusion_from_dict,
    fusion_to_dict,
    init_attention_params,
    init_encoders,
    train_fusion,
)
from ..fusion.serialize import BUNDLE_VERSION
from ..metrics import (
    REFERENCE_LABEL,
    REFERENCE_MAX_M,
    REFERENCE_RMSE_M,
    REFERENCE_STD_M,
    boxplot_summary,
    compute_cdf,
    compute_metrics,
    match_series,
    write_boxplot_csv,
    write_cdf_csv,
    write_metrics_csv,
)
from ..models import (
    BaroFcnnModel,
    UwbFcnnModel,
    baro_fcnn_infer,
    model_from_dict,
    model_to_dict,
    train_baro_model,
    train_uwb_model,
    uwb_fcnn_infer,
)
from ..sim import simulate_scenario
from ..solvers import baro_altitude, uwb_geometric_fixes
from . import config as cfgmod
from . import records

ALGORITHMS = ("baro", "baro-fcnn", "uwb-geo", "uwb-fcnn", "gpsins-ekf", "amfa")
MODEL_FILES = {"uwb": "uwb.json", "baro": "baro.json", "fusion": "fusion.json"}
_MODEL_KINDS = {"uwb": UwbFcnnModel.kind, "baro": BaroFcnnModel.kind, "fusion": "fusion"}


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def _write_history_csv(path, history) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for i, (train_loss, val_loss) in enumerate(history):
            fh.write(f"{i},{float(train_loss)!r},{float(val_loss)!r}\n")


def _history_path(model_path: str) -> str:
    stem, _ = os.path.splitext(model_path)
    return stem + ".history.csv"


def cmd_simulate(config_path, out_dir) -> dict:
    """Generate a scenario directory plus its manifest."""
    doc = cfgmod.load_config(config_path)
    scenario_cfg = cfgmod.scenario_config(doc)
    data = simulate_scenario(scenario_cfg)
    files = records.write_scenario(out_dir, data)
    manifest = {
        "tool_version": __version__,
        "config_digest": cfgmod.config_digest(doc),
        "seeds": {
            "sim": scenario_cfg.seed,
            "nnet": doc["nnet"]["seed"],
            "fusion": doc["fusion"]["seed"],
        },
        "files": files,
    }
    records.write_manifest(out_dir, manifest)
    for name in records.SCENARIO_FILES:
        print(f"wrote {os.path.join(out_dir, files[name])} ({len(getattr(data, name))} records)")
    return manifest


# the typed keys of the model files, checked by the rule of cli/config.py; of
# a bundle's attention object only the scalars, since a per-float check of its
# weight lists would add milliseconds to every amfa run
_MODEL_KEYS = {"k": 1, "window": 1, "lambda": 1.0,
               "ukf": cfgmod.DEFAULT_CONFIG["ukf"],
               "attention": {"d_k": 1, "beta": dict.fromkeys(AXES, 1.0),
                             "b_prior": {m: dict.fromkeys(AXES, 1.0) for m in MODALITIES}}}


def _load_model(models_dir, which):
    """The model `train --model <which>` writes into `models_dir`: a sensor
    model, or the fusion bundle's (encoders, params, ukf state, L, lambda).

    An absent file is a MissingInputError naming that stage. A document that
    does not parse or is not an object, is of another kind than the stage
    writes, is a fusion bundle of another version than this one writes, lacks
    a key, or holds a value of the wrong type or a size below 1 is a
    ConfigError naming the file."""
    path = os.path.join(models_dir, MODEL_FILES[which])
    if not os.path.exists(path):
        raise MissingInputError(f"missing {which} model: {path} (run train --model {which} first)")
    doc = cfgmod.read_document(path)
    try:
        if doc.get("kind") != _MODEL_KINDS[which]:
            raise ConfigError(f"not a {which} model: kind {doc.get('kind')!r}")
        if which == "fusion" and doc.get("version") != BUNDLE_VERSION:
            raise ConfigError(f"fusion bundle version {doc.get('version')!r}, not {BUNDLE_VERSION}; retrain it")
        for key, default in _MODEL_KEYS.items():
            if key in doc:
                value = doc[key]
                if key == "attention" and isinstance(value, dict):
                    value = {k: v for k, v in value.items() if k in default}
                cfgmod._check(default, value, key, complete=False)
        sizes = {"k": doc.get("k"), "window": doc.get("window"),
                 "attention.d_k": doc.get("attention", {}).get("d_k")}
        for dotted, size in sizes.items():
            if size is not None:
                cfgmod._size(dotted, size)
        return (fusion_from_dict if which == "fusion" else model_from_dict)(doc)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
    except KeyError as err:
        raise ConfigError(f"{path}: missing key {err.args[0]!r}") from None
    except TypeError as err:
        raise ConfigError(f"{path}: a value has the wrong type ({err})") from None


def _refuse_directories(*paths) -> None:
    """Refuse, before any work, an output file path that is a directory."""
    for path in paths:
        if os.path.isdir(path):
            raise MissingInputError(f"{path}: is a directory, not a file to write")


def cmd_train(model, data_dir, out_path, config_path=None):
    """Fit one stage and write its JSON file plus a loss-history CSV.

    The fusion stage reads the sensor models beside `out_path`."""
    _refuse_directories(out_path, _history_path(out_path))
    doc = cfgmod.load_config(config_path)
    scenario = records.read_scenario(data_dir)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)

    sensor_trainers = {"uwb": train_uwb_model, "baro": train_baro_model}
    if model in sensor_trainers:
        trained, history = sensor_trainers[model](
            scenario, cfgmod.sensor_train_config(doc, model), **cfgmod.fcnn_options(doc)
        )
        _write_json(out_path, model_to_dict(trained))
    elif model == "fusion":
        # staged order: both sensor models must already exist
        fu = cfgmod.fusion_options(doc)
        train_cfg = cfgmod.fusion_train_config(doc)
        models_dir = os.path.dirname(out_path) or "."
        uwb_model = _load_model(models_dir, "uwb")
        baro_model = _load_model(models_dir, "baro")
        encoders = init_encoders(
            L=fu["window"], d_e=fu["embed_dim"], hidden=fu["hidden"], seed=train_cfg.seed
        )
        params = init_attention_params(
            d_e=fu["embed_dim"], d_k=fu["key_dim"], seed=train_cfg.seed
        )
        encoders, params, history = train_fusion(
            scenario,
            uwb_model,
            baro_model,
            encoders=encoders,
            params=params,
            cfg=train_cfg,
            L=fu["window"],
        )
        if train_cfg.epochs and not history:  # train_fusion returned its initial checkpoint
            raise NumericalFailureError("training diverged at epoch 0: non-finite loss")
        bundle = fusion_to_dict(
            encoders, params, cfgmod.ukf_state(doc), L=fu["window"], lam=fu["lambda"]
        )
        _write_json(out_path, bundle)
    else:
        raise ConfigError(f"unknown model stage {model!r} (expected uwb, baro, or fusion)")

    _write_history_csv(_history_path(out_path), history)
    final = history[-1] if history else (float("nan"), float("nan"))
    print(f"wrote {out_path} ({len(history)} epochs, final val loss {final[1]:.4g})")
    return out_path


def _altitude_only(t, altitudes, sigmas_z):
    # altitude-only algorithms report x = y = 0 placeholders, with sigma 0
    zeros = np.zeros((len(t), 2))
    return t, np.column_stack([zeros, altitudes]), np.column_stack([zeros, sigmas_z])


def run_algorithm(scenario, algo, models_dir=None):
    """Trajectory for one algorithm: (t, positions, sigmas), one row per epoch.

    An algorithm that yields no row raises MissingInputError naming what ran
    short: an empty stream, or a run too short to fill an FCNN's window (k)
    or the fusion estimate window (L).
    """
    if algo == "baro":
        ref = scenario.baro_reference
        altitudes = [baro_altitude(p, ref) for p in scenario.baro.pressure.tolist()]
        track = _altitude_only(scenario.baro.t, altitudes, np.zeros(len(altitudes)))
        short = "baro: the baro stream has no samples"
    elif algo == "baro-fcnn":
        model = _load_model(models_dir, "baro")
        altitudes, sigmas = baro_fcnn_infer(model, scenario.baro)
        track = _altitude_only(scenario.baro.t[model.k - 1 :], altitudes, sigmas)
        short = f"baro-fcnn: {len(scenario.baro)} baro samples never fill the FCNN window (k = {model.k})"
    elif algo == "uwb-geo":
        track = (scenario.uwb.t, *uwb_geometric_fixes(scenario.uwb, scenario.anchor))
        short = "uwb-geo: the UWB stream has no measurements"
    elif algo == "uwb-fcnn":
        model = _load_model(models_dir, "uwb")
        track = (scenario.uwb.t[model.k - 1 :], *uwb_fcnn_infer(model, scenario.uwb, scenario.anchor))
        short = f"uwb-fcnn: {len(scenario.uwb)} UWB measurements never fill the FCNN window (k = {model.k})"
    elif algo == "gpsins-ekf":
        epochs = epoch_times(scenario)  # at least one, or MissingInputError
        return (np.asarray(epochs, dtype=float), *ekf_pass(scenario, epochs)[:2])
    elif algo == "amfa":
        encoders, params, ukf, L, lam = _load_model(models_dir, "fusion")
        uwb_model = _load_model(models_dir, "uwb")
        baro_model = _load_model(models_dir, "baro")
        track = amfa_pipeline(scenario, uwb_model, baro_model, encoders, params, ukf, L=L, lam=lam)
        short = f"amfa: no fusion epoch fills the estimate window (L = {L} epochs)"
    else:
        raise ConfigError(f"unknown algorithm {algo!r} (expected one of {', '.join(ALGORITHMS)})")
    if not len(track[0]):
        raise MissingInputError(short)
    return track


def cmd_run(data_dir, models_dir, algo, out_path, config_path=None):
    _refuse_directories(out_path)
    cfgmod.load_config(config_path)  # a bad document exits 2 before any work
    scenario = records.read_scenario(data_dir)
    track = run_algorithm(scenario, algo, models_dir=models_dir)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    n = records.write_trajectory(out_path, *track, algo)
    print(f"wrote {out_path} ({n} epochs)")
    return out_path


def cmd_report(est_paths, truth_path, out_dir, config_path=None):
    """Metric/CDF/boxplot CSVs plus a comparison table on stdout, all from
    the report.json rows of `compute_metrics`."""
    doc = cfgmod.load_config(config_path)
    ev = cfgmod.eval_options(doc)
    truth = records.read_stream(truth_path, "truth")
    os.makedirs(out_dir, exist_ok=True)

    rows, cdf_columns, summaries = [], [], []
    for path in est_paths:
        est, algo = records.read_trajectory(path)
        i, j, excluded = match_series(est[:, 0], truth.t, ev["match_tolerance"])
        if not len(i):
            raise NumericalFailureError(f"{path}: no epochs matched the truth timeline")
        errors = est[i, 1:4] - truth.position[j]
        rows.append(compute_metrics(errors, est[i, 4:7], algo, excluded, ev["k1"], ev["k2"]))
        magnitudes = np.linalg.norm(errors, axis=1)
        cdf_columns.append(compute_cdf(magnitudes, ev["cdf_thresholds"]))
        summaries.append(boxplot_summary(magnitudes))

    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), rows)
    write_cdf_csv(os.path.join(out_dir, "cdf.csv"), ev["cdf_thresholds"], rows, cdf_columns)
    write_boxplot_csv(os.path.join(out_dir, "boxplot.csv"), rows, summaries)
    report = {
        "rows": rows,
        "cdf_thresholds": ev["cdf_thresholds"],
        "trade_off": {"k1": ev["k1"], "k2": ev["k2"]},
        "reference": {
            "label": REFERENCE_LABEL,
            "rmse": REFERENCE_RMSE_M,
            "std": REFERENCE_STD_M,
            "max": REFERENCE_MAX_M,
        },
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    header = f"{'algorithm':<28}{'rmse':>9}{'std':>9}{'max':>9}{'matched':>9}{'excluded':>9}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['algorithm']:<28}{row['rmse']:>9.3f}{row['std']:>9.3f}{row['max']:>9.3f}"
            f"{row['matched_epochs']:>9d}{row['excluded_epochs']:>9d}"
        )
    print(
        f"{REFERENCE_LABEL:<28}{REFERENCE_RMSE_M:>9.3f}{REFERENCE_STD_M:>9.3f}{REFERENCE_MAX_M:>9.3f}"
        f"{'-':>9}{'-':>9}"
    )
    print("reference row: field accuracy of the fused stack on the original")
    print("climbing-robot hardware; shown for context, not a simulation target.")
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="climbloc",
        description="Simulate, train, run, and evaluate the climbing-robot localization stack.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario directory")
    p.add_argument("--config", help="JSON config document (defaults when omitted)")
    p.add_argument("--out", required=True, help="output scenario directory")

    p = sub.add_parser("train", help="fit one model stage")
    p.add_argument("--model", required=True, choices=("uwb", "baro", "fusion"))
    p.add_argument("--data", required=True, help="scenario directory")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--config")

    p = sub.add_parser("run", help="produce one algorithm's trajectory")
    p.add_argument("--data", required=True, help="scenario directory")
    p.add_argument("--models", help="directory holding trained model files")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--out", required=True, help="output trajectory JSONL path")
    p.add_argument("--config")

    p = sub.add_parser("report", help="evaluate trajectories against truth")
    p.add_argument("--est", required=True, nargs="+", help="trajectory JSONL files")
    p.add_argument("--truth", required=True, help="truth JSONL file")
    p.add_argument("--out", required=True, help="output report directory")
    p.add_argument("--config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cmd_simulate(args.config, args.out)
        elif args.command == "train":
            cmd_train(args.model, args.data, args.out, config_path=args.config)
        elif args.command == "run":
            cmd_run(args.data, args.models or ".", args.algo, args.out, config_path=args.config)
        elif args.command == "report":
            cmd_report(args.est, args.truth, args.out, config_path=args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (MissingInputError, OSError) as err:
        print(f"missing input: {err}", file=sys.stderr)
        return 3
    except NumericalFailureError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"invalid data: {err}", file=sys.stderr)
        return 2
    return 0
