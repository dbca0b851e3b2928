"""Tests for the file-based pipeline: config, record IO, and the commands."""

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import climbloc
from climbloc.cli import (
    ALGORITHMS,
    MANIFEST_FILE,
    SCENARIO_FILES,
    config_digest,
    load_config,
    main,
    read_manifest,
    read_scenario,
    read_table,
    read_trajectory,
)
from climbloc.cli import commands, records
from climbloc.cli.config import DEFAULT_CONFIG, fusion_train_config, scenario_config, sensor_train_config
from climbloc.cli.commands import run_algorithm
from climbloc.cli.records import COLUMNS_DIR, write_scenario, write_trajectory
from climbloc.errors import ConfigError, MissingInputError
from climbloc.fusion import (
    UkfState,
    collect_fusion_frames,
    fusion_from_dict,
    fusion_to_dict,
    init_attention_params,
    init_encoders,
    train_fusion,
)
from climbloc.models import (
    DEFAULT_K,
    model_from_dict,
    model_to_dict,
    train_baro_model,
    train_uwb_model,
    uwb_fcnn_infer,
)
from climbloc.nnet import TrainConfig, net_init, net_to_dict
from climbloc.sim import ScenarioConfig, simulate_scenario
from climbloc.solvers import uwb_geometric_fixes


def missing_manifest_files(directory, manifest: dict) -> list:
    """Filenames referenced by the manifest that do not exist on disk."""
    return [
        name
        for name in manifest.get("files", {}).values()
        if not os.path.exists(os.path.join(directory, name))
    ]


def _without(record: dict, name: str) -> str:
    return json.dumps({k: v for k, v in record.items() if k != name})


def _rewrite_line(path, lineno: int, edit) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[lineno - 1] = edit(json.loads(lines[lineno - 1]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def file_sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(args) -> subprocess.CompletedProcess:
    """`python -m climbloc ARGS` in a fresh interpreter, output captured."""
    src = os.path.dirname(os.path.dirname(climbloc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "climbloc", *args], capture_output=True, text=True, env=env)


# the library reader of each model file, which refuses what `run` refuses
LIBRARY_READERS = {"uwb.json": lambda doc: model_from_dict(doc, "uwb"),
                   "baro.json": lambda doc: model_from_dict(doc, "baro"), "fusion.json": fusion_from_dict}


SHORT_CONFIG = {
    "sim": {
        "duration": 20.0,
        "seed": 3,
        "profile": {
            "vertical_period": 20.0,
            "horizontal_period": 10.0,
            "pauses": [{"start": 6.0, "end": 8.0, "ramp": 1.0}],
        },
        "gps": {
            "occlusions": [
                {
                    "start": 5.0,
                    "end": 9.0,
                    "bias": [2.5, -1.5, 2.0],
                    "hdop_inflation": 4.0,
                    "dropout": 0.3,
                }
            ]
        },
        "uwb": {"nlos_windows": [{"start": 12.0, "end": 15.0, "range_bias": 1.5}]},
    },
    "fcnn": {"uwb": {"epochs": 5}, "baro": {"epochs": 10}},
    "fusion": {"epochs": 3},
}


def run_pipeline(root, config: dict) -> dict:
    """The scenario of `config` taken through simulate, train x3, run x6 and
    report in `root`, each stage asserted to exit 0; returns the paths."""
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    data = str(root / "data")
    models = str(root / "models")
    assert main(["simulate", "--config", str(cfg_path), "--out", data]) == 0
    for stage in ("uwb", "baro", "fusion"):
        rc = main(
            [
                "train",
                "--model",
                stage,
                "--data",
                data,
                "--out",
                os.path.join(models, f"{stage}.json"),
                "--config",
                str(cfg_path),
            ]
        )
        assert rc == 0, f"training stage {stage} failed"
    trajectories = {}
    for algo in ALGORITHMS:
        out = str(root / f"traj_{algo}.jsonl")
        rc = main(
            ["run", "--data", data, "--models", models, "--algo", algo, "--out", out,
             "--config", str(cfg_path)]
        )
        assert rc == 0, f"run {algo} failed"
        trajectories[algo] = out
    report = str(root / "report")
    rc = main(
        ["report", "--est", *trajectories.values(), "--truth", os.path.join(data, "truth.jsonl"),
         "--out", report, "--config", str(cfg_path)]
    )
    assert rc == 0
    return {
        "root": root,
        "config": str(cfg_path),
        "data": data,
        "models": models,
        "trajectories": trajectories,
        "report": report,
    }


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One short scenario taken through simulate, train x3, run x6, report."""
    return run_pipeline(tmp_path_factory.mktemp("pipeline"), SHORT_CONFIG)


@pytest.fixture
def workspace(pipeline, tmp_path):
    """A copy of the pipeline's config (c.json), scenario (data/) and models (models/)."""
    shutil.copy(pipeline["config"], tmp_path / "c.json")
    shutil.copytree(pipeline["data"], tmp_path / "data")
    shutil.copytree(pipeline["models"], tmp_path / "models")
    return tmp_path


def _leaves(node, steps=()):
    """(steps, default) for every leaf of a default document; a list's steps
    go through its first item, index 0."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, (*steps, key))
    elif isinstance(node, list):
        yield from _leaves(node[0], (*steps, 0))
    else:
        yield steps, node


_REMOVED = object()  # a leaf value meaning: the key that holds the leaf is removed


def _nest(schema, steps, value):
    """A copy of `schema` holding `value` at `steps`, or, for _REMOVED,
    without the key that ends `steps`; every other leaf keeps its default."""
    doc = copy.deepcopy(schema)
    *parents, last = steps
    node = doc
    for step in parents:
        node = node[step]
    if value is _REMOVED:
        del node[last]
    else:
        node[last] = value
    return doc


def _dotted(steps) -> str:
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps).lstrip(".")


_NOT_A_SCALAR = st.one_of(st.text(max_size=3), st.lists(st.integers(), max_size=2), st.just({}))
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])


def _refused(default):
    """JSON values the config rule refuses where the default is `default`."""
    if isinstance(default, bool):
        return st.one_of(st.integers(), st.floats(), st.none(), _NOT_A_SCALAR)
    if isinstance(default, int):
        return st.one_of(st.booleans(), st.floats(), st.none(), _NOT_A_SCALAR)
    if default is None:
        return st.one_of(st.booleans(), _NOT_FINITE, _NOT_A_SCALAR)
    return st.one_of(st.booleans(), st.none(), _NOT_FINITE, _NOT_A_SCALAR)


@st.composite
def refused_leaf(draw, schema, required):
    """(steps, value): a leaf of `schema` and a JSON value the type rule
    refuses there; where every key is `required`, possibly _REMOVED at the
    key that holds the leaf (a list's key, for a list item)."""
    steps, default = draw(st.sampled_from(list(_leaves(schema))))
    if required and draw(st.booleans()):
        return tuple(itertools.takewhile(lambda step: isinstance(step, str), steps)), _REMOVED
    return steps, draw(_refused(default))


# (schema, file name, reader, every key required, error prefix) of each JSON
# document the type rule checks; the reader takes the document's path
_DOCUMENTS = [
    (DEFAULT_CONFIG, "c.json", load_config, False, lambda path: ""),
    (records.ANCHOR_SCHEMA, records.ANCHOR_FILE, lambda path: records._read_anchor(os.path.dirname(path)), True,
     lambda path: f"{path}: "),
]


class TestConfig:
    def test_defaults_load_and_validate(self):
        doc = load_config(None)
        cfg = scenario_config(doc)
        assert cfg.duration == 120.0
        assert cfg.seed == 7

    def test_unknown_key_names_its_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sim": {"gps": {"sigma_xyz": 1.0}}}))
        with pytest.raises(ConfigError, match="sim.gps.sigma_xyz"):
            load_config(str(path))

    def test_digest_tracks_content(self, tmp_path):
        base = load_config(None)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sim": {"seed": 8}}))
        tweaked = load_config(str(path))
        assert config_digest(base) == config_digest(load_config(None))
        assert config_digest(base) != config_digest(tweaked)

    def test_invalid_dt_exits_with_config_code(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sim": {"dt": -0.1}}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "d")]) == 2

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"sim": }')
        with pytest.raises(ConfigError, match=r"c\.json:1"):
            load_config(str(path))

    def test_missing_config_file_exits_missing_input(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d")])
        assert rc == 3

    @pytest.mark.parametrize(
        "override, dotted",
        [
            pytest.param({"nnet": 3}, "nnet", id="section-not-an-object"),
            pytest.param({"sim": {"profile": 3}}, "sim.profile", id="sim-part-not-an-object"),
            pytest.param({"sim": {"gps": {"occlusions": 5}}}, "sim.gps.occlusions", id="windows-not-a-list"),
            pytest.param({"sim": {"gps": {"occlusions": [5]}}}, "sim.gps.occlusions[0]", id="window-not-an-object"),
        ],
    )
    def test_section_of_the_wrong_json_type_exits_2_naming_it(self, tmp_path, override, dotted):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(override))
        proc = run_cli(["simulate", "--config", str(path), "--out", str(tmp_path / "d")])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"config error: {dotted}: must be"), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_sensor_overrides_reach_only_their_model(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"fcnn": {"uwb": {"learning_rate": 0.5, "epochs": 3}}}))
        doc = load_config(str(path))
        shared = TrainConfig(**doc["nnet"])
        baro = doc["fcnn"]["baro"]
        assert sensor_train_config(doc, "uwb") == dataclasses.replace(shared, learning_rate=0.5, epochs=3)
        assert sensor_train_config(doc, "baro") == dataclasses.replace(shared, **baro)

    def test_sensor_override_of_a_shared_key_exits_2_naming_it(self, pipeline, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"fcnn": {"uwb": {"batch_size": 8}}}))
        proc = run_cli(["train", "--model", "uwb", "--data", pipeline["data"],
                        "--out", str(tmp_path / "uwb.json"), "--config", str(path)])
        assert proc.returncode == 2, proc.stderr
        assert "fcnn.uwb.batch_size" in proc.stderr
        assert not os.path.exists(tmp_path / "uwb.json")

    @pytest.mark.parametrize(
        "model, override, message",
        [
            pytest.param("baro", {"nnet": {"batch_size": 2.5}}, "nnet.batch_size: must be an integer", id="nnet-batch"),
            pytest.param("baro", {"nnet": {"seed": 1.5}}, "nnet.seed: must be an integer", id="nnet-seed"),
            pytest.param("uwb", {"nnet": {"split": "0.5"}}, "nnet.split: must be a finite number", id="nnet-split"),
            pytest.param("baro", {"nnet": {"seed": True}}, "nnet.seed: must be an integer", id="nnet-seed-bool"),
            pytest.param("baro", {"fcnn": {"baro": {"epochs": 2.0}}}, "fcnn.baro.epochs: must be an integer",
                         id="fcnn-epochs"),
            pytest.param("fusion", {"fusion": {"batch_size": 1.5}}, "fusion.batch_size: must be an integer",
                         id="fusion-batch"),
        ],
    )
    def test_training_value_of_the_wrong_json_type_exits_2_naming_it(
        self, pipeline, tmp_path, capsys, model, override, message
    ):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(override))
        out = tmp_path / f"{model}.json"
        rc = main(["train", "--model", model, "--data", pipeline["data"], "--out", str(out), "--config", str(path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}, got ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, dotted",
        [
            pytest.param({"k1": "a"}, "eval.k1", id="k1"),
            pytest.param({"k2": None}, "eval.k2", id="k2"),
            pytest.param({"match_tolerance": "a"}, "eval.match_tolerance", id="match_tolerance"),
            pytest.param({"cdf_thresholds": [0.1, "a"]}, "eval.cdf_thresholds[1]", id="cdf_thresholds"),
            pytest.param({"k1": math.nan}, "eval.k1", id="k1-nan"),
            pytest.param({"cdf_thresholds": [0.1, math.inf]}, "eval.cdf_thresholds[1]", id="cdf_thresholds-inf"),
        ],
    )
    def test_eval_value_that_is_not_a_finite_number_exits_2_naming_it(self, pipeline, tmp_path, override, dotted):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"eval": override}))
        proc = run_cli(["report", "--est", pipeline["trajectories"]["amfa"],
                        "--truth", os.path.join(pipeline["data"], "truth.jsonl"),
                        "--out", str(tmp_path / "report"), "--config", str(path)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"config error: {dotted}: must be a finite number"), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "stage, override, dotted",
        [
            pytest.param("simulate", {"sim": {"seed": 1.5}}, "sim.seed", id="sim-seed"),
            pytest.param("simulate", {"sim": {"seed": True}}, "sim.seed", id="sim-seed-bool"),
            pytest.param("simulate", {"sim": {"gps": {"rate_hz": math.inf}}}, "sim.gps.rate_hz", id="gps-rate-inf"),
            pytest.param("simulate", {"sim": {"dt": "a"}}, "sim.dt", id="dt-string"),
            pytest.param("simulate", {"sim": {"uwb": {"range_sigma": math.nan}}}, "sim.uwb.range_sigma",
                         id="range-sigma-nan"),
            pytest.param("simulate", {"sim": {"gps": {"occlusions": [{"start": 50.0, "end": "b"}]}}},
                         "sim.gps.occlusions[0].end", id="occlusion-end"),
            pytest.param("baro", {"nnet": {"axis_weights": [math.nan, 1.0, 2.0]}}, "nnet.axis_weights[0]",
                         id="axis-weight-nan"),
            pytest.param("fusion", {"fusion": {"learning_rate": math.nan}}, "fusion.learning_rate",
                         id="fusion-rate-nan"),
            pytest.param("fusion", {"ukf": {"q": math.nan}}, "ukf.q", id="ukf-q-nan"),
        ],
    )
    def test_refused_value_exits_2_naming_it_and_writes_nothing(self, pipeline, tmp_path, stage, override, dotted):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(override))
        if stage == "simulate":
            args = ["simulate", "--out", str(tmp_path / "data")]
        else:
            args = ["train", "--model", stage, "--data", pipeline["data"], "--out", str(tmp_path / f"{stage}.json")]
        proc = run_cli([*args, "--config", str(path)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"config error: {dotted}: must be"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert [p.name for p in tmp_path.rglob("*")] == ["c.json"]

    @given(st.data())
    def test_value_of_the_wrong_json_type_raises_naming_its_path(self, data):
        # the config document and anchor.json, one property for both schemas
        schema, filename, read, required, prefix = data.draw(st.sampled_from(_DOCUMENTS))
        steps, value = data.draw(refused_leaf(schema, required))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, filename)
            with open(path, "w") as fh:
                json.dump(_nest(schema, steps, value), fh)
            with pytest.raises(ConfigError) as err:
                read(path)
        rule = "missing key" if value is _REMOVED else "must be"
        assert str(err.value).startswith(f"{prefix(path)}{_dotted(steps)}: {rule}"), str(err.value)

    def test_default_digest_is_pinned(self):
        # the manifest stamps this digest: a moved default changes it
        digest = "88c4e44e30f1967d31d3cd470b3c4abe457f8882f6a57c8c30336f792a4fb72e"
        assert config_digest(load_config(None)) == digest

    @pytest.mark.parametrize("dotted", [
        # each sensor model's rate and epochs live in fcnn.uwb / fcnn.baro alone
        pytest.param("nnet.epochs", id="epochs"),
        pytest.param("nnet.learning_rate", id="learning_rate"),
        # the UKF's sigma-point spread is a constant of fusion/ukf.py
        pytest.param("ukf.alpha", id="ukf-alpha"),
        pytest.param("ukf.beta", id="ukf-beta"),
        pytest.param("ukf.kappa", id="ukf-kappa"),
        # the architecture is the library's defaults; a model file records its own
        pytest.param("fcnn.k", id="fcnn-k"),
        pytest.param("fcnn.hidden", id="fcnn-hidden"),
        pytest.param("fusion.window", id="fusion-window"),
        pytest.param("fusion.embed_dim", id="fusion-embed-dim"),
        pytest.param("fusion.key_dim", id="fusion-key-dim"),
        pytest.param("fusion.hidden", id="fusion-hidden"),
        pytest.param("fusion.lambda", id="fusion-lambda"),
    ])
    def test_nnet_budget_key_exits_2_naming_it(self, tmp_path, capsys, dotted):
        section, key = dotted.split(".")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {key: 5}}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "data")]) == 2
        assert capsys.readouterr().err == f"config error: {dotted}: unknown configuration key\n"
        assert not (tmp_path / "data").exists()

    def test_include_geometric_is_an_unknown_key(self, tmp_path, capsys):
        # the UWB FCNN always reads the geometric fix; there is no raw-only input to select
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"fcnn": {"uwb": {"include_geometric": True}}}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "data")]) == 2
        assert capsys.readouterr().err == "config error: fcnn.uwb.include_geometric: unknown configuration key\n"
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("trainer, args", [
        (train_uwb_model, (None,)), (train_baro_model, (None,)), (train_fusion, (None, None, None)),
    ])
    def test_library_trainer_has_no_default_budget(self, trainer, args):
        with pytest.raises(TypeError, match="'cfg'"):
            trainer(*args)

    def test_default_ukf_section_is_the_ukf_state_scalars(self):
        assert DEFAULT_CONFIG["ukf"] == {"q": UkfState().q}

    def test_default_document_builds_the_default_scenario(self):
        built, default = scenario_config(load_config(None)), ScenarioConfig()
        for f in dataclasses.fields(ScenarioConfig):
            if f.name != "anchor":
                assert getattr(built, f.name) == getattr(default, f.name), f.name
        assert built.anchor.position == default.anchor.position
        assert np.array_equal(built.anchor.orientation.matrix, default.anchor.orientation.matrix)


@pytest.fixture(scope="module")
def tiny_scenario():
    doc = load_config(None)
    doc["sim"].update({"duration": 2.0, "seed": 1})
    doc["sim"]["profile"]["pauses"] = []
    doc["sim"]["gps"]["occlusions"] = []
    doc["sim"]["uwb"]["nlos_windows"] = []
    return simulate_scenario(scenario_config(doc))


@pytest.fixture(scope="module")
def default_scenario():
    return simulate_scenario(scenario_config(load_config(None)))


def _record_parses(monkeypatch) -> list:
    """The names of the files `read_table` parses from here on, in order."""
    parsed, read_table = [], records.read_table

    def recording(path, *args, **kwargs):
        parsed.append(os.path.basename(path))
        return read_table(path, *args, **kwargs)

    monkeypatch.setattr(records, "read_table", recording)
    return parsed


class TestBlasThreads:
    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize("setting, expected", [(None, "1"), ("2", "2")])
    def test_cli_pins_one_thread_unless_the_environment_sets_it(self, setting, expected):
        src = os.path.dirname(os.path.dirname(climbloc.__file__))
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if setting is not None:
            env.update(dict.fromkeys(self.BLAS_VARS, setting))
        code = "import os, climbloc.cli; print(*(os.environ[k] for k in %r))" % (self.BLAS_VARS,)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [expected] * 3


class TestRecords:
    def test_scenario_round_trip(self, tiny_scenario, tmp_path):
        from climbloc.cli import write_scenario

        write_scenario(str(tmp_path), tiny_scenario)
        back = read_scenario(str(tmp_path))
        assert len(back.truth) == len(tiny_scenario.truth)
        assert back.truth == tiny_scenario.truth
        assert back.imu == tiny_scenario.imu
        assert back.gps == tiny_scenario.gps
        assert back.uwb == tiny_scenario.uwb
        assert back.baro == tiny_scenario.baro
        assert back.origin == tiny_scenario.origin
        assert back.baro_reference == tiny_scenario.baro_reference

    def test_write_read_write_is_byte_stable(self, tiny_scenario, tmp_path):
        from climbloc.cli import write_scenario

        first = tmp_path / "a"
        second = tmp_path / "b"
        write_scenario(str(first), tiny_scenario)
        write_scenario(str(second), read_scenario(str(first)))
        for filename in [*SCENARIO_FILES.values(), "anchor.json"]:
            assert file_sha(first / filename) == file_sha(second / filename), filename

    @pytest.mark.parametrize("scenario", ["tiny_scenario", "default_scenario"])
    def test_column_file_read_equals_jsonl_read(self, scenario, request, tmp_path, monkeypatch):
        write_scenario(str(tmp_path), request.getfixturevalue(scenario))
        parsed = _record_parses(monkeypatch)
        cached = read_scenario(str(tmp_path))
        assert parsed == []
        shutil.rmtree(tmp_path / COLUMNS_DIR)
        parsed = read_scenario(str(tmp_path))
        for name in SCENARIO_FILES:
            assert getattr(cached, name) == getattr(parsed, name), name

    def test_edited_stream_ignores_its_stale_column_file(self, tiny_scenario, tmp_path):
        write_scenario(str(tmp_path), tiny_scenario)
        _rewrite_line(tmp_path / "baro.jsonl", 5, lambda r: json.dumps({**r, "p": r["p"] + 1.0}))
        pressure = read_scenario(str(tmp_path)).baro.pressure
        assert pressure[4] == tiny_scenario.baro.pressure[4] + 1.0
        assert np.array_equal(np.delete(pressure, 4), np.delete(tiny_scenario.baro.pressure, 4))

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda path, table: np.save(path, table[:, 1:]), id="wrong-width"),
            pytest.param(lambda path, table: np.save(path, table.astype(np.float32)), id="wrong-dtype"),
            pytest.param(lambda path, table: path.write_bytes(path.read_bytes()[:-20]), id="truncated"),
            pytest.param(lambda path, table: path.write_bytes(path.read_bytes()[:40]), id="truncated-header"),
        ],
    )
    def test_unusable_column_file_falls_back_to_the_jsonl(self, tiny_scenario, tmp_path, damage):
        write_scenario(str(tmp_path), tiny_scenario)
        [path] = (tmp_path / COLUMNS_DIR).glob("gps-*.npy")
        damage(path, np.load(path))
        assert read_scenario(str(tmp_path)).gps == tiny_scenario.gps

    def test_emptied_stream_reads_as_no_rows_beside_cached_streams(self, tiny_scenario, tmp_path, monkeypatch):
        write_scenario(str(tmp_path), tiny_scenario)
        (tmp_path / "uwb.jsonl").write_bytes(b"")
        parsed = _record_parses(monkeypatch)
        back = read_scenario(str(tmp_path))
        assert parsed == ["uwb.jsonl"]
        assert len(back.uwb) == 0
        for name in ("truth", "imu", "gps", "baro"):
            assert getattr(back, name) == getattr(tiny_scenario, name), name

    def test_report_is_byte_identical_without_column_files(self, pipeline, tmp_path, monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)

        def report_sha(out):
            rc = main(["report", "--est", *pipeline["trajectories"].values(), "--truth", str(data / "truth.jsonl"),
                       "--out", str(out), "--config", pipeline["config"]])
            assert rc == 0
            return file_sha(out / "report.json")

        parsed = _record_parses(monkeypatch)
        with_columns = report_sha(tmp_path / "with")
        assert "truth.jsonl" not in parsed
        shutil.rmtree(data / COLUMNS_DIR)
        assert report_sha(tmp_path / "without") == with_columns

    def test_jsonl_error_carries_line_number(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"t": 1.0}\nnot json\n')
        with pytest.raises(ValueError, match=r"x\.jsonl:2"):
            read_table(str(path), ("t",))

    def test_missing_stream_raises_missing_input(self, tmp_path):
        with pytest.raises(MissingInputError):
            read_table(str(tmp_path / "absent.jsonl"), ("t",))

    @pytest.mark.parametrize(
        "filename, edit, field",
        [
            pytest.param("imu.jsonl", lambda r: _without(r, "fx"), "fx", id="stream-missing-field"),
            pytest.param("imu.jsonl", lambda r: json.dumps(list(r.values())), None, id="stream-json-array"),
            pytest.param("truth.jsonl", lambda r: _without(r, "x"), "x", id="truth-missing-field"),
            pytest.param("traj_baro.jsonl", lambda r: _without(r, "sx"), "sx", id="trajectory-missing-field"),
            pytest.param("imu.jsonl", lambda r: json.dumps({**r, "fx": math.nan}), "fx", id="stream-nan"),
            pytest.param("uwb.jsonl", lambda r: json.dumps({**r, "nlos": 1.5}), "nlos", id="stream-nlos-above-1"),
            pytest.param("baro.jsonl", lambda r: json.dumps({**r, "p": 0.0}), "p", id="stream-pressure-not-positive"),
            pytest.param("imu.jsonl", lambda r: json.dumps({**r, "wy": True}), "wy", id="stream-json-true"),
            pytest.param("traj_baro.jsonl", lambda r: json.dumps({**r, "algo": ["baro"]}), "algo",
                         id="trajectory-algo-not-a-string"),
            pytest.param("truth.jsonl", lambda r: json.dumps({**r, "x": math.nan}), "x", id="truth-nan"),
            pytest.param("traj_baro.jsonl", lambda r: json.dumps({**r, "z": math.inf}), "z",
                         id="trajectory-infinity"),
            pytest.param("traj_baro.jsonl", lambda r: json.dumps({**r, "sx": -1}), "sx",
                         id="trajectory-negative-sigma"),
            pytest.param("gps.jsonl", lambda r: json.dumps({**r, "valid": "false"}), "valid",
                         id="stream-valid-flag-a-string"),
        ],
    )
    def test_malformed_record_exits_2_naming_its_line(self, pipeline, tmp_path, filename, edit, field):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        traj = tmp_path / "traj_baro.jsonl"
        shutil.copy(pipeline["trajectories"]["baro"], traj)
        target = traj if filename == "traj_baro.jsonl" else data / filename
        _rewrite_line(target, 5, edit)
        if filename in ("truth.jsonl", "traj_baro.jsonl"):
            args = ["report", "--est", str(traj), "--truth", str(data / "truth.jsonl"),
                    "--out", str(tmp_path / "report")]
        else:
            args = ["run", "--data", str(data), "--models", pipeline["models"], "--algo", "baro",
                    "--out", str(tmp_path / "out.jsonl")]
        proc = run_cli(args)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{target}:5" in proc.stderr
        if field is not None:
            assert repr(field) in proc.stderr, proc.stderr

    @pytest.mark.parametrize(
        "dotted, edit",
        [
            pytest.param("anchor.position", lambda d: d["anchor"].pop("position"), id="missing-position"),
            pytest.param("anchor.orientation", lambda d: d["anchor"].update(orientation=[[1.0, 0.0]] * 2),
                         id="orientation-not-3x3"),
            pytest.param("anchor.orientation", lambda d: d["anchor"].update(orientation=[[1.0, 0.0, 0.0]] * 3),
                         id="orientation-not-a-rotation"),
            pytest.param("origin.lat", lambda d: d["origin"].update(lat="north"), id="latitude-not-a-number"),
            pytest.param("origin.lat", lambda d: d["origin"].update(lat=2.0), id="latitude-out-of-range"),
            pytest.param("origin", lambda d: d.update(origin=[0.48, 0.3, 50.0]), id="origin-not-an-object"),
            pytest.param("baro_reference.t0", lambda d: d["baro_reference"].pop("t0"), id="missing-t0"),
            pytest.param("extra", lambda d: d.update(extra=1), id="unknown-key"),
            pytest.param("origin.foo", lambda d: d["origin"].update(foo=1.0), id="unknown-nested-key"),
        ],
    )
    def test_bad_anchor_field_exits_2_naming_it(self, pipeline, tmp_path, dotted, edit):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        doc = json.loads((data / "anchor.json").read_text())
        edit(doc)
        (data / "anchor.json").write_text(json.dumps(doc))
        proc = run_cli(["run", "--data", str(data), "--models", pipeline["models"], "--algo", "baro",
                        "--out", str(tmp_path / "out.jsonl")])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"config error: {data / 'anchor.json'}: {dotted}: "), proc.stderr

    def test_trajectory_rejects_mixed_algos(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rows = [
            {"t": 0.1, "x": 0, "y": 0, "z": 0, "sx": 0, "sy": 0, "sz": 0, "algo": "a"},
            {"t": 0.2, "x": 0, "y": 0, "z": 0, "sx": 0, "sy": 0, "sz": 0, "algo": "b"},
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(ValueError, match="mixed algo"):
            read_trajectory(str(path))

    FINITE = st.floats(allow_nan=False, allow_infinity=False)
    SIGMA = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)

    @given(
        rows=st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE, SIGMA, SIGMA, SIGMA), min_size=1, max_size=6),
        algo=st.sampled_from(ALGORITHMS),
    )
    @example(rows=[(-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -0.0, 5e-324, 1.7976931348623157e308)],
             algo="amfa")
    def test_trajectory_bytes_are_json_dumps_of_each_record(self, rows, algo):
        table = np.array(rows, dtype=float)
        want = "".join(json.dumps(dict(zip(records.TRAJECTORY_KEYS, row), algo=algo)) + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.jsonl")
            assert write_trajectory(path, table[:, 0], table[:, 1:4], table[:, 4:7], algo) == len(rows)
            with open(path, "rb") as fh:
                assert fh.read() == want.encode()

    @pytest.mark.parametrize("column, value", [(0, math.nan), (2, math.inf), (3, -math.inf), (5, -1e-300)])
    def test_trajectory_with_a_bad_value_raises_and_writes_nothing(self, tmp_path, column, value):
        table = np.ones((3, 7))
        table[1, column] = value
        path = tmp_path / "traj.jsonl"
        with pytest.raises(ValueError, match="finite"):
            write_trajectory(str(path), table[:, 0], table[:, 1:4], table[:, 4:7], "amfa")
        assert not path.exists()


class TestSimulate:
    def test_writes_streams_anchor_and_manifest(self, pipeline):
        data = pipeline["data"]
        for filename in SCENARIO_FILES.values():
            assert os.path.exists(os.path.join(data, filename))
        assert os.path.exists(os.path.join(data, "anchor.json"))
        manifest = read_manifest(data)
        assert manifest["config_digest"] == config_digest(load_config(pipeline["config"]))
        assert missing_manifest_files(data, manifest) == []

    # SHA-256 of each file `simulate` writes for SHORT_CONFIG at seed 7
    # (x86-64, numpy 2.4): a change to any simulated or written value shows
    # here. truth.jsonl and imu.jsonl are as written by the yaw-array
    # simulator (numpy sin/cos of the yaw); the other four files are as the
    # per-sample simulator before it wrote them.
    GOLDEN = {
        "truth.jsonl": "0fe560242ed4fe01353c8bb91489a40df186f07c1d3282d25e56e2468add697f",
        "imu.jsonl": "31d8b8e49d0ca26b8d98f9c51766e2cce1b2e554aabdafeaea76f9fbec4baa17",
        "gps.jsonl": "fa813ac0c643c47c1f240ff6a5505d6bb8b737273346aec01e257b1a9767bc5d",
        "uwb.jsonl": "e3097cff667af929a543d33fe899c7018deaf5202f74ba4872ca1a086f6e5117",
        "baro.jsonl": "00fcf99d5f414a305f7433738e521f7d8bd0754e066d64da97ad0a9fbafdb302",
        "anchor.json": "63e8adb82382f73160ff48dd5222c8a604bb872eed0a629fbdecdb9300e208d7",
    }

    def test_outputs_match_golden_digests(self, tmp_path):
        doc = json.loads(json.dumps(SHORT_CONFIG))
        doc["sim"]["seed"] = 7
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "data")]) == 0
        digests = {name: file_sha(tmp_path / "data" / name) for name in self.GOLDEN}
        assert digests == self.GOLDEN

    def test_anchor_behind_the_climb_exits_2_naming_the_key_and_time(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"sim": {"anchor_position": [0, -15, 5]}}))
        result = run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "data")])
        assert result.returncode == 2
        assert "config error: sim.anchor_position:" in result.stderr
        assert "behind the array plane" in result.stderr and "at t=0.100 s" in result.stderr
        assert not (tmp_path / "data").exists()

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        again = str(tmp_path / "again")
        assert main(["simulate", "--config", pipeline["config"], "--out", again]) == 0
        columns = sorted(os.listdir(os.path.join(again, COLUMNS_DIR)))
        assert columns == sorted(os.listdir(os.path.join(pipeline["data"], COLUMNS_DIR)))
        assert len(columns) == len(SCENARIO_FILES)
        for filename in [*SCENARIO_FILES.values(), "anchor.json", MANIFEST_FILE,
                         *(os.path.join(COLUMNS_DIR, name) for name in columns)]:
            assert file_sha(os.path.join(pipeline["data"], filename)) == file_sha(
                os.path.join(again, filename)
            ), filename


class TestTrain:
    def test_fusion_before_sensors_is_a_staged_order_error(self, pipeline, tmp_path):
        rc = main(
            [
                "train",
                "--model",
                "fusion",
                "--data",
                pipeline["data"],
                "--out",
                str(tmp_path / "fusion.json"),
                "--config",
                pipeline["config"],
            ]
        )
        assert rc == 3

    @pytest.mark.parametrize("model, override", [
        pytest.param("fusion", {"fusion": {"epochs": 3, "learning_rate": 1e300}}, id="fusion"),
        pytest.param("uwb", {"fcnn": {"uwb": {"epochs": 5, "learning_rate": 1e300}}}, id="uwb"),
        pytest.param("baro", {"fcnn": {"baro": {"epochs": 5, "learning_rate": 1e300}}}, id="baro"),
    ])
    def test_fit_without_a_finite_epoch_exits_4_with_one_line_and_writes_nothing(
        self, pipeline, tmp_path, model, override
    ):
        # the overflow numpy meets on the way is reported by the loss check alone
        for name in ("uwb.json", "baro.json"):
            shutil.copy(os.path.join(pipeline["models"], name), tmp_path)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**SHORT_CONFIG, **override}))
        out = tmp_path / f"{model}-new.json"
        proc = run_cli(["train", "--model", model, "--data", pipeline["data"], "--out", str(out),
                        "--config", str(path)])
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == "numerical failure: training diverged at epoch 0: non-finite loss\n"
        assert sorted(os.listdir(tmp_path)) == ["baro.json", "c.json", "uwb.json"]

    def test_reloaded_model_matches_in_memory_inference(self, pipeline):
        doc = load_config(pipeline["config"])
        scenario = read_scenario(pipeline["data"])
        in_memory, _ = train_uwb_model(scenario, sensor_train_config(doc, "uwb"))
        with open(os.path.join(pipeline["models"], "uwb.json")) as fh:
            reloaded = model_from_dict(json.load(fh))
        a = uwb_fcnn_infer(in_memory, scenario.uwb, scenario.anchor)
        b = uwb_fcnn_infer(reloaded, scenario.uwb, scenario.anchor)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_retraining_is_deterministic(self, pipeline, tmp_path):
        out = str(tmp_path / "baro.json")
        rc = main(
            ["train", "--model", "baro", "--data", pipeline["data"], "--out", out,
             "--config", pipeline["config"]]
        )
        assert rc == 0
        assert file_sha(out) == file_sha(os.path.join(pipeline["models"], "baro.json"))

    def test_history_csv_written(self, pipeline):
        path = os.path.join(pipeline["models"], "uwb.history.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 1 + SHORT_CONFIG["fcnn"]["uwb"]["epochs"]


class TestRun:
    def test_every_stage_passes_at_a_50_hz_imu(self, tmp_path):
        # 2 IMU steps per 100 ms epoch instead of 10: shorter preintegrated segments
        run = run_pipeline(tmp_path, {**SHORT_CONFIG, "sim": {**SHORT_CONFIG["sim"], "dt": 0.02}})
        for algo, path in run["trajectories"].items():
            rows, _ = read_trajectory(path)
            assert len(rows) > 0 and np.all(np.isfinite(rows)), algo
        with open(os.path.join(run["report"], "report.json")) as fh:
            assert sorted(row["algorithm"] for row in json.load(fh)["rows"]) == sorted(ALGORITHMS)

    def test_all_six_trajectories_cover_the_same_epochs_after_warmup(self, pipeline):
        doc = load_config(pipeline["config"])
        warmup_end = DEFAULT_K * 1.0 / doc["sim"]["uwb"]["rate_hz"]
        counts = {}
        for algo, path in pipeline["trajectories"].items():
            rows, tag = read_trajectory(path)
            assert tag == algo
            counts[algo] = int(np.sum(rows[:, 0] >= warmup_end - 1e-9))
        assert len(set(counts.values())) == 1, counts

    def test_library_models_of_another_architecture_run_from_their_files(self, pipeline, tmp_path):
        # train fits the default architecture; run takes whatever the model files record
        doc = load_config(pipeline["config"])
        scenario = read_scenario(pipeline["data"])
        uwb, _ = train_uwb_model(scenario, sensor_train_config(doc, "uwb"), k=5, hidden=(8,))
        baro, _ = train_baro_model(scenario, sensor_train_config(doc, "baro"), k=5, hidden=(8,))
        cfg = fusion_train_config(doc)
        encoders, params, _ = train_fusion(
            scenario, uwb, baro, cfg, L=4,
            encoders=init_encoders(L=4, d_e=8, hidden=16, seed=cfg.seed),
            params=init_attention_params(d_e=8, d_k=4, seed=cfg.seed),
        )
        models = tmp_path / "models"
        models.mkdir()
        bundle = fusion_to_dict(encoders, params)
        assert bundle["window"] == 4  # the window the encoders take, not DEFAULT_L
        for name, model in (("uwb", model_to_dict(uwb)), ("baro", model_to_dict(baro)), ("fusion", bundle)):
            (models / f"{name}.json").write_text(json.dumps(model))
        frames = collect_fusion_frames(scenario, uwb, baro, L=4)
        first = {"uwb-fcnn": scenario.uwb.t[4], "baro-fcnn": scenario.baro.t[4],
                 "amfa": frames.t[np.argmax(frames.fusible)]}
        for algo, t0 in first.items():
            out = tmp_path / f"{algo}.jsonl"
            assert main(["run", "--data", pipeline["data"], "--models", str(models), "--algo", algo,
                         "--out", str(out)]) == 0, algo
            rows, _ = read_trajectory(str(out))
            default_rows, _ = read_trajectory(pipeline["trajectories"][algo])
            assert rows[0, 0] == t0 < default_rows[0, 0], algo

    def test_amfa_sigmas_strictly_positive(self, pipeline):
        rows, _ = read_trajectory(pipeline["trajectories"]["amfa"])
        assert np.all(rows[:, 4:7] > 0)

    def test_altitude_only_rows_pin_horizontal_to_zero(self, pipeline):
        rows, _ = read_trajectory(pipeline["trajectories"]["baro"])
        assert np.all(rows[:, 1:3] == 0.0)

    @pytest.mark.parametrize("algo, which", [("uwb-fcnn", "uwb"), ("baro-fcnn", "baro"), ("amfa", "fusion")])
    def test_missing_model_is_a_missing_input(self, pipeline, tmp_path, capsys, algo, which):
        rc = main(
            ["run", "--data", pipeline["data"], "--models", str(tmp_path), "--algo", algo,
             "--out", str(tmp_path / "t.jsonl"), "--config", pipeline["config"]]
        )
        assert rc == 3
        assert f"(run train --model {which} first)" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize(
        "filename, kind, algo",
        [("uwb.json", "baro-fcnn", "uwb-fcnn"), ("baro.json", "uwb-fcnn", "baro-fcnn"),
         ("fusion.json", "baro-fcnn", "amfa")],
    )
    def test_model_file_of_another_kind_exits_2_naming_it(self, workspace, filename, kind, algo):
        path = workspace / "models" / filename
        doc = json.loads(path.read_text())
        doc["kind"] = kind
        path.write_text(json.dumps(doc))
        out = workspace / "out.jsonl"
        proc = run_cli(["run", "--data", str(workspace / "data"), "--models", str(workspace / "models"),
                        "--algo", algo, "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        which = filename.removesuffix(".json")
        assert proc.stderr == f"config error: {path}: not a {which} model: kind {kind!r}\n", proc.stderr
        assert not out.exists()
        with pytest.raises(ConfigError, match=f"^not a {which} model: kind {kind!r}$"):
            LIBRARY_READERS[filename](doc)

    def test_raw_only_uwb_model_exits_2_naming_it(self, workspace, capsys):
        # a uwb.json trained with "include_geometric": false: its network reads
        # the k raw samples alone, 3 short of the window with the geometric fix
        path = workspace / "models" / "uwb.json"
        doc = json.loads(path.read_text())
        k, sizes = doc["k"], doc["network"]["layer_sizes"]
        raw_only = net_to_dict(net_init([3 * k, *sizes[1:]], seed=0))
        path.write_text(json.dumps({**doc, "include_geometric": False, "network": raw_only}))
        out = workspace / "out.jsonl"
        rc = main(["run", "--data", str(workspace / "data"), "--models", str(workspace / "models"),
                   "--algo", "uwb-fcnn", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {path}: network input {3 * k} != expected {3 * k + 3}\n"
        assert not out.exists()
        with pytest.raises(ConfigError, match=f"^network input {3 * k} != expected {3 * k + 3}$"):
            model_from_dict(json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "filename, key, algo",
        [("uwb.json", "network", "uwb-fcnn"), ("fusion.json", "attention", "amfa")],
    )
    def test_model_file_missing_a_key_exits_2_naming_it(self, pipeline, tmp_path, filename, key, algo):
        models = tmp_path / "models"
        shutil.copytree(pipeline["models"], models)
        doc = json.loads((models / filename).read_text())
        del doc[key]
        (models / filename).write_text(json.dumps(doc))
        out = tmp_path / "out.jsonl"
        proc = run_cli(["run", "--data", pipeline["data"], "--models", str(models), "--algo", algo,
                        "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{models / filename}: missing key {key!r}" in proc.stderr
        assert not out.exists()
        with pytest.raises(ConfigError, match=f"^missing key {key!r}$"):
            LIBRARY_READERS[filename](doc)

    @pytest.mark.parametrize(
        "filename, key, value, algo",
        [
            ("fusion.json", "window", 10.7, "amfa"),
            ("fusion.json", "lambda", "a", "amfa"),
            ("baro.json", "k", 2.5, "baro-fcnn"),
            ("fusion.json", "attention.d_k", 16.7, "amfa"),
            ("fusion.json", "attention.d_k", "16", "amfa"),
            ("fusion.json", "attention.beta.x", "1.5", "amfa"),
            ("fusion.json", "attention.beta.x", True, "amfa"),
            ("fusion.json", "attention.b_prior.uwb.x", None, "amfa"),
            # values the library readers once converted with int() or float()
            ("fusion.json", "window", 4.7, "amfa"),
            ("fusion.json", "attention.d_k", 4.9, "amfa"),
            ("fusion.json", "ukf.q", "0.05", "amfa"),
            ("uwb.json", "k", 10.0, "uwb-fcnn"),
            # a window the encoders do not take
            ("fusion.json", "window", 4, "amfa"),
            # sizes below 1
            ("fusion.json", "window", 0, "amfa"),
            ("fusion.json", "window", -2, "amfa"),
            ("fusion.json", "attention.d_k", 0, "amfa"),
            ("uwb.json", "k", 0, "uwb-fcnn"),
            ("baro.json", "k", 0, "baro-fcnn"),
        ],
    )
    def test_model_file_value_of_the_wrong_json_type_exits_2_naming_it(
        self, pipeline, tmp_path, filename, key, value, algo
    ):
        models = tmp_path / "models"
        shutil.copytree(pipeline["models"], models)
        doc = json.loads((models / filename).read_text())
        *parents, leaf = key.split(".")
        node = doc
        for step in parents:
            node = node[step]
        node[leaf] = value
        (models / filename).write_text(json.dumps(doc))
        out = tmp_path / "out.jsonl"
        proc = run_cli(["run", "--data", pipeline["data"], "--models", str(models), "--algo", algo,
                        "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"config error: {models / filename}: {key}: must be"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be"):
            LIBRARY_READERS[filename](doc)

    # the files `run --algo amfa --config c.json` reads as JSON documents
    JSON_INPUTS = ("c.json", "data/anchor.json", "models/uwb.json", "models/baro.json", "models/fusion.json")

    @pytest.mark.parametrize("damage", ["truncated", "list"])
    @pytest.mark.parametrize("name", JSON_INPUTS)
    def test_json_input_that_is_not_an_object_exits_2_naming_the_file(self, workspace, name, damage):
        path = workspace / name
        text = path.read_text()
        if damage == "truncated":
            text = text[: len(text) // 2]
            with pytest.raises(json.JSONDecodeError) as err:
                json.loads(text)
            expected = f"config error: {path}:{err.value.lineno}: invalid JSON ("
        else:
            text = json.dumps([json.loads(text)])
            expected = f"config error: {path}: top level must be a JSON object"
        path.write_text(text)
        out = workspace / "out.jsonl"
        proc = run_cli(["run", "--data", str(workspace / "data"), "--models", str(workspace / "models"),
                        "--algo", "amfa", "--out", str(out), "--config", str(workspace / "c.json")])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(expected), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("name", [*JSON_INPUTS[:3], "data/imu.jsonl", "out.jsonl"])
    def test_directory_where_a_file_is_expected_exits_3_naming_it(self, workspace, name):
        path = workspace / name
        if path.exists():
            path.unlink()
        path.mkdir()
        out = workspace / "out.jsonl"
        proc = run_cli(["run", "--data", str(workspace / "data"), "--models", str(workspace / "models"),
                        "--algo", "uwb-fcnn", "--out", str(out), "--config", str(workspace / "c.json")])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(path) in proc.stderr, proc.stderr
        assert not out.is_file()

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_directory_out_exits_3_before_any_work(self, tmp_path, monkeypatch, capsys, command):
        def never(*args, **kwargs):
            raise AssertionError("work started for a directory --out")

        for module, name in [(records, "read_scenario"), (commands, "run_algorithm"), (commands, "train_uwb_model")]:
            monkeypatch.setattr(module, name, never)
        out = tmp_path / "out"
        out.mkdir()
        if command == "run":
            args = ["run", "--algo", "uwb-fcnn", "--models", str(tmp_path)]
        else:
            args = ["train", "--model", "uwb"]
        assert main([*args, "--data", str(tmp_path / "data"), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"missing input: {out}: is a directory, not a file to write\n"

    def test_fusion_bundle_of_an_older_version_exits_2_naming_the_file(self, workspace):
        path = workspace / "models" / "fusion.json"
        doc = json.loads(path.read_text())
        # the version 1 layout, whose ukf object also held the initial state and the sigma-point spread
        doc.update(version=1, ukf={"mean": [0.0] * 6, "cov": np.diag([4.0, 4.0, 4.0, 1.0, 1.0, 1.0]).tolist(),
                                   "alpha": 0.001, "beta": 2.0, "kappa": 0.0, "q": 0.05})
        path.write_text(json.dumps(doc))
        out = workspace / "out.jsonl"
        proc = run_cli(["run", "--data", str(workspace / "data"), "--models", str(workspace / "models"),
                        "--algo", "amfa", "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"config error: {path}: fusion bundle version 1, not 2; retrain it"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()
        with pytest.raises(ConfigError, match="^fusion bundle version 1, not 2; retrain it$"):
            fusion_from_dict(doc)

    @pytest.mark.parametrize(
        "name, damage",
        [
            *[pytest.param(name, "not-utf8", id=f"{name}-not-utf8")
              for name in ("c.json", "data/anchor.json", "models/uwb.json", "data/imu.jsonl", "traj.jsonl")],
            pytest.param("c.json", "deep", id="c.json-deep"),
            pytest.param("data/uwb.jsonl", "deep", id="data/uwb.jsonl-deep"),
        ],
    )
    def test_unreadable_json_input_exits_2_naming_the_file(self, workspace, pipeline, name, damage):
        # a byte that is not UTF-8, or nesting too deep for the parser's recursion
        shutil.copy(pipeline["trajectories"]["amfa"], workspace / "traj.jsonl")
        path = workspace / name
        lines = path.read_bytes().split(b"\n")
        jsonl = name.endswith(".jsonl")
        row = 4 if jsonl else 0  # a record's line, or a document's first line
        if damage == "not-utf8":
            lines[row] = lines[row].replace(b"{", b'{"\xff": 0, ', 1)
        else:
            lines[row] = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(b"\n".join(lines))
        if name == "traj.jsonl":
            args = ["report", "--est", str(path), "--truth", str(workspace / "data" / "truth.jsonl"),
                    "--out", str(workspace / "report")]
        else:
            args = ["run", "--data", str(workspace / "data"), "--models", str(workspace / "models"), "--algo", "amfa",
                    "--out", str(workspace / "out.jsonl"), "--config", str(workspace / "c.json")]
        proc = run_cli(args)
        assert proc.returncode == 2, proc.stderr
        if jsonl:
            expected = f"invalid data: {path}:5: unreadable JSON record ("
        else:
            expected = f"config error: {path}: unreadable JSON ("
        assert proc.stderr.startswith(expected), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (workspace / "out.jsonl").exists()

    @pytest.mark.parametrize("algo, window", [("amfa", "L"), ("uwb-fcnn", "k"), ("baro-fcnn", "k")])
    def test_run_shorter_than_one_window_exits_3_naming_it(self, pipeline, tmp_path, algo, window):
        cfg = json.loads(json.dumps(SHORT_CONFIG))
        cfg["sim"]["duration"] = 0.3
        cfg["sim"]["profile"]["pauses"] = []
        cfg["sim"]["gps"]["occlusions"] = []
        cfg["sim"]["uwb"]["nlos_windows"] = []
        cfg_path = tmp_path / "short.json"
        cfg_path.write_text(json.dumps(cfg))
        data = str(tmp_path / "data")
        assert main(["simulate", "--config", str(cfg_path), "--out", data]) == 0
        out = tmp_path / "traj.jsonl"
        proc = run_cli(
            ["run", "--data", data, "--models", pipeline["models"], "--algo", algo, "--out", str(out),
             "--config", pipeline["config"]]
        )
        assert proc.returncode == 3, proc.stderr
        assert f"window ({window} = " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    # (emptied stream, algorithm) pairs that must exit 3 without a file; every
    # other pair exits 0 with a non-empty trajectory
    NEEDS = {
        ("imu", "gpsins-ekf"), ("imu", "amfa"),
        ("uwb", "uwb-fcnn"), ("uwb", "uwb-geo"),
        ("baro", "baro-fcnn"), ("baro", "baro"),
    }

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("stream", ("imu", "gps", "uwb", "baro"))
    def test_emptied_stream_exits_3_or_writes_a_full_trajectory(self, pipeline, tmp_path, capsys, stream, algo):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        (data / SCENARIO_FILES[stream]).write_bytes(b"")
        out = tmp_path / "traj.jsonl"
        rc = main(["run", "--data", str(data), "--models", pipeline["models"], "--algo", algo,
                   "--out", str(out), "--config", pipeline["config"]])
        if (stream, algo) in self.NEEDS:
            assert rc == 3
            assert not out.exists()
            assert stream in capsys.readouterr().err.lower()
        else:
            assert rc == 0
            rows, tag = read_trajectory(str(out))
            assert tag == algo and len(rows) > 0

    def test_amfa_builds_no_per_epoch_frame(self, pipeline, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-epoch object built on the run path")

        monkeypatch.setattr("climbloc.fusion.pipeline.FusionFrame", refuse)
        monkeypatch.setattr("climbloc.fusion.pipeline.ReliabilityScores", refuse)
        scenario = read_scenario(pipeline["data"])
        t, positions, sigmas = run_algorithm(scenario, "amfa", pipeline["models"])
        expected, _ = read_trajectory(pipeline["trajectories"]["amfa"])
        np.testing.assert_array_equal(np.column_stack([t, positions, sigmas]), expected)

    def test_uwb_geo_sigmas_do_not_read_the_simulated_noise(self, pipeline, tmp_path):
        # uwb-geo propagates UwbSigmaModel(), as AMFA's warm-up fixes do, not
        # the sim.uwb noise of the config it is run with
        noisy = tmp_path / "noisy.json"
        noisy.write_text(json.dumps({"sim": {"uwb": {"range_sigma": 0.5, "angle_sigma": 0.05}}}))
        trajectories = []
        for name, config in (("noisy", ["--config", str(noisy)]), ("default", [])):
            out = tmp_path / f"{name}.jsonl"
            rc = main(["run", "--data", pipeline["data"], "--models", pipeline["models"], "--algo", "uwb-geo",
                       "--out", str(out), *config])
            assert rc == 0
            trajectories.append(out.read_bytes())
        assert trajectories[0] == trajectories[1]

    def test_unordered_uwb_stream_exits_2(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        with open(data / "uwb.jsonl") as fh:
            lines = fh.readlines()
        lines[3], lines[4] = lines[4], lines[3]
        with open(data / "uwb.jsonl", "w") as fh:
            fh.writelines(lines)
        rc = main(
            ["run", "--data", str(data), "--models", pipeline["models"], "--algo", "amfa",
             "--out", str(tmp_path / "t.jsonl"), "--config", pipeline["config"]]
        )
        assert rc == 2
        assert "uwb stream is not time-ordered" in capsys.readouterr().err

    def test_noiseless_uwb_geo_stays_within_the_small_angle_bound(self, tmp_path):
        doc = load_config(None)
        doc["sim"].update({"duration": 8.0, "seed": 2})
        doc["sim"]["profile"]["pauses"] = []
        doc["sim"]["gps"]["occlusions"] = []
        doc["sim"]["uwb"].update({"range_sigma": 0.0, "angle_sigma": 0.0, "nlos_windows": []})
        scenario = simulate_scenario(scenario_config(doc))
        truth_at = {round(t, 6): p for t, p in zip(scenario.truth.t.tolist(), scenario.truth.position)}
        uwb = scenario.uwb
        positions, _ = uwb_geometric_fixes(uwb, scenario.anchor)
        for i, t in enumerate(uwb.t.tolist()):
            bound = uwb.range[i] * abs(math.sin(uwb.alpha[i]) * math.sin(uwb.beta[i])) + 1e-9
            err = np.linalg.norm(positions[i] - truth_at[round(t, 6)])
            assert err <= bound


class TestReport:
    def test_outputs_exist_with_reference_footer(self, pipeline):
        report = pipeline["report"]
        for name in ("metrics.csv", "cdf.csv", "boxplot.csv", "report.json"):
            assert os.path.exists(os.path.join(report, name))
        with open(os.path.join(report, "metrics.csv")) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1 + len(ALGORITHMS) + 1  # header, six rows, reference
        assert lines[-1].startswith("amfa [hardware reference],0.48,0.43,1.5")
        with open(os.path.join(report, "report.json")) as fh:
            doc = json.load(fh)
        assert {row["algorithm"] for row in doc["rows"]} == set(ALGORITHMS)
        assert all(row["matched_epochs"] > 0 for row in doc["rows"])

    def test_estimate_equal_to_truth_scores_zero(self, pipeline, tmp_path):
        truth_path = os.path.join(pipeline["data"], "truth.jsonl")
        rows, _ = read_table(truth_path, ("t", "x", "y", "z"))
        est_path = tmp_path / "oracle.jsonl"
        write_trajectory(str(est_path), rows[:, 0], rows[:, 1:4], np.zeros((len(rows), 3)), "oracle")
        out = tmp_path / "report"
        rc = main(["report", "--est", str(est_path), "--truth", truth_path, "--out", str(out)])
        assert rc == 0
        with open(out / "report.json") as fh:
            doc = json.load(fh)
        assert doc["rows"][0]["rmse"] == 0.0
        assert doc["rows"][0]["max"] == 0.0

    def test_trajectories_sharing_a_tag_keep_one_cdf_column_each(self, pipeline, tmp_path):
        traj = str(pipeline["trajectories"]["amfa"])
        out = tmp_path / "report"
        rc = main(["report", "--est", traj, traj, "--truth", os.path.join(pipeline["data"], "truth.jsonl"),
                   "--out", str(out)])
        assert rc == 0
        with open(out / "cdf.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "threshold,amfa,amfa"
        assert all(cells[1] == cells[2] for cells in (line.split(",") for line in lines[1:]))

    def test_disjoint_timelines_fail_numerically(self, pipeline, tmp_path):
        est_path = tmp_path / "far.jsonl"
        write_trajectory(str(est_path), [1e6], np.zeros((1, 3)), np.zeros((1, 3)), "x")
        rc = main(
            ["report", "--est", str(est_path), "--truth",
             os.path.join(pipeline["data"], "truth.jsonl"), "--out", str(tmp_path / "r")]
        )
        assert rc == 4
