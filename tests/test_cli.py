"""Tests for the file-based pipeline: config, record IO, and the commands."""

import dataclasses
import hashlib
import json
import math
import os
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
from climbloc.cli import records
from climbloc.cli.config import scenario_config
from climbloc.cli.commands import run_algorithm
from climbloc.cli.records import COLUMNS_DIR, write_scenario, write_trajectory
from climbloc.errors import ConfigError, MissingInputError
from climbloc.models import model_from_dict, uwb_fcnn_infer
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
    "nnet": {"epochs": 5},
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

    def test_default_digest_is_pinned(self):
        # the manifest stamps this digest: a moved default changes it
        digest = "476dd9e3da99d25dd59d88da9dc5a24f951532790267a80951d89338405719a8"
        assert config_digest(load_config(None)) == digest

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
        assert "anchor.json" in proc.stderr and repr(dotted) in proc.stderr, proc.stderr

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

    def test_reloaded_model_matches_in_memory_inference(self, pipeline):
        from climbloc.cli.config import fcnn_options, sensor_train_config
        from climbloc.models import train_uwb_model

        doc = load_config(pipeline["config"])
        scenario = read_scenario(pipeline["data"])
        in_memory, _ = train_uwb_model(
            scenario, sensor_train_config(doc, "uwb"), **fcnn_options(doc, "uwb")
        )
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
        k = doc["fcnn"]["k"]
        warmup_end = k * 1.0 / doc["sim"]["uwb"]["rate_hz"]
        counts = {}
        for algo, path in pipeline["trajectories"].items():
            rows, tag = read_trajectory(path)
            assert tag == algo
            counts[algo] = int(np.sum(rows[:, 0] >= warmup_end - 1e-9))
        assert len(set(counts.values())) == 1, counts

    def test_amfa_sigmas_strictly_positive(self, pipeline):
        rows, _ = read_trajectory(pipeline["trajectories"]["amfa"])
        assert np.all(rows[:, 4:7] > 0)

    def test_altitude_only_rows_pin_horizontal_to_zero(self, pipeline):
        rows, _ = read_trajectory(pipeline["trajectories"]["baro"])
        assert np.all(rows[:, 1:3] == 0.0)

    def test_missing_model_is_a_missing_input(self, pipeline, tmp_path):
        rc = main(
            ["run", "--data", pipeline["data"], "--models", str(tmp_path), "--algo", "uwb-fcnn",
             "--out", str(tmp_path / "t.jsonl"), "--config", pipeline["config"]]
        )
        assert rc == 3

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
        t, positions, sigmas = run_algorithm(scenario, "amfa", pipeline["models"], load_config(pipeline["config"]))
        expected, _ = read_trajectory(pipeline["trajectories"]["amfa"])
        np.testing.assert_array_equal(np.column_stack([t, positions, sigmas]), expected)

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
