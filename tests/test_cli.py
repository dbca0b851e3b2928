"""Tests for the file-based pipeline: config, record IO, and the commands."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import climbloc
from climbloc.cli import (
    ALGORITHMS,
    MANIFEST_FILE,
    SCENARIO_FILES,
    config_digest,
    load_config,
    main,
    read_jsonl,
    read_manifest,
    read_scenario,
    read_trajectory,
)
from climbloc.cli.config import scenario_config
from climbloc.cli.records import missing_manifest_files, write_jsonl
from climbloc.errors import ConfigError, MissingInputError
from climbloc.models import model_from_dict, uwb_fcnn_infer
from climbloc.sim import simulate_scenario
from climbloc.solvers import uwb_geometric_solve


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


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One short scenario taken through simulate, train x3, run x6, report."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SHORT_CONFIG))
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


@pytest.fixture(scope="module")
def tiny_scenario():
    doc = load_config(None)
    doc["sim"].update({"duration": 2.0, "seed": 1})
    doc["sim"]["profile"]["pauses"] = []
    doc["sim"]["gps"]["occlusions"] = []
    doc["sim"]["uwb"]["nlos_windows"] = []
    return simulate_scenario(scenario_config(doc))


class TestRecords:
    def test_scenario_round_trip(self, tiny_scenario, tmp_path):
        from climbloc.cli import write_scenario

        write_scenario(str(tmp_path), tiny_scenario)
        back = read_scenario(str(tmp_path))
        assert len(back.truth) == len(tiny_scenario.truth)
        assert back.truth[5].t == tiny_scenario.truth[5].t
        assert back.truth[5].position == tiny_scenario.truth[5].position
        assert np.allclose(
            back.truth[5].attitude.matrix, tiny_scenario.truth[5].attitude.matrix, atol=1e-12
        )
        assert back.imu == tiny_scenario.imu
        assert back.gps == tiny_scenario.gps
        assert back.uwb == tiny_scenario.uwb
        assert back.baro == tiny_scenario.baro
        assert back.origin == tiny_scenario.origin
        assert back.baro_reference == tiny_scenario.baro_reference

    def test_write_read_write_is_byte_stable(self, tiny_scenario, tmp_path):
        # truth.jsonl is exempt: its quaternions are regenerated from the
        # parsed rotation on rewrite, stable in value but not in bytes
        from climbloc.cli import write_scenario

        first = tmp_path / "a"
        second = tmp_path / "b"
        write_scenario(str(first), tiny_scenario)
        write_scenario(str(second), read_scenario(str(first)))
        for name, filename in SCENARIO_FILES.items():
            if name == "truth":
                continue
            assert file_sha(first / filename) == file_sha(second / filename), filename

    def test_jsonl_error_carries_line_number(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"t": 1.0}\nnot json\n')
        with pytest.raises(ValueError, match=r"x\.jsonl:2"):
            read_jsonl(str(path))

    def test_missing_stream_raises_missing_input(self, tmp_path):
        with pytest.raises(MissingInputError):
            read_jsonl(str(tmp_path / "absent.jsonl"))

    @pytest.mark.parametrize(
        "filename, edit",
        [
            pytest.param("imu.jsonl", lambda r: _without(r, "fx"), id="stream-missing-field"),
            pytest.param("imu.jsonl", lambda r: json.dumps(list(r.values())), id="stream-json-array"),
            pytest.param("truth.jsonl", lambda r: _without(r, "x"), id="truth-missing-field"),
            pytest.param("traj_baro.jsonl", lambda r: _without(r, "sx"), id="trajectory-missing-field"),
        ],
    )
    def test_malformed_record_exits_2_naming_its_line(self, pipeline, tmp_path, filename, edit):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        traj = tmp_path / "traj_baro.jsonl"
        shutil.copy(pipeline["trajectories"]["baro"], traj)
        target = traj if filename == "traj_baro.jsonl" else data / filename
        _rewrite_line(target, 5, edit)
        if filename == "imu.jsonl":
            args = ["run", "--data", str(data), "--models", pipeline["models"], "--algo", "baro",
                    "--out", str(tmp_path / "out.jsonl")]
        else:
            args = ["report", "--est", str(traj), "--truth", str(data / "truth.jsonl"),
                    "--out", str(tmp_path / "report")]
        src = os.path.dirname(os.path.dirname(climbloc.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "climbloc", *args], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{target}:5" in proc.stderr

    def test_trajectory_rejects_mixed_algos(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rows = [
            {"t": 0.1, "x": 0, "y": 0, "z": 0, "sx": 0, "sy": 0, "sz": 0, "algo": "a"},
            {"t": 0.2, "x": 0, "y": 0, "z": 0, "sx": 0, "sy": 0, "sz": 0, "algo": "b"},
        ]
        write_jsonl(str(path), rows)
        with pytest.raises(ValueError, match="mixed algo"):
            read_trajectory(str(path))


class TestSimulate:
    def test_writes_streams_anchor_and_manifest(self, pipeline):
        data = pipeline["data"]
        for filename in SCENARIO_FILES.values():
            assert os.path.exists(os.path.join(data, filename))
        assert os.path.exists(os.path.join(data, "anchor.json"))
        manifest = read_manifest(data)
        assert manifest["config_digest"] == config_digest(load_config(pipeline["config"]))
        assert missing_manifest_files(data, manifest) == []

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        again = str(tmp_path / "again")
        assert main(["simulate", "--config", pipeline["config"], "--out", again]) == 0
        for filename in [*SCENARIO_FILES.values(), "anchor.json", MANIFEST_FILE]:
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
    def test_all_six_trajectories_cover_the_same_epochs_after_warmup(self, pipeline):
        doc = load_config(pipeline["config"])
        k = doc["fcnn"]["k"]
        warmup_end = k * 1.0 / doc["sim"]["uwb"]["rate_hz"]
        counts = {}
        for algo, path in pipeline["trajectories"].items():
            rows, tag = read_trajectory(path)
            assert tag == algo
            counts[algo] = len([r for r in rows if r["t"] >= warmup_end - 1e-9])
        assert len(set(counts.values())) == 1, counts

    def test_amfa_sigmas_strictly_positive(self, pipeline):
        rows, _ = read_trajectory(pipeline["trajectories"]["amfa"])
        for r in rows:
            assert r["sx"] > 0 and r["sy"] > 0 and r["sz"] > 0

    def test_altitude_only_rows_pin_horizontal_to_zero(self, pipeline):
        rows, _ = read_trajectory(pipeline["trajectories"]["baro"])
        assert all(r["x"] == 0.0 and r["y"] == 0.0 for r in rows)

    def test_missing_model_is_a_missing_input(self, pipeline, tmp_path):
        rc = main(
            ["run", "--data", pipeline["data"], "--models", str(tmp_path), "--algo", "uwb-fcnn",
             "--out", str(tmp_path / "t.jsonl"), "--config", pipeline["config"]]
        )
        assert rc == 3

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
        truth_at = {round(p.t, 6): p.position.as_array() for p in scenario.truth}
        for m in scenario.uwb:
            pose = uwb_geometric_solve(m, scenario.anchor)
            bound = m.range * abs(math.sin(m.alpha) * math.sin(m.beta)) + 1e-9
            err = np.linalg.norm(pose.position.as_array() - truth_at[round(m.t, 6)])
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
        rows = read_jsonl(truth_path)
        est = [
            {"t": r["t"], "x": r["x"], "y": r["y"], "z": r["z"],
             "sx": 0.0, "sy": 0.0, "sz": 0.0, "algo": "oracle"}
            for r in rows
        ]
        est_path = tmp_path / "oracle.jsonl"
        write_jsonl(str(est_path), est)
        out = tmp_path / "report"
        rc = main(["report", "--est", str(est_path), "--truth", truth_path, "--out", str(out)])
        assert rc == 0
        with open(out / "report.json") as fh:
            doc = json.load(fh)
        assert doc["rows"][0]["rmse"] == 0.0
        assert doc["rows"][0]["max"] == 0.0

    def test_disjoint_timelines_fail_numerically(self, pipeline, tmp_path):
        est = [{"t": 1e6, "x": 0, "y": 0, "z": 0, "sx": 0, "sy": 0, "sz": 0, "algo": "x"}]
        est_path = tmp_path / "far.jsonl"
        write_jsonl(str(est_path), est)
        rc = main(
            ["report", "--est", str(est_path), "--truth",
             os.path.join(pipeline["data"], "truth.jsonl"), "--out", str(tmp_path / "r")]
        )
        assert rc == 4
