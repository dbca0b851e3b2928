"""Self-test of the benchmark harness at a tiny size.

Run from the repository root with `python3 -m pytest perfbench/test_harness.py`.
It runs every workload on a 4 s scenario with one training epoch per model,
so its numbers mean nothing and are never recorded; it checks that every
metric BENCHMARK.json names is emitted, with its unit, and is finite.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(tmp_path, workload, trace, seed=3):
    return run.run_benchmark(workload, seed, seconds=0, trace=trace, work_dir=tmp_path,
                             tiny=True, min_reps=1)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    result = tiny_run(tmp_path, workload, trace)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_second_seed_trains_the_same_models_on_another_heldout_scenario(tmp_path):
    a = tiny_run(tmp_path, "localize", False, seed=3)
    b = tiny_run(tmp_path, "localize", False, seed=4)
    assert a["result"]["correct"] and b["result"]["correct"]
    for model in ("models/uwb.json", "models/baro.json", "models/fusion.json"):
        assert a["digests"][model] == b["digests"][model]
    assert a["digests"]["data/truth.jsonl"] == b["digests"]["data/truth.jsonl"]
    assert a["digests"]["data/uwb.jsonl"] != b["digests"]["data/uwb.jsonl"]


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "reproduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
