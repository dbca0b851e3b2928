"""climbloc pipeline benchmark.

Usage:
    python3 perfbench/run.py --workload {reproduce,localize,degraded} \
        --seed N --seconds S --trace {0,1}

Run from the root of a climbloc checkout. Every stage is one
`python -m climbloc` process, run one after another as the README runs
them (a closed loop with one client). A run first sets up a workload
several times, each time in a fresh workspace, and checks that every set-up
gives byte-identical outputs. Then it runs timed repetitions, each in a
fresh workspace holding a copy of the first set-up's inputs, until the next
one would end after --seconds; there are at least MIN_REPS of them.
`wall_s` is the summed wall time of a repetition's stages and `setup_s`
that of a set-up's stages plus creating its workspace; both are medians.

With --trace 1, set-ups run through perfbench/tracer.py, which records
spans at the layer boundaries, and repetitions alternate between plain and
traced; the per-layer metrics come from the traced workspaces and the
tracing overhead is the ratio of the two kinds' `wall_s`.

Every stage's exit code, stderr and outputs are checked, and the SHA-256 of
every output file is compared with the first set-up's or repetition's. The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The full record (accuracy table, digests, per-layer table,
metadata) goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

ALGOS = ("baro", "baro-fcnn", "uwb-geo", "uwb-fcnn", "gpsins-ekf", "amfa")
MODELS = ("uwb", "baro", "fusion")
STAGES = ("simulate", *(f"train.{m}" for m in MODELS), *(f"run.{a}" for a in ALGOS), "report")
# localize and degraded always train on the default scenario's seed
TRAIN_SEED = 7
# degraded runs amfa once per stream, with that stream's file emptied
DEGRADED_STREAMS = ("gps", "uwb", "baro")
# a degraded stage may also end with one of the CLI's defined error codes
DEGRADED_OK_CODES = (0, 2, 3, 4)
MIN_REPS = 3


def deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(out.get(key), dict) and isinstance(value, dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def load_settings(tiny: bool = False) -> dict:
    with open(BENCH_DIR / "config.json") as fh:
        settings = json.load(fh)
    settings["tiny"] = tiny
    return settings


def scenario_config(settings: dict, seed: int, heldout: bool) -> dict:
    doc = settings["base"]
    if heldout:
        doc = deep_merge(doc, settings["heldout"])
    if settings["tiny"]:
        doc = deep_merge(doc, settings["selftest"])
    return deep_merge(doc, {"sim": {"seed": seed}})


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- one stage in one workspace ---------------------------------------------

@dataclass
class Stage:
    name: str
    phase: str
    rc: int
    wall_s: float
    maxrss_mb: float
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    trace: dict | None = None


class Workspace:
    """A fresh directory in which one set-up or one timed repetition runs."""

    def __init__(self, directory: Path, phase: str, index: int, traced: bool):
        self.dir = directory
        self.phase = phase
        self.id = index
        self.traced = traced
        self.stages: list[Stage] = []
        self.create_s = 0.0
        self.amfa_epochs = 0
        self.amfa_wall_s = 0.0
        self.accuracy: list = []
        (directory / "logs").mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    @property
    def wall_s(self) -> float:
        return sum(st.wall_s for st in self.stages)

    @property
    def setup_s(self) -> float:
        return self.create_s + self.wall_s

    def write_configs(self, configs: dict) -> None:
        for name, doc in configs.items():
            with open(self.dir / name, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)

    def copy_inputs(self, source: Path, names) -> None:
        # an input a failed set-up did not write is left out; the stages
        # that need it then fail and are counted
        for name in names:
            if not (source / name).exists():
                continue
            if (source / name).is_dir():
                shutil.copytree(source / name, self.dir / name)
            else:
                shutil.copy2(source / name, self.dir / name)

    def stage(self, name: str, args, outputs=(), ok_codes=(0,)) -> Stage:
        log = self.dir / "logs" / f"{len(self.stages):02d}-{name}"
        out_path, err_path = log.parent / f"{log.name}.out", log.parent / f"{log.name}.err"
        trace_path = log.parent / f"{log.name}.spans.json"
        spawn = time.monotonic()
        if self.traced:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), repr(spawn),
                   f"{self.phase}{self.id}", "--", *args]
        else:
            cmd = [sys.executable, "-m", "climbloc", *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.dir, stdout=out, stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        st = Stage(name, self.phase, rc, wall, usage.ru_maxrss / 1024.0)
        stderr = err_path.read_text(errors="replace")
        if rc not in ok_codes:
            st.problems.append(f"exit code {rc}: {stderr.strip()[-300:]}")
        if "Traceback (most recent call last)" in stderr:
            st.problems.append("traceback on stderr")
        if rc == 0:
            for rel in outputs:
                path = self.dir / rel
                files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
                if not files or not all(p.exists() for p in files):
                    st.problems.append(f"missing output {rel}")
                for p in files:
                    if p.exists():
                        st.digests[str(p.relative_to(self.dir))] = sha256_file(p)
        if self.traced and trace_path.exists():
            with open(trace_path) as fh:
                st.trace = json.load(fh)
        self.stages.append(st)
        return st

    # -- the CLI stages -----------------------------------------------------

    def simulate(self, config: str, out: str):
        self.stage("simulate", ["simulate", "--config", config, "--out", out], [out])

    def train(self, config: str, data: str, models: str):
        for m in MODELS:
            out = f"{models}/{m}.json"
            self.stage(f"train.{m}",
                       ["train", "--model", m, "--data", data, "--out", out, "--config", config],
                       [out, f"{models}/{m}.history.csv"])

    def run(self, config: str, data: str, models: str, algo: str, out: str, ok_codes=(0,)):
        st = self.stage(f"run.{algo}",
                        ["run", "--algo", algo, "--data", data, "--models", models,
                         "--out", out, "--config", config],
                        [out], ok_codes)
        if st.rc != 0 or not (self.dir / out).is_file():
            return None
        epochs = check_trajectory(self.dir / out, st)
        if algo == "amfa":
            self.amfa_epochs += epochs
            self.amfa_wall_s += st.wall_s
        return out

    def report(self, config: str, trajectories, truth: str, out: str):
        st = self.stage("report",
                        ["report", "--est", *trajectories, "--truth", truth, "--out", out,
                         "--config", config],
                        [out])
        if st.rc == 0:
            self.accuracy = check_report(self.dir / out / "report.json", len(trajectories), st)


def check_trajectory(path: Path, st: Stage) -> int:
    """Epoch count; flags a malformed record or a non-finite position or sigma."""
    n = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                values = [rec[k] for k in ("t", "x", "y", "z", "sx", "sy", "sz")]
            except (json.JSONDecodeError, KeyError, TypeError):
                values = [None]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                st.problems.append(f"{path.name}:{lineno}: not a finite trajectory record")
                break
            n += 1
    if n == 0:
        st.problems.append(f"{path.name}: no epochs")
    return n


def check_report(path: Path, expected_rows: int, st: Stage) -> list:
    """The accuracy table; flags a missing, short or non-finite report."""
    try:
        with open(path) as fh:
            rows = json.load(fh)["rows"]
        table = [
            {
                "algorithm": row["algorithm"],
                "rmse": row["rmse"],
                "std": row["std"],
                "max": row["max"],
                "matched": row["matched_epochs"],
                "excluded": row["excluded_epochs"],
            }
            for row in rows
        ]
    except (OSError, json.JSONDecodeError, KeyError, TypeError):
        st.problems.append(f"{path.name}: missing or malformed")
        return []
    if len(table) != expected_rows:
        st.problems.append(f"report has {len(table)} rows, expected {expected_rows}")
    for entry in table:
        if not all(isinstance(entry[k], (int, float)) and math.isfinite(entry[k])
                   for k in ("rmse", "std", "max")):
            st.problems.append(f"report row {entry['algorithm']}: non-finite error")
    return table


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """configs: the config files a set-up's workspace is created with;
    setup: the set-up's stages; inputs: what each repetition copies from the
    first set-up; timed: the repetition's stages; setups: set-ups per run."""

    configs: Callable[[dict, int], dict]
    setup: Callable[[Workspace], None]
    inputs: tuple
    timed: Callable[[Workspace], None]
    setups: int


def reproduce_configs(settings: dict, seed: int) -> dict:
    return {"config.json": scenario_config(settings, seed, False)}


def reproduce_setup(ws: Workspace):
    # Creating the workspace alone takes under a millisecond and varies with
    # the machine by far more than any bound. Import-time work is the only
    # program work a reproduce set-up can hold, so it starts the CLI once.
    ws.stage("version", ["--version"])


def reproduce_timed(ws: Workspace):
    ws.simulate("config.json", "data")
    ws.train("config.json", "data", "models")
    trajs = [ws.run("config.json", "data", "models", a, f"traj_{a}.jsonl") for a in ALGOS]
    ws.report("config.json", [t for t in trajs if t], "data/truth.jsonl", "report")


def heldout_configs(settings: dict, seed: int) -> dict:
    return {"train.json": scenario_config(settings, TRAIN_SEED, False),
            "heldout.json": scenario_config(settings, seed, True)}


def heldout_setup(ws: Workspace):
    """Set-up shared by localize and degraded: seed-7 models, held-out scenario."""
    ws.simulate("train.json", "train_data")
    ws.train("train.json", "train_data", "models")
    ws.simulate("heldout.json", "data")


def localize_timed(ws: Workspace):
    trajs = [ws.run("heldout.json", "data", "models", a, f"traj_{a}.jsonl") for a in ALGOS]
    ws.report("heldout.json", [t for t in trajs if t], "data/truth.jsonl", "report")


def degraded_timed(ws: Workspace):
    for s in DEGRADED_STREAMS:
        shutil.copytree(ws.dir / "data", ws.dir / f"data_no_{s}")
        (ws.dir / f"data_no_{s}" / f"{s}.jsonl").write_bytes(b"")
    trajs = [
        ws.run("heldout.json", f"data_no_{s}", "models", "amfa", f"traj_amfa_no_{s}.jsonl",
               ok_codes=DEGRADED_OK_CODES)
        for s in DEGRADED_STREAMS
    ]
    ws.report("heldout.json", [t for t in trajs if t], "data/truth.jsonl", "report")
    # report names each row after the algo tag, which is "amfa" for all three
    for s, row in zip([s for s, t in zip(DEGRADED_STREAMS, trajs) if t], ws.accuracy):
        row["algorithm"] = f"amfa-no-{s}"


HELDOUT_INPUTS = ("heldout.json", "data", "models")
WORKLOADS = {
    "reproduce": Workload(reproduce_configs, reproduce_setup, ("config.json",),
                          reproduce_timed, 5),
    "localize": Workload(heldout_configs, heldout_setup, HELDOUT_INPUTS, localize_timed, 2),
    "degraded": Workload(heldout_configs, heldout_setup, HELDOUT_INPUTS, degraded_timed, 2),
}


# -- metrics ----------------------------------------------------------------

def end_to_end_metrics(setups, reps) -> dict:
    return {
        "wall_s": (median([r.wall_s for r in reps]), "s"),
        "setup_s": (median([s.setup_s for s in setups]), "s"),
        "peak_rss_mb": (max(st.maxrss_mb for ws in (*setups, *reps) for st in ws.stages), "MB"),
    }


def amfa_epochs_per_s(reps) -> float:
    """AMFA epochs written per second of `run --algo amfa`, median over reps."""
    return median([r.amfa_epochs / r.amfa_wall_s for r in reps if r.amfa_wall_s > 0])


class LayerStats:
    """Per-layer totals, self times, counts and per-call times from traced workspaces.

    A per-repetition value is the median over traced set-ups plus the median
    over traced timed repetitions: one set-up and one timed phase, which is
    what a user of the workload runs.
    """

    def __init__(self, workspaces, keep=lambda st: True):
        self.phases: dict[str, list] = {}
        self.durations: dict[str, list] = {}
        self.stage_s: dict[str, list] = {}
        self.import_s: list = []
        self.missing = set()
        for ws in workspaces:
            acc = {"total": {}, "self": {}, "calls": {}, "counters": {}}
            self.phases.setdefault(ws.phase, []).append(acc)
            for st in ws.stages:
                if not keep(st):
                    continue
                self.stage_s.setdefault(st.name, []).append(st.wall_s)
                if st.trace is None:
                    continue
                self.import_s.append(st.trace["import_s"])
                self.missing.update(st.trace["missing_layers"])
                self._add_trace(acc, st.trace)

    def _add_trace(self, acc: dict, trace: dict):
        names, rows = trace["names"], trace["rows"]
        child = [0.0] * len(rows)
        for nid, start, end, parent in rows:
            if parent >= 0:
                child[parent] += end - start
        for (nid, start, end, parent), covered in zip(rows, child):
            name = names[nid]
            for table, value in (("total", end - start), ("self", end - start - covered),
                                 ("calls", 1)):
                acc[table][name] = acc[table].get(name, 0.0) + value
            self.durations.setdefault(name, []).append(end - start)
        for name, value in trace["counters"].items():
            acc["counters"][name] = acc["counters"].get(name, 0.0) + value

    def per_rep(self, table: str, name: str) -> float:
        return sum(median([acc[table].get(name, 0.0) for acc in accs])
                   for accs in self.phases.values())

    def names(self, table: str) -> set:
        return {name for accs in self.phases.values() for acc in accs for name in acc[table]}

    def us(self, name: str, q: float) -> float:
        return percentile(self.durations.get(name, []), q) * 1e6


def per_layer_metrics(traced, plain_reps) -> dict:
    L = LayerStats(traced)
    tot = lambda name: L.per_rep("total", name)  # noqa: E731
    calls = lambda name: L.per_rep("calls", name)  # noqa: E731
    ctr = lambda name: L.per_rep("counters", name)  # noqa: E731
    m = {f"stage.{s}_s": (median(L.stage_s.get(s, [])), "s") for s in STAGES}
    m["stage.import_s"] = (median(L.import_s), "s")
    # from the plain repetitions, so tracing does not slow it
    m["stage.run.amfa.epochs_per_s"] = (amfa_epochs_per_s(plain_reps), "1/s")
    m["records.read_scenario.calls"] = (calls("records.read_scenario"), "count")
    m["records.read_scenario_s"] = (tot("records.read_scenario"), "s")
    m["records.input_bytes"] = (ctr("records.input_bytes"), "bytes")
    m["records.write_scenario_s"] = (tot("records.write_scenario"), "s")
    m["records.write_trajectory_s"] = (tot("records.write_trajectory"), "s")
    m["sim.simulate_s"] = (tot("sim.simulate"), "s")
    for layer in ("ins.propagate", "ins.update", "models.uwb_infer", "models.baro_infer",
                  "ukf.step", "train.grad"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}_us"] = (L.us(layer, 0.5), "us")
        m[f"{layer}.p99_us"] = (L.us(layer, 0.99), "us")
    for layer in ("attention.encode", "attention.logits", "attention.fuse"):
        m[f"{layer}_us"] = (L.us(layer, 0.5), "us")
        m[f"{layer}.p99_us"] = (L.us(layer, 0.99), "us")
    m["models.train_uwb_s"] = (tot("models.train_uwb"), "s")
    m["models.train_baro_s"] = (tot("models.train_baro"), "s")
    nnet_epochs = ctr("nnet.train.epochs")
    m["nnet.train.epochs"] = (nnet_epochs, "count")
    m["nnet.epoch_s"] = (tot("nnet.train") / nnet_epochs if nnet_epochs else 0.0, "s")
    m["fusion.collect_frames.calls"] = (calls("fusion.collect_frames"), "count")
    m["fusion.collect_frames_s"] = (tot("fusion.collect_frames"), "s")
    frames = ctr("fusion.frames")
    m["fusion.frames"] = (frames, "count")
    m["fusion.fusible_ratio"] = (ctr("fusion.fusible") / frames if frames else 0.0, "ratio")
    m["fusion.run_fusion_s"] = (tot("fusion.run_fusion"), "s")
    m["fusion.fallback_epochs"] = (ctr("fusion.fallback_epochs"), "count")
    train_epochs = ctr("train.epochs")
    m["train.epochs"] = (train_epochs, "count")
    # an epoch is the fit minus its frame collection: gradients, SGD and eval
    fit = LayerStats(traced, lambda st: st.name == "train.fusion")
    fit_s = fit.per_rep("total", "train.fit") - fit.per_rep("total", "fusion.collect_frames")
    m["train.epoch_s"] = (fit_s / train_epochs if train_epochs else 0.0, "s")
    m["train.eval_loss_s"] = (tot("train.eval_loss"), "s")
    m["train.self_s"] = (L.per_rep("self", "train.fit"), "s")
    m["metrics.report_s"] = (tot("metrics.report"), "s")
    traced_wall = median([ws.wall_s for ws in traced if ws.phase == "timed"])
    plain_wall = median([ws.wall_s for ws in plain_reps])
    m["trace.overhead_ratio"] = (traced_wall / plain_wall if plain_wall else 0.0, "ratio")
    return m


def layer_table(workspaces, keep=lambda st: True) -> dict:
    """Every traced layer: per-rep total, self, calls, p50/p99 per call."""
    L = LayerStats(workspaces, keep)
    table = {}
    for name in sorted(L.names("total")):
        table[name] = {
            "total_s": L.per_rep("total", name),
            "self_s": L.per_rep("self", name),
            "calls": L.per_rep("calls", name),
            "p50_us": L.us(name, 0.5),
            "p99_us": L.us(name, 0.99),
        }
    table["stages"] = {name: median(v) for name, v in L.stage_s.items()}
    table["counters"] = {name: L.per_rep("counters", name) for name in sorted(L.names("counters"))}
    table["missing_layers"] = sorted(L.missing)
    return table


def accounting(traced) -> dict:
    """Shares of a stage or of `wall_s` that each layer takes, from the trace."""
    fit = LayerStats(traced, lambda st: st.name == "train.fusion")
    stage = median(fit.stage_s.get("train.fusion", []))
    out = {"stage.train.fusion: import": median(fit.import_s) / stage}
    for name in ("records.read_scenario", "fusion.collect_frames", "train.grad", "train.eval_loss"):
        out[f"stage.train.fusion: {name}"] = fit.per_rep("total", name) / stage
    out["stage.train.fusion: train.self"] = fit.per_rep("self", "train.fit") / stage
    reps = [ws for ws in traced if ws.phase == "timed"]
    timed = LayerStats(reps)
    wall = median([ws.wall_s for ws in reps])
    out["wall_s: stage imports"] = sum(timed.import_s) / len(reps) / wall
    for name in ("records.read_scenario", "fusion.collect_frames"):
        out[f"wall_s: {name}"] = timed.per_rep("total", name) / wall
    return out


# -- metadata ---------------------------------------------------------------

def metadata(seed: int, settings: dict) -> dict:
    src_lines = 0
    for path in SRC.rglob("*.py"):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    meta = {
        "seed": seed,
        "train_seed": TRAIN_SEED,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "blas_threads": {k: os.environ.get(k, "machine default")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "heldout_windows": settings["heldout"],
    }
    try:
        import numpy

        meta["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        meta["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        meta.setdefault("blas", "unknown")
    return meta


# -- running a workload -----------------------------------------------------

def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  work_dir: Path = WORK, tiny: bool = False, min_reps: int = MIN_REPS) -> dict:
    settings = load_settings(tiny)
    wl = WORKLOADS[workload]
    run_dir = work_dir / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    started = time.monotonic()
    try:
        setups = []
        for i in range(wl.setups):
            t0 = time.perf_counter()
            ws = Workspace(run_dir / f"setup{i}", "setup", i, trace)
            ws.write_configs(wl.configs(settings, seed))
            ws.create_s = time.perf_counter() - t0
            wl.setup(ws)
            setups.append(ws)
        reps: list[Workspace] = []
        longest = 0.0
        # with tracing, repetitions alternate plain, traced, plain, ...; a traced
        # run needs at least one of each
        while len(reps) < max(min_reps, 1 + trace) or time.monotonic() - started + longest <= seconds:
            t0 = time.monotonic()
            ws = Workspace(run_dir / f"rep{len(reps)}", "timed", len(reps),
                           trace and len(reps) % 2 == 1)
            ws.copy_inputs(setups[0].dir, wl.inputs)
            wl.timed(ws)
            reps.append(ws)
            longest = max(longest, time.monotonic() - t0)
        return summarize(workload, seed, trace, setups, reps, settings, time.monotonic() - started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def compare_digests(workspaces) -> None:
    """Flag every stage whose outputs differ from the first workspace's."""
    first = workspaces[0].stages
    for ws in workspaces[1:]:
        for st, ref in zip(ws.stages, first):
            if st.digests != ref.digests:
                st.problems.append(f"outputs differ from {ws.phase}0 ({st.name})")
        if len(ws.stages) != len(first):
            ws.stages[-1].problems.append(f"stage count differs from {ws.phase}0")


def summarize(workload, seed, trace, setups, reps, settings, elapsed) -> dict:
    compare_digests(setups)
    compare_digests(reps)
    workspaces = [*setups, *reps]
    stages = [st for ws in workspaces for st in ws.stages]
    failed = [st for st in stages if st.problems]
    plain_reps = [ws for ws in reps if not ws.traced]
    traced = [ws for ws in workspaces if ws.traced]
    metrics = per_layer_metrics(traced, plain_reps) if trace else end_to_end_metrics(setups, reps)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "elapsed_s": elapsed,
        "workspaces": [
            {
                "phase": ws.phase,
                "id": ws.id,
                "traced": ws.traced,
                "wall_s": ws.wall_s,
                **({"setup_s": ws.setup_s} if ws.phase == "setup" else {}),
                "amfa_epochs": ws.amfa_epochs,
                "stages": [
                    {"name": st.name, "rc": st.rc, "wall_s": st.wall_s,
                     "maxrss_mb": st.maxrss_mb, "problems": st.problems}
                    for st in ws.stages
                ],
            }
            for ws in workspaces
        ],
        "accuracy": reps[0].accuracy,
        "digests": {k: v for ws in (setups[0], reps[0]) for st in ws.stages
                    for k, v in st.digests.items()},
        "spans": [{"stage": st.name, **st.trace}
                  for ws in traced for st in ws.stages if st.trace is not None],
        "layers": layer_table(traced) if trace else None,
        "layers_timed": layer_table([ws for ws in traced if ws.phase == "timed"]) if trace else None,
        "accounting": accounting(traced) if trace else None,
        "failures": [f"{ws.phase}{ws.id} {st.name}: {p}"
                     for ws in workspaces for st in ws.stages for p in st.problems],
        "metadata": metadata(seed, settings),
        "result": {
            "correct": not failed,
            "attempted": len(stages),
            "failed": len(failed),
            "error_rate": len(failed) / len(stages) if stages else 1.0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def print_summary(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}"
          f"  workspaces {len(record['workspaces'])}  elapsed {record['elapsed_s']:.1f} s")
    for ws in record["workspaces"]:
        stages = " ".join(f"{st['name']}={st['wall_s']:.2f}" for st in ws["stages"])
        total = ws.get("setup_s", ws["wall_s"])
        print(f"  {ws['phase']}{ws['id']}{' traced' if ws['traced'] else ''}: {total:.4f} s"
              f"{' | ' if stages else ''}{stages}")
    print(f"  {'algorithm':<16}{'rmse':>9}{'std':>9}{'max':>9}{'matched':>9}{'excluded':>9}")
    for row in record["accuracy"]:
        print(f"  {row['algorithm']:<16}{row['rmse']:>9.3f}{row['std']:>9.3f}{row['max']:>9.3f}"
              f"{row['matched']:>9d}{row['excluded']:>9d}")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    if record["accounting"]:
        for key, value in record["accounting"].items():
            print(f"  {key}: {value:.3f}")
    res = record["result"]
    print(f"  error_rate {res['error_rate']:.4f} ({res['failed']}/{res['attempted']} stages)")
    for name, m in res["metrics"].items():
        print(f"  {name:<34}{m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "climbloc" / "__init__.py").is_file():
        print(f"error: no climbloc sources under {SRC}; run from a climbloc checkout",
              file=sys.stderr)
        return 2

    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    if spans:
        with open(results / f"{name}.spans.json", "w") as fh:
            json.dump(spans, fh)
    with open(results / f"{name}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print_summary(record)
    res = record["result"]
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
