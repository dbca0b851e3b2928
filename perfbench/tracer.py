"""Run one climbloc CLI stage with spans recorded at each layer boundary.

Usage: python perfbench/tracer.py SPANS_OUT SPAWN_TIME WORKSPACE -- CLI_ARGS...

The harness starts this script in place of `python -m climbloc`. It imports
the package, replaces the public functions named in LAYERS with timing
wrappers (in every climbloc module that holds a reference to them), calls
`climbloc.cli.main(CLI_ARGS)` and exits with its return code. Spans stay in
memory until the stage ends, then go to SPANS_OUT as one JSON document.
SPAWN_TIME is the harness's `time.monotonic()` just before it started this
process; CLOCK_MONOTONIC is system-wide on Linux, so `import_s` is the time
from process start to the call of `main`. WORKSPACE names the set-up or
repetition the stage belongs to and is copied into the document.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute, span name); a dotted attribute names a method.
LAYERS = (
    ("climbloc.cli.records", "read_scenario", "records.read_scenario"),
    ("climbloc.cli.records", "write_scenario", "records.write_scenario"),
    ("climbloc.cli.records", "write_trajectory", "records.write_trajectory"),
    ("climbloc.cli.commands", "cmd_report", "metrics.report"),
    ("climbloc.sim", "simulate_scenario", "sim.simulate"),
    ("climbloc.solvers.ins", "GpsInsEkf.propagate", "ins.propagate"),
    ("climbloc.solvers.ins", "GpsInsEkf.update", "ins.update"),
    ("climbloc.models", "uwb_fcnn_infer", "models.uwb_infer"),
    ("climbloc.models", "baro_fcnn_infer", "models.baro_infer"),
    ("climbloc.models", "train_uwb_model", "models.train_uwb"),
    ("climbloc.models", "train_baro_model", "models.train_baro"),
    ("climbloc.nnet", "train", "nnet.train"),
    ("climbloc.fusion.pipeline", "collect_fusion_frames", "fusion.collect_frames"),
    ("climbloc.fusion.pipeline", "run_fusion", "fusion.run_fusion"),
    ("climbloc.fusion.attention", "encode", "attention.encode"),
    ("climbloc.fusion.attention", "attention_logits", "attention.logits"),
    ("climbloc.fusion.attention", "fuse", "attention.fuse"),
    ("climbloc.fusion.ukf", "ukf_step", "ukf.step"),
    ("climbloc.fusion.train", "train_fusion", "train.fit"),
    ("climbloc.fusion.train", "fusion_loss_and_grads", "train.grad"),
    ("climbloc.fusion.train", "_mean_loss", "train.eval_loss"),
)


class Spans:
    """In-memory span store: one [name id, start, end, parent index] row per call."""

    def __init__(self):
        self.names: list[str] = []
        self.rows: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        rows, stack, clock = self.rows, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [nid, clock(), 0.0, stack[-1]]
            stack.append(len(rows))
            rows.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced


def _count_frames(spans, args, frames):
    spans.count("fusion.frames", len(frames))
    spans.count("fusion.fusible", sum(1 for f in frames if f.fusible()))


def _count_fallbacks(spans, args, result):
    _, observations = result
    spans.count("fusion.fallback_epochs", sum(1 for obs in observations if obs is None))


def _count_input_bytes(spans, args, result):
    from climbloc.cli.records import ANCHOR_FILE, SCENARIO_FILES

    directory = args[0]
    for filename in (*SCENARIO_FILES.values(), ANCHOR_FILE):
        spans.count("records.input_bytes", os.path.getsize(os.path.join(directory, filename)))


def _count_history(key, index):
    def after(spans, args, result):
        spans.count(key, len(result[index]))

    return after


AFTER = {
    "fusion.collect_frames": _count_frames,
    "fusion.run_fusion": _count_fallbacks,
    "records.read_scenario": _count_input_bytes,
    "nnet.train": _count_history("nnet.train.epochs", 1),
    "train.fit": _count_history("train.epochs", 2),
}


def install(spans: Spans) -> list[str]:
    """Wrap every layer in LAYERS; returns the layers that could not be found."""
    import importlib

    missing = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "climbloc" and m]
    for module_name, attr, span_name in LAYERS:
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(span_name)
            continue
        wrapper = spans.wrap(span_name, original, AFTER.get(span_name))
        if path:
            setattr(owner, leaf, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return missing


def main(argv) -> int:
    out_path, spawn, workspace, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT SPAWN_TIME WORKSPACE -- CLI_ARGS...")
    import climbloc.cli

    spans = Spans()
    missing = install(spans)
    started = time.monotonic()
    t0 = time.perf_counter()
    try:
        rc = climbloc.cli.main(cli_args)
    finally:
        doc = {
            "workspace": workspace,
            "import_s": started - float(spawn),
            "main_s": time.perf_counter() - t0,
            "missing_layers": missing,
            "names": spans.names,
            "rows": spans.rows,
            "counters": spans.counters,
        }
        with open(out_path, "w") as fh:
            json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
