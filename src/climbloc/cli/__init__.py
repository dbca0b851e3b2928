"""File-based pipeline: simulate, train, run, report."""

from .commands import (
    ALGORITHMS,
    MODEL_FILES,
    build_parser,
    cmd_report,
    cmd_run,
    cmd_simulate,
    cmd_train,
    main,
    run_algorithm,
)
from .config import DEFAULT_CONFIG, config_digest, load_config
from .records import (
    ANCHOR_FILE,
    MANIFEST_FILE,
    SCENARIO_FILES,
    read_manifest,
    read_scenario,
    read_table,
    read_trajectory,
    write_jsonl,
    write_manifest,
    write_scenario,
    write_trajectory,
)

__all__ = [
    "ALGORITHMS",
    "ANCHOR_FILE",
    "DEFAULT_CONFIG",
    "MANIFEST_FILE",
    "MODEL_FILES",
    "SCENARIO_FILES",
    "build_parser",
    "cmd_report",
    "cmd_run",
    "cmd_simulate",
    "cmd_train",
    "config_digest",
    "load_config",
    "main",
    "read_manifest",
    "read_scenario",
    "read_table",
    "read_trajectory",
    "run_algorithm",
    "write_jsonl",
    "write_manifest",
    "write_scenario",
    "write_trajectory",
]
