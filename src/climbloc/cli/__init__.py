"""File-based pipeline: simulate, train, run, report."""

import os

# One BLAS thread unless the environment says otherwise; this must run before
# numpy is first imported. On a 2-vCPU VM, OpenBLAS wakes a second thread for
# any gemm above about 262k multiply-adds, and the wake-up costs milliseconds:
# one 391-row UWB FCNN forward after a 50 ms pause took 16.5-21.9 ms by
# default and 0.97-1.23 ms single-threaded, and the UWB trainer's per-epoch
# loss evaluation took 1.12-1.21 s in 2 of 16 default runs against
# 0.08-0.13 s in all 14 single-threaded ones. Outputs are byte-identical.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
    "write_manifest",
    "write_scenario",
    "write_trajectory",
]
