"""Per-axis attention fusion of modality estimates, refined by a UKF."""

from .attention import (
    AXES,
    AXIS_MODALITIES,
    MODALITIES,
    DEFAULT_L,
    AttentionParams,
    FusedObservation,
    ReliabilityScores,
    attend,
    encode,
    fuse,
    fusion_ratios,
    init_attention_params,
    init_encoders,
)
from .pipeline import (
    FrameBatch,
    FusionFrame,
    amfa_pipeline,
    collect_fusion_frames,
    ekf_pass,
    epoch_times,
    run_fusion,
    stack_frames,
)
from .serialize import fusion_from_dict, fusion_to_dict
from .train import fusion_loss, fusion_loss_and_grads, train_fusion
from .ukf import UkfState, ukf_step

__all__ = [
    "AXES",
    "AXIS_MODALITIES",
    "MODALITIES",
    "AttentionParams",
    "FrameBatch",
    "FusedObservation",
    "FusionFrame",
    "ReliabilityScores",
    "UkfState",
    "DEFAULT_L",
    "amfa_pipeline",
    "attend",
    "collect_fusion_frames",
    "ekf_pass",
    "encode",
    "epoch_times",
    "fuse",
    "fusion_from_dict",
    "fusion_loss",
    "fusion_loss_and_grads",
    "fusion_ratios",
    "fusion_to_dict",
    "init_attention_params",
    "init_encoders",
    "run_fusion",
    "stack_frames",
    "train_fusion",
    "ukf_step",
]
