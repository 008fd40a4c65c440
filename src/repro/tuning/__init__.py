"""Auto-tuning: blocking parameters, algorithm selection, wisdom."""

from .model_planner import LayerChoice, ModelPlan, plan_model
from .search import TuneResult, candidate_space, gemm_stage_cost, tune_gemm
from .selector import (
    FAMILIES,
    AlgorithmSelector,
    ConvGeometry,
    SelectionResult,
    build_engine_for,
    candidate_algorithms,
    conv_family,
    model_geometries,
    swap_preserves_calibration,
)
from .wisdom import KEY_NAMESPACE, SCHEMA_VERSION, WisdomFile, problem_key

__all__ = [
    "LayerChoice",
    "ModelPlan",
    "plan_model",
    "TuneResult",
    "candidate_space",
    "gemm_stage_cost",
    "tune_gemm",
    "AlgorithmSelector",
    "ConvGeometry",
    "SelectionResult",
    "build_engine_for",
    "candidate_algorithms",
    "conv_family",
    "FAMILIES",
    "model_geometries",
    "swap_preserves_calibration",
    "WisdomFile",
    "problem_key",
    "KEY_NAMESPACE",
    "SCHEMA_VERSION",
]
