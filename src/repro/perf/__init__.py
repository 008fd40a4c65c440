"""Performance model: machine description, execution plans, breakdowns.

The *numerics* of every algorithm in this repository are measured for
real; the *performance* experiments (Figures 8 and 10) run on this model
because the substrate is NumPy, not hand-tuned AVX-512 VNNI assembly
(see DESIGN.md, "Reproduction strategy").
"""

from .cache_sim import CacheStats, SetAssociativeCache, gemm_access_trace, simulate_gemm_cache
from .breakdown import StageBreakdown, breakdown, figure10_breakdowns
from .machine import CASCADE_LAKE_8C, MachineModel, StageCost
from .measured import Measurement, measure
from .report import format_plan, layer_report
from .plans import (
    ALL_PLANS,
    ImplPlan,
    plan_fp32_direct,
    plan_fp32_wino,
    plan_int8_direct,
    plan_int8_upcast,
    plan_lowino,
    plan_onednn_wino,
    predict_layer_times,
)

__all__ = [
    "CacheStats",
    "SetAssociativeCache",
    "gemm_access_trace",
    "simulate_gemm_cache",
    "StageBreakdown",
    "breakdown",
    "figure10_breakdowns",
    "CASCADE_LAKE_8C",
    "MachineModel",
    "StageCost",
    "Measurement",
    "measure",
    "format_plan",
    "layer_report",
    "ALL_PLANS",
    "ImplPlan",
    "plan_fp32_direct",
    "plan_fp32_wino",
    "plan_int8_direct",
    "plan_int8_upcast",
    "plan_lowino",
    "plan_onednn_wino",
    "predict_layer_times",
]
