"""Batched tall-and-skinny INT8 GEMM substrate (Section 4.3)."""

from .batched import (
    GemmWorkload,
    batched_gemm_blocked,
    compensation_term,
    gemm_workload,
)
from .blocking import L2_ELEM_LIMIT, MAX_ACCUM_REGISTERS, BlockingParams, default_blocking
from .microkernel import (
    microkernel_simulated,
    microkernel_vectorized,
    pack_u_block,
    unpack_u_block,
)
from .reference import gemm_s8s8_reference, gemm_s16_reference, gemm_u8s8_reference

__all__ = [
    "GemmWorkload",
    "batched_gemm_blocked",
    "compensation_term",
    "gemm_workload",
    "L2_ELEM_LIMIT",
    "MAX_ACCUM_REGISTERS",
    "BlockingParams",
    "default_blocking",
    "microkernel_simulated",
    "microkernel_vectorized",
    "pack_u_block",
    "unpack_u_block",
    "gemm_s8s8_reference",
    "gemm_s16_reference",
    "gemm_u8s8_reference",
]
