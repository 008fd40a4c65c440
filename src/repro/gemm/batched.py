"""Batched tall-and-skinny INT8 GEMM with compensation (Section 4.3).

The Winograd channel reduction becomes ``T = alpha^2`` independent
GEMMs ``Z_t = V_t @ U_t`` with ``V_t (N x C)`` tall and skinny
(``N`` = tiles, usually >> ``C, K``).  This module executes all ``T``
products over the blocked Table 1 layouts with the Eq. 9 compensation:

    Z = Vbar @ U + Zbar,   Vbar = V + 128,   Zbar = -128 * colsum_C(U)

so the unsigned-operand requirement of ``vpdpbusd`` never changes the
result.  ``Zbar`` is computed offline with the filter transform.

The execution path loops over cache blocks (N_blk, C_blk, K_blk) exactly
as the real kernel would, accumulating each ``(N_blk, K_blk)`` buffer
across the C dimension before it is "non-temporally stored" to the
output; arithmetic inside a block is a single int32 matmul, which the
tests prove bit-identical to the instruction-level simulation.  It runs
serially, as the Figure 7 reference: the runtime's integer GEMMs are
:mod:`repro.native`'s, which split each call over the host's cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..layout import PHI, SIGMA, ceil_div
from .blocking import BlockingParams
from .microkernel import unpack_u_block

__all__ = [
    "compensation_term",
    "batched_gemm_blocked",
    "GemmWorkload",
    "gemm_workload",
]


def compensation_term(u: np.ndarray) -> np.ndarray:
    """``Zbar = -128 * sum_C U`` for a ``(T, C, K)`` int8 operand -> (T, K) int32.

    Performed in the (offline) filter-transformation stage in the real
    system (Section 4.3.3).
    """
    if u.dtype != np.int8:
        raise ValueError(f"compensation expects int8 U, got {u.dtype}")
    return (-128 * u.astype(np.int64).sum(axis=1)).astype(np.int32)


def _check_operands(
    v_packed: np.ndarray, u_packed: np.ndarray, params: BlockingParams
) -> None:
    params.validate()
    nb, cb, t, n_blk, c_blk = v_packed.shape
    cb2, kb, t2, c_sub, k_phi = u_packed.shape
    if (cb, t) != (cb2, t2):
        raise ValueError(
            f"operand mismatch: V blocks {(nb, cb, t)} vs U blocks {(cb2, kb, t2)}"
        )
    if (n_blk, c_blk) != (params.n_blk, params.c_blk) or (
        c_sub,
        k_phi,
    ) != (params.c_blk // PHI, params.k_blk * PHI):
        raise ValueError("packed shapes do not match blocking parameters")
    if v_packed.dtype != np.uint8 or u_packed.dtype != np.int8:
        raise ValueError(
            f"expected uint8 V / int8 U, got {v_packed.dtype} / {u_packed.dtype}"
        )


def batched_gemm_blocked(
    v_packed: np.ndarray,
    u_packed: np.ndarray,
    zbar: np.ndarray,
    params: BlockingParams,
    n: int,
    c: int,
    k: int,
) -> np.ndarray:
    """Execute all ``T`` blocked GEMMs serially, as the Figure 7 loop nest
    (the runtime's GEMMs run in :mod:`repro.native`).

    Parameters
    ----------
    v_packed:
        ``(nb, cb, T, N_blk, C_blk)`` uint8 (Table 1 transformed-inputs
        layout; +128 bias already applied by the input transform).
    u_packed:
        ``(cb, kb, T, C_blk/phi, K_blk*phi)`` int8 (Table 1
        transformed-filters layout).
    zbar:
        ``(T, K)`` int32 compensation term from :func:`compensation_term`
        (padded K entries may be absent; they are treated as zero).
    params:
        Blocking parameters; must match the packed shapes.
    n, c, k:
        Logical (unpadded) GEMM dimensions.

    Returns
    -------
    ``(T, N, K)`` int32, compensation applied (i.e. the signed product
    ``V @ U``), padding cropped.
    """
    _check_operands(v_packed, u_packed, params)
    nb, cb, t, n_blk, _ = v_packed.shape
    kb = u_packed.shape[1]
    k_blk = params.k_blk
    out = np.empty((t, nb * n_blk, kb * k_blk), dtype=np.int32)
    # One task per (N_blk, K_blk) output block over the row-major
    # (T, kb, nb) grid.
    u_cache_key = None
    u_cols = None
    for task in range(t * kb * nb):
        ti, rem = divmod(task, kb * nb)
        kbi, nbi = divmod(rem, nb)
        if u_cache_key != (ti, kbi):
            # Pre-unpack this (t, kb) column panel once; consecutive
            # tasks share it (contiguous assignment = cache reuse,
            # the property Section 4.4 calls out).
            u_cols = [
                unpack_u_block(u_packed[cbi, kbi, ti]).astype(np.int32)
                for cbi in range(cb)
            ]
            u_cache_key = (ti, kbi)
        acc = np.zeros((n_blk, k_blk), dtype=np.int32)  # the L2 z-buffer
        for cbi in range(cb):
            acc += v_packed[nbi, cbi, ti].astype(np.int32) @ u_cols[cbi]
        out[ti, nbi * n_blk : (nbi + 1) * n_blk,
            kbi * k_blk : (kbi + 1) * k_blk] = acc
    out = out[:, :n, :k]
    # Compensation: remove the +128 bias contribution (broadcast over N).
    out = out + zbar[:, None, :k]
    return out


@dataclass(frozen=True)
class GemmWorkload:
    """Static operation/traffic accounting for one batched GEMM.

    All counts follow the Figure 7 loop nest literally so the performance
    model charges exactly what the kernel does.  Byte counts assume the
    Table 1 layouts (1-byte operands, 4-byte accumulators).
    """

    t: int
    n: int
    c: int
    k: int
    params: BlockingParams

    @property
    def n_pad(self) -> int:
        return ceil_div(self.n, self.params.n_blk) * self.params.n_blk

    @property
    def c_pad(self) -> int:
        return ceil_div(self.c, self.params.c_blk) * self.params.c_blk

    @property
    def k_pad(self) -> int:
        return ceil_div(self.k, self.params.k_blk) * self.params.k_blk

    @property
    def macs(self) -> int:
        """8-bit multiply-accumulates across all T GEMMs (padded sizes)."""
        return self.t * self.n_pad * self.c_pad * self.k_pad

    @property
    def vpdpbusd_count(self) -> int:
        """One instruction covers 16 lanes x 4 pairs = 64 MACs."""
        return self.macs // (SIGMA * PHI)

    @property
    def broadcast_count(self) -> int:
        """One v broadcast per (row, quad-channel word, column group)."""
        col_group = self.params.col_blk * SIGMA
        return self.t * self.n_pad * (self.c_pad // PHI) * (self.k_pad // col_group)

    @property
    def u_load_count(self) -> int:
        """u vector loads as written in Figure 7 (inside the r1 loop)."""
        return self.vpdpbusd_count

    @property
    def nt_store_count(self) -> int:
        """Final 64-byte non-temporal stores of the result."""
        return self.t * self.n_pad * self.k_pad // SIGMA

    @property
    def bytes_read(self) -> int:
        """Unique bytes of V and U read from memory (per C-block pass the
        V panel is re-read for each K block; U is re-read for each N
        block but is expected to stay L2-resident, so only its first
        touch counts as DRAM traffic)."""
        k_passes = self.k_pad // self.params.k_blk
        v_bytes = self.t * self.n_pad * self.c_pad * k_passes
        u_bytes = self.t * self.c_pad * self.k_pad
        return v_bytes + u_bytes

    @property
    def bytes_written(self) -> int:
        """int32 result written once via non-temporal stores."""
        return self.t * self.n_pad * self.k_pad * 4


def gemm_workload(t: int, n: int, c: int, k: int, params: BlockingParams) -> GemmWorkload:
    params.validate()
    return GemmWorkload(t=t, n=n, c=c, k=k, params=params)
