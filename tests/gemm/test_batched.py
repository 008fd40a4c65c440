"""Batched blocked GEMM with Eq. 9 compensation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gemm import (
    BlockingParams,
    GemmWorkload,
    batched_gemm_blocked,
    compensation_term,
    gemm_workload,
)
from repro.layout import pack_transformed_filters, pack_transformed_inputs

from tests.rngutil import derive_rng



def _run(t, n, c, k, seed=0, params=None):
    rng = derive_rng(t, n, c, k, seed)
    v = rng.integers(-128, 128, (t, n, c)).astype(np.int8)
    u = rng.integers(-128, 128, (t, c, k)).astype(np.int8)
    params = params or BlockingParams(n_blk=12, c_blk=8, k_blk=64,
                                      row_blk=6, col_blk=4)
    vbar = (v.astype(np.int16) + 128).astype(np.uint8)
    vp = pack_transformed_inputs(vbar, params.n_blk, params.c_blk)
    up = pack_transformed_filters(u, params.c_blk, params.k_blk)
    zbar = compensation_term(u)
    out = batched_gemm_blocked(vp, up, zbar, params, n, c, k)
    ref = np.einsum("tnc,tck->tnk", v.astype(np.int32), u.astype(np.int32))
    return out, ref


class TestCompensationTerm:
    def test_formula(self, rng):
        u = rng.integers(-128, 128, (2, 5, 3)).astype(np.int8)
        zbar = compensation_term(u)
        assert zbar.dtype == np.int32
        assert np.array_equal(zbar, -128 * u.astype(np.int64).sum(axis=1))

    def test_dtype_check(self, rng):
        with pytest.raises(ValueError):
            compensation_term(rng.integers(0, 5, (1, 2, 3)).astype(np.int16))


class TestBatchedGemm:
    def test_exact_vs_reference(self):
        out, ref = _run(t=16, n=50, c=20, k=70)
        assert np.array_equal(out, ref)

    @given(st.integers(1, 4), st.integers(1, 40), st.integers(1, 20),
           st.integers(1, 80))
    def test_exact_property(self, t, n, c, k):
        out, ref = _run(t, n, c, k, seed=t * 1000 + n + c + k)
        assert np.array_equal(out, ref)

    def test_extreme_values(self):
        """Saturated operands everywhere still produce the exact result."""
        t, n, c, k = 2, 13, 12, 64
        v = np.full((t, n, c), -128, dtype=np.int8)
        u = np.full((t, c, k), 127, dtype=np.int8)
        params = BlockingParams(n_blk=12, c_blk=8, k_blk=64, row_blk=6, col_blk=4)
        vbar = (v.astype(np.int16) + 128).astype(np.uint8)
        out = batched_gemm_blocked(
            pack_transformed_inputs(vbar, params.n_blk, params.c_blk),
            pack_transformed_filters(u, params.c_blk, params.k_blk),
            compensation_term(u), params, n, c, k,
        )
        assert np.all(out == -128 * 127 * c)

    def test_operand_mismatch(self, rng):
        params = BlockingParams(n_blk=12, c_blk=8, k_blk=64, row_blk=6, col_blk=4)
        v = rng.integers(0, 256, (1, 2, 16, 12, 8)).astype(np.uint8)
        u = rng.integers(-128, 128, (3, 1, 16, 2, 256)).astype(np.int8)
        with pytest.raises(ValueError):
            batched_gemm_blocked(v, u, np.zeros((16, 64), np.int32), params, 12, 16, 64)


class TestWorkloadAccounting:
    def test_padded_dims(self):
        params = BlockingParams(n_blk=12, c_blk=8, k_blk=64, row_blk=6, col_blk=4)
        w = gemm_workload(t=16, n=50, c=20, k=70, params=params)
        assert (w.n_pad, w.c_pad, w.k_pad) == (60, 24, 128)

    def test_mac_and_instruction_counts(self):
        params = BlockingParams(n_blk=12, c_blk=8, k_blk=64, row_blk=6, col_blk=4)
        w = gemm_workload(t=1, n=12, c=8, k=64, params=params)
        assert w.macs == 12 * 8 * 64
        assert w.vpdpbusd_count == w.macs // 64
        # One broadcast per (row, quad-word, column group of 64).
        assert w.broadcast_count == 12 * 2 * 1
        assert w.nt_store_count == 12 * 64 // 16

    def test_bytes_accounting_positive(self):
        params = BlockingParams(n_blk=96, c_blk=256, k_blk=128, row_blk=6, col_blk=4)
        w = gemm_workload(t=36, n=3600, c=512, k=512, params=params)
        assert w.bytes_read > 0
        assert w.bytes_written == 36 * w.n_pad * w.k_pad * 4
