"""The native thread team: split calls against the serial references.

Every call below is large enough to split (``team_stats`` shows it did,
wherever the affinity mask holds more than one CPU), at shapes whose
chunk edges fall mid-structure: (image, tile row) counts that the chunk
count does not divide, T = 16 and 36, a one-plane GEMM whose M is no
multiple of the 6-row micro-kernel, one image, and an im2col whose rows
have no zero tail, so its 4-byte copies touch the next row.  The
references are serial by construction, so equality here is the claim
that partitioning never changes a byte.
"""

import hashlib
import os
import select
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.conv._tileops import prepare_input_tiles, tiles_to_gemm_operand
from repro.conv.im2col import im2col, pad_images
from repro.conv.upcast import integer_transform_matrices
from repro.runtime import ExecutionEngine, PlanCache
from repro.runtime.backends import _round_clip
from repro.winograd import transform_2d, winograd_algorithm
from tests.native.test_kernels import _exact, _run
from tests.native.test_transforms import _input_oracle, _output_oracle

VARIANTS = native.VARIANTS
THREADS = native.team_stats()["threads"]
SRC = str(Path(native.__file__).resolve().parents[2])


def _split(fn, *args, **kwargs):
    """``fn``'s result, asserting that it ran on the team when it can."""
    before = native.team_stats()["split_calls"]
    out = fn(*args, **kwargs)
    split = native.team_stats()["split_calls"] - before
    assert split >= 1 if THREADS > 1 else split == 0
    return out


#: (B, C, H, W, pad, m): 30 and 57 tile rows over 3 images, and one
#: image of 10 tile rows -- none a multiple of the chunk count 4 * omega
#: on a 2- or 4-CPU host -- with channels off the 8-lane block.
GEOMETRIES = [(3, 20, 37, 23, 1, 4), (3, 20, 37, 23, 1, 2), (1, 20, 40, 40, 1, 4)]
GEOMETRY_IDS = ["b3_rows30", "b3_rows57", "b1_rows10"]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=GEOMETRY_IDS)
class TestSplitTransforms:
    def test_input_float64(self, variant, geometry, make_rng):
        b, c, h, w, pad, m = geometry
        alg = winograd_algorithm(m, 3)
        x = make_rng().standard_normal((b, c, h, w)) * 10.0
        want, _ = _input_oracle(alg, x, pad)
        kernels = native._bind(variant)
        got = _split(kernels.winograd_input, x, alg.bt, m, pad, np.empty_like(want))
        np.testing.assert_array_equal(got, want)

    def test_input_u8_codes(self, variant, geometry, make_rng):
        b, c, h, w, pad, m = geometry
        alg = winograd_algorithm(m, 3)
        rng = make_rng()
        x = rng.standard_normal((b, c, h, w))
        v, _ = _input_oracle(alg, x, pad)
        scale = rng.uniform(1.0, 60.0, size=(alg.alpha**2, 1, 1))
        want = (_round_clip(v, scale, -128, 127, out=np.empty_like(v)) + 128).astype(np.uint8)
        got = np.empty(v.shape[:2] + (native.padded_k(c),), dtype=np.uint8)
        _split(native._bind(variant).winograd_input, x, alg.bt, m, pad, got, scale=scale)
        np.testing.assert_array_equal(got[..., :c], want)

    def test_input_s16_exact(self, variant, geometry, make_rng):
        b, c, h, w, pad, m = geometry
        alg = winograd_algorithm(m, 3)
        bt = integer_transform_matrices(alg)[0].astype(np.float64)
        x = make_rng().integers(-4, 5, size=(b, c, h, w)).astype(np.float64)
        tiles, _ = prepare_input_tiles(alg, pad_images(x, pad))
        want = tiles_to_gemm_operand(transform_2d(bt, tiles))
        got = np.empty(want.shape[:2] + (native.padded_k(c),), dtype=np.int16)
        _split(native._bind(variant).winograd_input, x, bt, m, pad, got)
        np.testing.assert_array_equal(got[..., :c], want)

    def test_output_dequantizes_s32(self, variant, geometry, make_rng):
        b, c, h, w, pad, m = geometry
        alg = winograd_algorithm(m, 3)
        _, grid = _input_oracle(alg, np.zeros((b, c, h, w)), pad)
        rng = make_rng()
        t, k = alg.alpha**2, 19
        z = rng.integers(-(2**31), 2**31, size=(t, b * grid.tiles_per_image, k)).astype(np.int32)
        denom = rng.uniform(0.5, 3000.0, size=(t, 1, k))
        want = _output_oracle(alg, z.astype(np.float64) / denom, b, grid)
        got = np.empty((b, k, grid.out_h, grid.out_w))
        _split(native._bind(variant).winograd_output, z, alg.at, got,
               np.ascontiguousarray(denom[:, 0]))
        np.testing.assert_array_equal(got, want)

    def test_output_float64(self, variant, geometry, make_rng):
        b, c, h, w, pad, m = geometry
        alg = winograd_algorithm(m, 3)
        _, grid = _input_oracle(alg, np.zeros((b, c, h, w)), pad)
        z = make_rng().standard_normal((alg.alpha**2, b * grid.tiles_per_image, 19))
        want = _output_oracle(alg, z, b, grid)
        got = np.empty((b, 19, grid.out_h, grid.out_w))
        _split(native._bind(variant).winograd_output, z, alg.at, got)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("variant", VARIANTS)
class TestSplitCounts:
    """NaN and INT16-overflow counts are summed over the chunks, so the
    errors carry the serial counts."""

    def test_nan_codes_counted_over_chunks(self, variant, make_rng):
        alg = winograd_algorithm(4, 3)
        x = make_rng().standard_normal((3, 20, 37, 23))
        x[0, 3, 1, 1] = x[1, 7, 20, 10] = x[2, 19, 36, 22] = np.nan  # first, mid, last rows
        with np.errstate(invalid="ignore"):
            v, _ = _input_oracle(alg, x, 1)
        out = np.empty(v.shape[:2] + (native.padded_k(20),), dtype=np.uint8)
        with pytest.raises(ValueError, match=f"^{np.isnan(v).sum()} NaN"):
            native._bind(variant).winograd_input(x, alg.bt, 4, 1, out, scale=np.ones(36))

    def test_s16_overflow_counted_over_chunks(self, variant):
        alg = winograd_algorithm(2, 3)
        x = np.zeros((3, 20, 37, 23))
        # V[0][0] = d00 - d02 - d20 + d22 of a tile's first corner.
        x[0, 0, 0, 0] = x[1, 5, 18, 10] = x[2, 19, 34, 20] = 40000.0
        out = np.empty((16, 3 * 19 * 12, native.padded_k(20)), dtype=np.int16)
        v, _ = _input_oracle(alg, x, 1)
        with pytest.raises(OverflowError, match=rf"\({(np.abs(v) > 32767).sum()} above"):
            native._bind(variant).winograd_input(x, alg.bt, 2, 1, out)


#: (T, M, K, N): T = 16 and 36 split over planes; T = 1 over blocks of
#: rows, M = 607 = 6 * 101 + 1 ending mid-micro-kernel.
GEMM_SHAPES = [(16, 200, 70, 40), (36, 200, 70, 40), (1, 607, 300, 37)]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", GEMM_SHAPES, ids=lambda s: "t%d_m%d_k%d_n%d" % s)
class TestSplitGemms:
    def test_u8s8(self, variant, shape, make_rng):
        t, m, k, n = shape
        rng = make_rng()
        a = rng.integers(0, 256, (t, m, k)).astype(np.uint8)
        b = rng.integers(-128, 128, (t, k, n)).astype(np.int8)
        init = rng.integers(-(2**31), 2**31, (t, n)).astype(np.int32)
        np.testing.assert_array_equal(_split(_run, variant, a, b, init), _exact(a, b, init))

    def test_s16s16(self, variant, shape, make_rng):
        t, m, k, n = shape
        rng = make_rng()
        a = rng.integers(-(2**15), 2**15, (t, m, k)).astype(np.int16)
        b = rng.integers(-(2**15), 2**15, (t, k, n)).astype(np.int16)
        init = rng.integers(-(2**31), 2**31, (t, n)).astype(np.int32)
        np.testing.assert_array_equal(_split(_run, variant, a, b, init), _exact(a, b, init))


class TestSplitOperandPasses:
    """``int8_direct``'s u8 operand, split over images."""

    @staticmethod
    def _codes(x, scale, pad):
        codes = _round_clip(x, scale, -128, 127, out=np.empty_like(x))
        codes = np.pad(codes, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        return (codes + 128).astype(np.uint8)

    def test_quantize_pad(self, make_rng):
        x = make_rng().standard_normal((5, 16, 30, 30)) * 40.0
        out = np.empty((5, 16, 32, 32), dtype=np.uint8)
        _split(native.quantize_pad_u8, x, 1.0, -128, 127, 1, out)
        np.testing.assert_array_equal(out, self._codes(x, 1.0, 1))

    def test_quantize_pad_channel_last(self, make_rng):
        x = make_rng().standard_normal((5, 30, 30, 16)).transpose(0, 3, 1, 2)
        out = np.empty((5, 16, 32, 32), dtype=np.uint8)
        _split(native.quantize_pad_u8, x, 33.3, -128, 127, 1, out)
        np.testing.assert_array_equal(out, self._codes(x, 33.3, 1))

    def test_quantize_pad_nans_counted_over_chunks(self):
        x = np.zeros((5, 16, 30, 30))
        x[0, 0, 0, 0] = x[2, 5, 7, 9] = x[4, 15, 29, 29] = np.nan
        with pytest.raises(ValueError, match="^3 NaN"):
            native.quantize_pad_u8(x, 1.0, -128, 127, 1, np.empty((5, 16, 32, 32), np.uint8))

    def test_one_image_runs_inline(self, make_rng):
        """One image cannot split across images; it runs whole."""
        x = make_rng().standard_normal((1, 64, 40, 40))
        out = np.empty((1, 64, 42, 42), dtype=np.uint8)
        before = native.team_stats()
        native.quantize_pad_u8(x, 20.0, -128, 127, 1, out)
        after = native.team_stats()
        assert after["split_calls"] == before["split_calls"]
        np.testing.assert_array_equal(out, self._codes(x, 20.0, 1))

    @pytest.mark.parametrize("c,stride,hw", [(4, 1, 32), (16, 1, 32), (5, 1, 32), (16, 2, 40)])
    def test_im2col(self, c, stride, hw, make_rng):
        """C = 4 and 16 give rows of exactly ``Kp`` bytes: a row's last
        4-byte copy would land on the next row, which may be another
        chunk's."""
        x = make_rng().integers(0, 256, (5, c, hw, hw + 1)).astype(np.uint8)
        ref = im2col(x, 3, stride=stride)
        out = np.full((ref.shape[0], native.padded_k(ref.shape[1])), 77, dtype=np.uint8)
        _split(native.im2col_u8, x, 3, stride, out)
        np.testing.assert_array_equal(out[:, : ref.shape[1]], ref)
        assert not out[:, ref.shape[1]:].any()


def test_split_sized_calls_run_inline_with_one_cpu():
    """A process whose affinity holds one CPU sizes a team of one: the
    same split-sized calls run inline and give the same bytes."""
    probe = f"""
import os
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from repro import native
from tests.native.test_team import _workload
digest = _workload()
print(digest, *native.team_stats().values())
"""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no sched_setaffinity on this platform")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, str(Path(SRC).parent)]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digest, threads, split, inline, chunks, *_ = proc.stdout.split()
    assert (int(threads), int(split), int(chunks)) == (1, 0, 0)
    assert int(inline) > 0
    assert digest == _workload()


def _workload() -> str:
    """A digest of split-sized calls of every entry point."""
    rng = np.random.default_rng(2026)
    alg = winograd_algorithm(4, 3)
    x = rng.standard_normal((3, 20, 37, 23))
    v = native.winograd_input(x, alg.bt, 4, 1, np.empty((36, 180, 20)))
    y = native.winograd_output(v, alg.at, np.empty((3, 20, 37, 23)))
    a = rng.integers(0, 256, (36, 200, 72)).astype(np.uint8)
    b = native.pack_b(rng.integers(-128, 128, (36, 72, 40)).astype(np.int8))
    z = native.gemm_u8s8(a, b, np.zeros((36, 40), np.int32), np.empty((36, 200, 40), np.int32))
    q = native.quantize_pad_u8(x, 9.0, -128, 127, 1, np.empty((3, 20, 39, 25), np.uint8))
    cols = native.im2col_u8(q, 3, 1, np.empty((3 * 37 * 23, 180), np.uint8))
    return hashlib.sha256(b"".join(o.tobytes() for o in (v, y, z, q, cols))).hexdigest()


@pytest.mark.concurrency
def test_forked_child_completes_split_calls():
    """The owner lock is held across fork() and reset in the child: a
    child forked after the team ran finishes split-sized calls alone."""
    if not hasattr(os, "fork"):
        pytest.skip("no fork() on this platform")
    want = _split(_workload)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report and leave without running any cleanup
        code = 1
        try:
            os.close(read)
            stats = native.team_stats()
            os.write(write, f"{_workload()} {stats['threads']}".encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    reply = None
    try:
        if select.select([read], [], [], 120.0)[0]:
            reply = os.read(read, 4096).decode().split()
    finally:
        os.close(read)
        if not reply:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert reply, "the forked child did not finish its calls within 120 s"
    assert reply[0] == want
    assert int(reply[1]) == 1  # the child's team has no helpers


@pytest.mark.concurrency
def test_stats_add_up_after_concurrent_sessions(make_rng):
    """More threads than CPUs execute one plan at once, switching often:
    one owns the team at a time, the others run their calls inline, and
    every call and chunk is counted once."""
    rng = make_rng()
    engine = ExecutionEngine(cache=PlanCache(capacity=4))
    plan = engine.plan_for(rng.standard_normal((32, 32, 3, 3)) * 0.1, "lowino", m=4, padding=1)
    workers = THREADS + 2
    xs = [rng.standard_normal((8, 32, 24, 24)) for _ in range(workers)]
    serial = [engine.execute(plan, x) for x in xs]
    before = native.team_stats()
    barrier = threading.Barrier(workers, timeout=60)
    got = [None] * workers

    def run(i):
        barrier.wait()
        for _ in range(10):
            got[i] = engine.execute(plan, xs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    after = native.team_stats()
    for want, have in zip(serial, got):
        np.testing.assert_array_equal(have, want)
    assert after["chunks"] == after["chunks_caller"] + after["chunks_helpers"]
    calls = sum(after[k] - before[k] for k in ("split_calls", "inline_calls"))
    assert calls == workers * 10 * 3  # input pass, GEMM, output pass per execute
    if THREADS > 1:
        assert after["split_calls"] > before["split_calls"]
