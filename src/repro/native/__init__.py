"""The compiled kernels of the fused convolution pipelines.

:mod:`repro.runtime.backends` runs every quantized GEMM here, the
``int8_direct`` pipeline builds its u8 operand here, and the four
Winograd pipelines run both transform passes here: the input pass
gathers tiles straight from the image and writes ``B^T d B`` as the
GEMM operand (float64, u8 codes or s16), the output pass dequantizes,
applies ``A^T Z A`` and assembles the output.  ``kernels.c`` documents
the kernels, the packed layouts, why each integer result is the exact
sum reduced modulo 2**32, and why each transform is bitwise
:func:`repro.winograd.transform_2d`.

The source is compiled once per machine with the system ``cc`` into
``${XDG_CACHE_HOME:-~/.cache}/repro/native/``, keyed by the SHA-256 of
the source, the flags and ``cc --version``; concurrent importers (test
workers, spawned serving processes) wait on a file lock and load the
one library.  A failed build raises :class:`ImportError` carrying the
command and the compiler's stderr.

``VARIANT`` names the kernel variant this process runs -- the first of
``VARIANTS``, the variants this CPU supports, best first
(``avx512_vnni``, ``avx2`` where the CPU also has FMA, ``c``).  Its
GEMMs and transform passes come as one set; nothing selects another.

Every kernel splits its call over the cores in this process's affinity
mask (Section 4.4): a thread team inside the library runs contiguous
chunks of (image, tile row), T planes, GEMM rows or images, each
writing its own outputs with the serial arithmetic, so the bytes never
depend on the split.  Calls too small to pay for it, and calls made
while another thread's call owns the team, run inline.  Nothing sets
the team's size; :func:`team_stats` counts its work.
"""

from __future__ import annotations

import ctypes
import fcntl
import hashlib
import os
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = [
    "VARIANT",
    "VARIANTS",
    "build",
    "gemm_s16s16",
    "gemm_u8s8",
    "im2col_u8",
    "pack_b",
    "padded_k",
    "quantize_pad_u8",
    "team_stats",
    "winograd_input",
    "winograd_output",
]

SOURCE = Path(__file__).with_name("kernels.c")
FLAGS = ("-O3", "-fPIC", "-shared", "-pthread", "-ffp-contract=off")
#: Linked after the source: the portable transforms call ``fma()``.
LIBS = ("-lm",)
#: Output columns per packed block (one 512-bit register of s32 lanes).
LANES = 16


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "native"


def _run(cmd) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise ImportError(f"cannot run {' '.join(cmd)}: {exc}") from exc


def build(source: Path = SOURCE) -> Path:
    """Compile ``source`` into the cache (once) and return the library path."""
    version = _run(["cc", "--version"]).stdout
    code = source.read_bytes()
    flags = "\0".join(FLAGS + LIBS).encode()
    key = hashlib.sha256(code + flags + version.encode()).hexdigest()
    cache = _cache_dir()
    lib = cache / f"kernels-{key[:24]}.so"
    if lib.exists():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    with open(cache / f"kernels-{key[:24]}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if lib.exists():  # another process built it while we waited
            return lib
        tmp = cache / f"kernels-{key[:24]}.{os.getpid()}.tmp"
        cmd = ["cc", *FLAGS, "-o", str(tmp), str(source), *LIBS]
        proc = _run(cmd)
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise ImportError(
                f"building the native kernels failed: {' '.join(cmd)}\n{proc.stderr}"
            )
        os.replace(tmp, lib)
    return lib


_P = ctypes.c_void_p
_I = ctypes.c_int64


def _load(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    lib.repro_native_variants.restype = ctypes.c_char_p
    lib.repro_native_variants.argtypes = []
    for name in ("u8s8", "s16s16"):
        for variant in ("avx512_vnni", "avx2", "c"):
            fn = getattr(lib, f"repro_gemm_{name}_{variant}", None)
            if fn is not None:
                fn.restype = None
                fn.argtypes = [_P, _P, _P, _P, _I, _I, _I, _I]
    lib.repro_quantize_pad_u8.restype = ctypes.c_int64
    lib.repro_quantize_pad_u8.argtypes = [
        _P, _I, _I, _I, _I, _I, _I, _I, _I,
        ctypes.c_double, ctypes.c_double, ctypes.c_double, _I, _P,
    ]
    lib.repro_im2col_u8.restype = None
    lib.repro_im2col_u8.argtypes = [_P, _I, _I, _I, _I, _I, _I, _P, _I]
    _D = ctypes.c_double
    for variant in ("avx512_vnni", "avx2", "c"):
        fn = getattr(lib, f"repro_winograd_in_{variant}", None)
        if fn is not None:
            fn.restype = None
            fn.argtypes = [_P, *[_I] * 11, _P, _I, _P, _I, _P, _D, _D, _P]
            fn = getattr(lib, f"repro_winograd_out_{variant}")
            fn.restype = None
            fn.argtypes = [_P, _I, _P, _I, _I, _I, _I, _I, _I, _P, _P]
    lib.repro_team_stats.restype = None
    lib.repro_team_stats.argtypes = [_P]
    return lib


LIB = _load(build())
VARIANTS = tuple(LIB.repro_native_variants().decode().split(","))
VARIANT = VARIANTS[0]


def padded_k(k: int) -> int:
    """The reduction length rounded up to the kernels' 4-element step."""
    return (k + 3) & ~3


def pack_b(b: np.ndarray) -> np.ndarray:
    """Pack a ``(T, K, N)`` int8 or int16 operand for the GEMMs.

    Layout ``(T, ceil(N / 16), Kp / P, 16, P)`` with ``P`` = 4 (int8) or
    2 (int16): one 64-byte row of 16 output columns per ``P`` reduction
    steps.  Padding rows and columns are zero, so the bytes of A past
    ``K`` never change a sum.
    """
    t, k, n = b.shape
    depth = {np.dtype(np.int8): 4, np.dtype(np.int16): 2}[b.dtype]
    kp, np_ = padded_k(k), -(-n // LANES) * LANES
    full = np.zeros((t, kp, np_), dtype=b.dtype)
    full[:, :k, :n] = b
    return np.ascontiguousarray(
        full.reshape(t, kp // depth, depth, np_ // LANES, LANES).transpose(0, 3, 1, 4, 2)
    )


def _gemm(fn, a: np.ndarray, b: np.ndarray, init: np.ndarray, out: np.ndarray) -> np.ndarray:
    t, m, kp = a.shape
    n = init.shape[1]
    if (
        init.shape[0] != t or out.shape != (t, m, n) or kp % 4
        or b.size * b.itemsize != t * -(-n // LANES) * LANES * kp * a.itemsize
        or init.dtype != np.int32 or out.dtype != np.int32
        or not (a.flags.c_contiguous and b.flags.c_contiguous
                and init.flags.c_contiguous and out.flags.c_contiguous)
    ):
        raise ValueError(
            f"gemm operands disagree: a {a.shape} b {b.shape} init {init.shape} out {out.shape}"
        )
    fn(a.ctypes.data, b.ctypes.data, init.ctypes.data, out.ctypes.data, t, m, n, kp)
    return out


def _bind(variant: str) -> SimpleNamespace:
    """The GEMMs and transform passes of ``variant`` (one of :data:`VARIANTS`)."""
    u8s8 = getattr(LIB, f"repro_gemm_u8s8_{variant}")
    s16s16 = getattr(LIB, f"repro_gemm_s16s16_{variant}")

    def gemm_u8s8(a, b, init, out):
        """``out[t] = init[t] + a[t] @ b[t]`` (s32, wrapping): ``a`` u8
        ``(T, M, Kp)``, ``b`` int8 from :func:`pack_b`, ``init`` s32
        ``(T, N)``, ``out`` s32 ``(T, M, N)``."""
        if a.dtype != np.uint8 or b.dtype != np.int8:
            raise ValueError(f"gemm_u8s8 takes uint8 x int8, got {a.dtype} x {b.dtype}")
        return _gemm(u8s8, a, b, init, out)

    def gemm_s16s16(a, b, init, out):
        """As :func:`gemm_u8s8` with int16 ``a`` and int16 packed ``b``."""
        if a.dtype != np.int16 or b.dtype != np.int16:
            raise ValueError(f"gemm_s16s16 takes int16 x int16, got {a.dtype} x {b.dtype}")
        return _gemm(s16s16, a, b, init, out)

    wt_in = getattr(LIB, f"repro_winograd_in_{variant}")
    wt_out = getattr(LIB, f"repro_winograd_out_{variant}")

    def winograd_input(x, bt, m, pad, out, scale=None, lo=-128, hi=127):
        """``B^T d B`` of every tile of the float64 NCHW ``x``, zero-padded
        by ``pad`` and out to the tile grid, into the GEMM operand ``out``:
        float64 ``(T, N, C)``, or ``(T, N, Cp)`` u8 codes
        ``clip(rint(V * scale[t]), lo, hi) + 128`` or int16 (exact), with
        ``N = B * tiles_h * tiles_w`` rows in (image, tile row, tile)
        order.  Bitwise :func:`repro.winograd.transform_2d` per tile.

        Raises :class:`ValueError` when a u8 or s16 code would be NaN,
        and :class:`OverflowError` when an s16 value exceeds 32767 in
        magnitude -- the reference's INT16 check.
        """
        return _input_pass(wt_in, x, bt, m, pad, out, scale, lo, hi)

    def winograd_output(z, at, out, denom=None):
        """``A^T Z A`` of every tile of the ``(T, N, K)`` accumulators
        ``z`` into the C-contiguous ``(B, K, oh, ow)`` float64 ``out``,
        the tile grid's overhang cropped.  int32 ``z`` is dequantized
        first as ``z / denom`` with the float64 ``(T, K)`` ``denom``.
        Bitwise :func:`repro.winograd.transform_2d` per tile."""
        return _output_pass(wt_out, z, at, out, denom)

    return SimpleNamespace(gemm_u8s8=gemm_u8s8, gemm_s16s16=gemm_s16s16,
                           winograd_input=winograd_input, winograd_output=winograd_output)


#: Largest tile (alpha) the transform passes take -- ``MAX_ALPHA`` in
#: ``kernels.c``, which sizes their stack blocks; the Cook-Toom
#: constructions of :mod:`repro.winograd` stop at 16 points.
MAX_ALPHA = 16
_OPERANDS = {np.dtype(np.float64): 0, np.dtype(np.uint8): 1, np.dtype(np.int16): 2}


def _tiles(size: int, pad: int, r: int, m: int) -> int:
    """Tiles along one axis of a padded input (``tile_grid``'s count)."""
    return -(-(size + 2 * pad - r + 1) // m)


def _input_pass(fn, x, bt, m, pad, out, scale, lo, hi):
    b, c, h, w = x.shape
    a = bt.shape[0]
    mode = _OPERANDS.get(out.dtype)
    r = a - m + 1
    if (x.dtype != np.float64 or bt.shape != (a, a) or bt.dtype != np.float64
            or not bt.flags.c_contiguous or mode is None or not out.flags.c_contiguous
            or not 1 <= m <= a <= MAX_ALPHA or pad < 0 or min(h, w) + 2 * pad < r
            or any(s % 8 for s in x.strides)):
        raise ValueError(f"winograd_input: x {x.dtype}{x.shape} bt {bt.shape} m={m} "
                         f"pad={pad} out {out.dtype}{out.shape}")
    n = b * _tiles(h, pad, r, m) * _tiles(w, pad, r, m)
    if out.shape[:2] != (a * a, n) or out.shape[2] < c or (mode == 0 and out.shape[2] != c):
        raise ValueError(f"winograd_input: out {out.shape} is not ({a * a}, {n}, {c})")
    if mode == 1:
        scale = np.ascontiguousarray(np.broadcast_to(np.asarray(scale, np.float64).ravel(),
                                                     (a * a,)))
        if not -128 <= lo <= hi <= 127:
            raise ValueError(f"winograd_input: u8 codes need -128 <= lo <= hi <= 127, "
                             f"got {lo}..{hi}")
    counts = np.zeros(2, dtype=np.int64)
    fn(x.ctypes.data, b, c, h, w, *[s // 8 for s in x.strides], pad, m, a,
       bt.ctypes.data, mode, out.ctypes.data, out.shape[2],
       None if mode != 1 else scale.ctypes.data, float(lo), float(hi), counts.ctypes.data)
    if counts[0]:
        raise ValueError(f"{counts[0]} NaN activation(s) reached a quantized convolution")
    if counts[1]:
        raise OverflowError(f"transformed inputs overflow INT16 ({counts[1]} above 32767)")
    return out


def _output_pass(fn, z, at, out, denom):
    m, a = at.shape
    t, n, k = z.shape
    b, k2, oh, ow = out.shape
    s32 = z.dtype == np.int32
    if (at.dtype != np.float64 or not at.flags.c_contiguous or not 1 <= m <= a <= MAX_ALPHA
            or t != a * a or k2 != k or n != b * -(-oh // m) * -(-ow // m)
            or z.dtype not in (np.int32, np.float64) or out.dtype != np.float64
            or not (z.flags.c_contiguous and out.flags.c_contiguous)
            or s32 != (denom is not None)
            or (s32 and (denom.dtype != np.float64 or denom.shape != (t, k)
                         or not denom.flags.c_contiguous))):
        raise ValueError(f"winograd_output: z {z.dtype}{z.shape} at {at.shape} "
                         f"out {out.dtype}{out.shape}")
    fn(z.ctypes.data, int(s32), None if denom is None else denom.ctypes.data,
       b, k, oh, ow, m, a, at.ctypes.data, out.ctypes.data)
    return out


_kernels = _bind(VARIANT)
gemm_u8s8 = _kernels.gemm_u8s8
gemm_s16s16 = _kernels.gemm_s16s16
winograd_input = _kernels.winograd_input
winograd_output = _kernels.winograd_output


def quantize_pad_u8(x: np.ndarray, scale: float, lo: int, hi: int, pad: int,
                    out: np.ndarray) -> np.ndarray:
    """``clip(rint(x * scale), lo, hi) + 128`` of the float64 NCHW ``x``
    into the u8 ``out`` ``(B, C, H + 2 pad, W + 2 pad)``, border 128.

    Bit for bit ``_round_clip(x, scale, lo, hi) + 128``; raises
    :class:`ValueError` if ``x`` holds NaN (an integer code cannot carry
    it), while +-inf saturate like the clip.
    """
    b, c, h, w = x.shape
    if (x.dtype != np.float64 or out.dtype != np.uint8 or not out.flags.c_contiguous
            or pad < 0 or out.shape != (b, c, h + 2 * pad, w + 2 * pad)
            or not -128 <= lo <= hi <= 127 or any(s % 8 for s in x.strides)):
        raise ValueError(f"quantize_pad_u8: x {x.dtype}{x.shape} out {out.dtype}{out.shape}")
    strides = [s // 8 for s in x.strides]
    nans = LIB.repro_quantize_pad_u8(
        x.ctypes.data, b, c, h, w, *strides, float(scale), float(lo), float(hi), pad,
        out.ctypes.data,
    )
    if nans:
        raise ValueError(f"{nans} NaN activation(s) reached a quantized convolution")
    return out


def im2col_u8(x: np.ndarray, r: int, stride: int, out: np.ndarray) -> np.ndarray:
    """im2col of the padded u8 ``x`` ``(B, C, Hp, Wp)`` into ``out``
    ``(B*OH*OW, Kp)``: columns in ``(C, r, r)`` order, zeros past
    ``C*r*r`` -- :func:`repro.conv.im2col.im2col` plus the zero tail."""
    b, c, hp, wp = x.shape
    m = b * ((hp - r) // stride + 1) * ((wp - r) // stride + 1)
    if (x.dtype != np.uint8 or out.dtype != np.uint8 or not x.flags.c_contiguous
            or not out.flags.c_contiguous or not 1 <= r <= min(hp, wp) or stride < 1
            or out.shape[0] != m or out.shape[1] < c * r * r):
        raise ValueError(f"im2col_u8: x {x.dtype}{x.shape} out {out.dtype}{out.shape}")
    LIB.repro_im2col_u8(x.ctypes.data, b, c, hp, wp, r, stride, out.ctypes.data, out.shape[1])
    return out


#: The counters of :func:`team_stats`, in ``repro_team_stats``'s order.
TEAM_STATS = ("threads", "split_calls", "inline_calls", "chunks", "chunks_caller",
              "chunks_helpers")


def team_stats() -> dict:
    """The native thread team's size and work since the library loaded.

    ``threads`` is the team's size -- the CPUs in this process's affinity
    mask, 1 in a child forked after the team ran.  ``split_calls`` ran
    on the team; ``inline_calls`` ran on their caller alone (too small
    to split, one unit, a team of one, or the team busy with another
    thread's call).  ``chunks`` counts the split calls' chunks, each run
    by the caller (``chunks_caller``) or a helper (``chunks_helpers``);
    with no call in flight ``chunks == chunks_caller + chunks_helpers``.
    """
    out = np.zeros(len(TEAM_STATS), dtype=np.int64)
    LIB.repro_team_stats(out.ctypes.data)
    return dict(zip(TEAM_STATS, (int(v) for v in out)))
