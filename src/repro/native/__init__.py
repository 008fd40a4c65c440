"""The compiled integer kernels of the quantized pipelines.

:mod:`repro.runtime.backends` runs every quantized GEMM here, and the
``int8_direct`` pipeline also builds its u8 operand here
(``kernels.c`` documents the kernels, the packed layouts and why each
result is the exact integer sum reduced modulo 2**32).

The source is compiled once per machine with the system ``cc`` into
``${XDG_CACHE_HOME:-~/.cache}/repro/native/``, keyed by the SHA-256 of
the source, the flags and ``cc --version``; concurrent importers (test
workers, spawned serving processes) wait on a file lock and load the
one library.  A failed build raises :class:`ImportError` carrying the
command and the compiler's stderr.

``VARIANT`` names the kernel variant this process runs -- the first of
``VARIANTS``, the variants this CPU supports, best first
(``avx512_vnni``, ``avx2``, ``c``).  Nothing selects another one.
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
]

SOURCE = Path(__file__).with_name("kernels.c")
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
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
    key = hashlib.sha256(code + "\0".join(FLAGS).encode() + version.encode()).hexdigest()
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
        cmd = ["cc", *FLAGS, "-o", str(tmp), str(source)]
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
    """The two GEMMs of ``variant`` (one of :data:`VARIANTS`)."""
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

    return SimpleNamespace(gemm_u8s8=gemm_u8s8, gemm_s16s16=gemm_s16s16)


_kernels = _bind(VARIANT)
gemm_u8s8 = _kernels.gemm_u8s8
gemm_s16s16 = _kernels.gemm_s16s16


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
            or not -128 <= lo <= hi <= 127):
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
