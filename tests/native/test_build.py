"""Building and loading the native library, and calling it from threads."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.runtime import ExecutionEngine, PlanCache

SRC = str(Path(native.__file__).resolve().parents[2])

#: Imports the library and prints its variant and a digest of one GEMM.
PROBE = """
import hashlib
import numpy as np
from repro import native
rng = np.random.default_rng(5)
a = rng.integers(0, 256, (2, 9, 12)).astype(np.uint8)
b = native.pack_b(rng.integers(-128, 128, (2, 12, 20)).astype(np.int8))
out = native.gemm_u8s8(a, b, np.zeros((2, 20), np.int32), np.empty((2, 9, 20), np.int32))
print(native.VARIANT, hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_concurrent_cold_imports_build_one_library(tmp_path):
    """Four processes importing against an empty cache wait on one build."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    procs = [
        subprocess.Popen([sys.executable, "-c", PROBE], env=env, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(4)
    ]
    results = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0] * 4, [err for _, err in results]
    assert len({out for out, _ in results}) == 1
    assert results[0][0].split()[0] == native.VARIANT
    libs = list((tmp_path / "repro" / "native").glob("*.so"))
    assert len(libs) == 1
    assert not list((tmp_path / "repro" / "native").glob("*.tmp"))


def test_failed_build_raises_import_error_with_stderr(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    bad = tmp_path / "broken.c"
    bad.write_text("int f(void) { return undeclared_name; }\n")
    with pytest.raises(ImportError) as info:
        native.build(bad)
    message = str(info.value)
    assert "cc " in message and str(bad) in message
    assert "undeclared_name" in message  # the compiler's own diagnostic
    assert not list((tmp_path / "repro" / "native").glob("*.so"))


@pytest.mark.concurrency
@pytest.mark.parametrize(
    "algorithm", ["int8_direct", "lowino", "int8_upcast", "int8_downscale", "fp32_winograd"]
)
def test_two_threads_in_one_kernel_match_serial(algorithm, make_rng):
    """ctypes drops the GIL for the call, so both threads run the kernels
    (GEMMs and transform passes) on the plan's operands at once; each
    gets the serial bytes.  The calls are large enough to split, so one
    thread's calls run on the thread team while the other's, finding it
    busy, run inline."""
    rng = make_rng()
    engine = ExecutionEngine(cache=PlanCache(capacity=4))
    plan = engine.plan_for(rng.standard_normal((32, 32, 3, 3)) * 0.1, algorithm,
                           m=2, padding=1)
    xs = [rng.standard_normal((8, 32, 16, 16)) for _ in range(2)]
    before = native.team_stats()
    serial = [engine.execute(plan, x) for x in xs]
    split = native.team_stats()["split_calls"] - before["split_calls"]
    assert split >= 2 if before["threads"] > 1 else split == 0
    barrier = threading.Barrier(2)
    got = [None, None]

    def run(i):
        barrier.wait()
        for _ in range(5):
            got[i] = engine.execute(plan, xs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for want, have in zip(serial, got):
        np.testing.assert_array_equal(have, want)
