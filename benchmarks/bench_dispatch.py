"""Micro-benchmark: per-step dispatch cost of ``CompiledProgram.run``.

Isolates the Python-side orchestration overhead the slot-based run loop
buys back (see ``CompiledProgram`` in ``repro.runtime.compiler``): a
deliberately tiny model (vgg width=4, 8x8 input, m=2) makes the kernel
work nearly free, so wall-clock per step is dominated by dispatch --
liveness bookkeeping, argument gathering, step fan-out.

Usage::

    PYTHONPATH=src python benchmarks/bench_dispatch.py [iters]

Representative numbers on the development host (200 iters):

=========================================  ==========  ============
variant                                     per run     per step
=========================================  ==========  ============
dict-based liveness + per-stage engine      860.1 us    66.16 us
slot-based liveness + fused backends        548.5 us    42.19 us
=========================================  ==========  ============

(The "before" row is the pre-backend runtime: per-call dicts keyed by
node id for liveness and a per-stage engine hot path; measured at the
same commit the fused-backend rewrite branched from.)
"""

from __future__ import annotations

import sys
import time

import numpy as np


def main(iters: int = 200) -> None:
    from repro.nn.models import build_vgg_small
    from repro.nn.quantize import quantize_model
    from repro.runtime.session import InferenceSession

    rng = np.random.default_rng(2021)
    x = rng.standard_normal((1, 3, 8, 8))
    model = build_vgg_small(width=4)
    quantize_model(model, "auto", m=2, calibration_batches=[x])
    session = InferenceSession(model, x.shape, collect_timings=False)
    session.run(x)  # warm: plans, scratch arena

    steps = len(session.program.steps)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(iters):
            session.run(x)
        best = min(best, (time.perf_counter() - t0) / iters)
    print(f"model: vgg width=4, input (1, 3, 8, 8), m=2, 'auto'")
    print(f"steps per run: {steps}")
    print(f"best of 5 x {iters} iters: {best * 1e6:.1f} us/run, "
          f"{best / steps * 1e6:.2f} us/step")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
