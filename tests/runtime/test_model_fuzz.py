"""Model-level differential fuzz: compiled and served == eager, bitwise.

Seeded random ``Sequential`` / ``Residual`` graphs -- 3x3 convs with
padding 0/1 and stride 1/2, ReLU, max-pooling and conv-shortcut residual
blocks -- each calibrated with one of the six conv algorithms, run three
ways against the eager model:

* one session over a shuffled sequence of batch sizes that both grows
  and shrinks, so every scratch buffer is reused at sizes above and
  below the ones it already served;
* four threads sharing one session, each at its own batch size;
* a :class:`~repro.serve.Server` coalescing 1-4-image requests.

Every output must equal eager execution bit for bit.  A served request
is compared with eager on the batch it was coalesced into: the FP32
GEMMs round differently at a different row count, so only the quantized
models (exact integer GEMMs, static calibration) also match eager on
each request alone.
"""

import sys
import threading

import numpy as np
import pytest

from repro.nn import Conv2d, MaxPool2d, ReLU, Residual, Sequential, named_convs, quantize_model
from repro.runtime import InferenceSession
from repro.serve import Server
from repro.tuning.selector import build_engine_for

ALGORITHMS = (
    "fp32_direct",
    "fp32_winograd",
    "int8_direct",
    "int8_upcast",
    "int8_downscale",
    "lowino",
)


def _assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _conv(rng, c_in, c_out, name, padding=1, stride=1):
    filters = rng.standard_normal((c_out, c_in, 3, 3)) * np.sqrt(2.0 / (9 * c_in))
    return Conv2d(filters, bias=rng.standard_normal(c_out) * 0.1,
                  padding=padding, stride=stride, name=name)


def _random_model(rng):
    """A random conv net over ``hw x hw`` inputs; returns ``(model, hw)``."""
    hw = int(rng.choice([8, 9, 11]))
    c, size, layers = 3, hw, []
    for i in range(int(rng.integers(3, 6))):
        kind = rng.choice(["conv", "conv", "pool", "residual"])
        if kind == "pool" and size >= 6:
            layers.append(MaxPool2d(2))
            size //= 2
        elif kind == "residual":
            k = int(rng.choice([4, 8]))
            body = Sequential([_conv(rng, c, k, f"b{i}a"), ReLU(), _conv(rng, k, k, f"b{i}b")],
                              name=f"body{i}")
            layers.append(Residual(body, _conv(rng, c, k, f"s{i}"), name=f"res{i}"))
            c = k
        else:
            k = int(rng.choice([4, 6, 8]))
            padding, stride = int(rng.integers(0, 2)), int(rng.integers(1, 3))
            if size + 2 * padding < 5:  # keep at least a 2x2 output
                padding, stride = 1, 1
            layers.append(_conv(rng, c, k, f"c{i}", padding=padding, stride=stride))
            size = (size + 2 * padding - 3) // stride + 1
            c = k
            if rng.random() < 0.7:
                layers.append(ReLU())
    return Sequential(layers), hw


def _calibrate(model, algorithm, rng, hw):
    """Attach ``algorithm`` to every conv it can run (strided convs fall
    back to a direct engine, as ``quantize_model`` does)."""
    if algorithm.startswith("fp32_"):
        m = int(rng.choice([2, 4]))
        for _, conv in named_convs(model):
            winograd = algorithm == "fp32_winograd" and conv.stride == 1
            conv.engine = build_engine_for(conv, "fp32_winograd" if winograd else "fp32_direct", m)
        return model
    # F(4x4,3x3)'s integer input transform can overflow the up-casting
    # scheme's INT16 operands, so int8_upcast stays at m=2.
    m = 2 if algorithm == "int8_upcast" else int(rng.choice([2, 4]))
    calib = [np.maximum(rng.standard_normal((4, 3, hw, hw)), 0.0) for _ in range(2)]
    return quantize_model(model, algorithm, m=m, calibration_batches=calib)


@pytest.fixture(params=ALGORITHMS)
def case(request, make_rng):
    rng = make_rng()
    model, hw = _random_model(rng)
    return _calibrate(model, request.param, rng, hw), hw, rng, request.param


def _batch(rng, n, hw):
    return rng.standard_normal((n, 3, hw, hw))


class _RecordingSession:
    """Forwards to a real session and keeps every ``(batch, output)``
    pair the server ran, so coalesced batches can be checked."""

    def __init__(self, session):
        self.session = session
        self.calls = []

    def run(self, x):
        y = self.session.run(x)
        self.calls.append((x.copy(), y))
        return y

    def __getattr__(self, name):
        return getattr(self.session, name)


def _rises_and_falls(sizes):
    steps = np.diff(sizes)
    return bool((steps > 0).any() and (steps < 0).any())


class TestModelFuzz:
    def test_mixed_batch_sequence(self, case):
        model, hw, rng, _ = case
        session = InferenceSession(model, (1, 3, hw, hw))
        sizes = [int(n) for n in rng.permutation([1, 2, 3, 5, 8, 8, 2, 6])]
        while not _rises_and_falls(sizes):
            sizes = [int(n) for n in rng.permutation(sizes)]
        for n in sizes:
            x = _batch(rng, n, hw)
            _assert_bitwise(session.run(x), model(x))

    @pytest.mark.concurrency
    def test_threads_share_one_session(self, case):
        model, hw, rng, _ = case
        session = InferenceSession(model, (1, 3, hw, hw))
        inputs = [[_batch(rng, n, hw) for _ in range(3)] for n in (1, 2, 3, 5)]
        expected = [[model(x) for x in xs] for xs in inputs]
        barrier = threading.Barrier(len(inputs))
        errors = []

        def worker(tid):
            barrier.wait()
            try:
                for x, want in zip(inputs[tid], expected[tid]):
                    _assert_bitwise(session.run(x), want)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,), daemon=True)
                   for t in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' layers finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "worker thread wedged"
        if errors:
            raise errors[0]
        scratch = session.scratch_stats()
        assert scratch["acquires"] == scratch["releases"] and scratch["in_use"] == 0

    @pytest.mark.concurrency
    def test_server_coalesces_requests(self, case):
        model, hw, rng, algorithm = case
        requests = [_batch(rng, int(n), hw) for n in rng.integers(1, 5, size=10)]
        recorder = _RecordingSession(
            InferenceSession(model, (1, 3, hw, hw), cache_eviction="lfu")
        )
        with Server(max_batch=16, max_delay_ms=20.0, queue_size=64,
                    background_tuner=False) as server:
            server.add_model("m", session=recorder)
            futures = [server.submit("m", x, timeout=None) for x in requests]
            got = [f.result(timeout=120.0) for f in futures]
        assert len(recorder.calls) < len(requests)  # requests did coalesce
        for x, y in recorder.calls:
            _assert_bitwise(y, model(x))
        # Each request gets its own rows of the batch outputs, in order.
        _assert_bitwise(np.concatenate(got), np.concatenate([y for _, y in recorder.calls]))
        if not algorithm.startswith("fp32_"):
            for x, out in zip(requests, got):
                _assert_bitwise(out, model(x))
