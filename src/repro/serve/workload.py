"""Seeded request traces: which model, how many images, which payload.

A **trace** is built ahead of time as data: a time-sorted sequence of
:class:`TraceEvent`\\ s, each naming the target model, the request's
image count, and the seed its activation tensor is derived from.
Because the schedule is data (not live RNG draws interleaved with
serving), the same seed yields a bit-identical schedule on every host,
and ``Trace.digest()`` hashes the exact event tuples so two runs can
*prove* they served the same workload.  The repository benchmark's
``serve-saturated`` workload takes its request sizes and payload keys
from such a trace and records its digest.

Each tenant (:class:`ModelWorkload`) pairs an arrival process -- any
object with ``times(horizon_s, rng)``, e.g. :class:`UniformArrivals` --
with a size sampler -- any object with ``sample(n, rng)``, e.g.
:class:`FixedSizes`.  :func:`build_trace` seeds every tenant through
its own :class:`numpy.random.SeedSequence` streams, so adding a tenant
to a spec never perturbs another tenant's schedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "ArrivalProcess",
    "FixedSizes",
    "ModelWorkload",
    "SizeSampler",
    "Trace",
    "TraceEvent",
    "UniformArrivals",
    "build_trace",
]


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformArrivals:
    """Evenly spaced arrivals at ``rate`` requests/second (CV^2 = 0)."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def times(self, horizon_s: float, rng: np.random.Generator) -> np.ndarray:
        n = int(np.floor(self.rate * horizon_s))
        return (np.arange(n) + 0.5) / self.rate


#: Anything with ``times(horizon_s, rng) -> ndarray`` of sorted instants.
ArrivalProcess = object


# ---------------------------------------------------------------------------
# request-size mixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedSizes:
    """Every request carries exactly ``images`` images."""

    images: int = 1

    def __post_init__(self) -> None:
        if self.images < 1:
            raise ValueError(f"images must be >= 1, got {self.images}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, self.images, dtype=np.int64)


#: Anything with ``sample(n, rng) -> ndarray`` of positive ints.
SizeSampler = object


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelWorkload:
    """One tenant's offered load: which model, when, and how much."""

    model: str
    arrivals: ArrivalProcess
    sizes: SizeSampler = field(default_factory=FixedSizes)


@dataclass(frozen=True)
class TraceEvent:
    """One scheduled request.

    ``t`` is seconds from trace start; ``payload_seed`` is the seed a
    consumer derives the request's activation tensor from, so a trace
    fully determines both the schedule *and* the bytes served.
    """

    t: float
    model: str
    n_images: int
    request_id: int
    payload_seed: int

    def key(self) -> Tuple[bytes, str, int, int, int]:
        """Canonical tuple for hashing/equality (exact float bytes)."""
        return (
            np.float64(self.t).tobytes(),
            self.model,
            self.n_images,
            self.request_id,
            self.payload_seed,
        )


@dataclass(frozen=True)
class Trace:
    """A complete, replayable request schedule."""

    seed: int
    horizon_s: float
    events: Tuple[TraceEvent, ...]

    def __len__(self) -> int:
        return len(self.events)

    @property
    def models(self) -> List[str]:
        return sorted({e.model for e in self.events})

    def digest(self) -> str:
        """SHA-256 over the exact event tuples (schedule identity proof)."""
        h = hashlib.sha256()
        h.update(np.float64(self.horizon_s).tobytes())
        for event in self.events:
            t_bytes, model, n, rid, pseed = event.key()
            h.update(t_bytes)
            h.update(model.encode())
            h.update(f":{n}:{rid}:{pseed};".encode())
        return h.hexdigest()


def build_trace(
    workloads: Sequence[ModelWorkload], horizon_s: float, seed: int
) -> Trace:
    """Merge per-tenant schedules into one time-sorted trace.

    Each workload draws from its own :class:`~numpy.random.SeedSequence`
    streams (``[seed, index, 0]`` for arrivals, ``[seed, index, 1]`` for
    sizes), so tenants are statistically independent and a spec edit to
    one tenant leaves the others' schedules bit-identical.  Ties in
    arrival time break by (model, per-model order), which is
    deterministic; ``request_id`` numbers the merged order.
    """
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
    if not workloads:
        raise ValueError("build_trace needs at least one ModelWorkload")
    names = [w.model for w in workloads]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate model names in workloads: {names}")
    rows: List[Tuple[float, int, int, str, int]] = []
    for index, workload in enumerate(sorted(workloads, key=lambda w: w.model)):
        arrival_rng = np.random.default_rng(np.random.SeedSequence([seed, index, 0]))
        size_rng = np.random.default_rng(np.random.SeedSequence([seed, index, 1]))
        times = np.asarray(workload.arrivals.times(horizon_s, arrival_rng))
        sizes = np.asarray(workload.sizes.sample(len(times), size_rng))
        if len(sizes) != len(times):
            raise ValueError(
                f"size sampler returned {len(sizes)} sizes for {len(times)} arrivals"
            )
        for order, (t, n) in enumerate(zip(times, sizes)):
            rows.append((float(t), index, order, workload.model, int(n)))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    payload_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFEED]))
    payload_seeds = payload_rng.integers(0, 2**31 - 1, size=len(rows))
    events = tuple(
        TraceEvent(
            t=t,
            model=model,
            n_images=n,
            request_id=rid,
            payload_seed=int(payload_seeds[rid]),
        )
        for rid, (t, _, _, model, n) in enumerate(rows)
    )
    return Trace(seed=seed, horizon_s=float(horizon_s), events=events)
