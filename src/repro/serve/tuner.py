"""Background tuner: idle-time algorithm measurement for a live server.

A :class:`BackgroundTuner` is a daemon thread owned by a
:class:`~repro.serve.server.Server`.  Each tick it reads every model's
live queue depth from the obs registry's ``repro_queue_depth`` gauge
(the same number ``/metrics`` exports) and only when the server is
**idle** -- all depths at or below ``idle_depth`` -- does it pick one
un-tuned conv geometry from the deployed sessions, run the
:class:`~repro.tuning.selector.AlgorithmSelector`'s seeded measurement,
and persist the choice to the shared wisdom file.  Idleness is
re-probed between candidate measurements (the selector's ``abort``
hook), so a request arriving mid-measurement stops the tuning step
before the next candidate runs and nothing half-measured is persisted.

Once a choice lands, the tuner (still under the idle gate) calls each
session's :meth:`~repro.runtime.session.InferenceSession
.refresh_selection` so the running programs re-lower the affected convs
-- the paper's "saved into a wisdom file and used in inference" loop,
closed at serving time.  Every measurement appends an event recording
the queue depths observed at its start; the serve test asserts they are
all idle.
"""

from __future__ import annotations

import logging
import threading
import traceback
from typing import Dict, List, Optional

__all__ = ["BackgroundTuner"]

logger = logging.getLogger(__name__)


class BackgroundTuner:
    """Measure un-tuned geometries while the request queues are idle."""

    def __init__(
        self,
        server,
        selector,
        interval_s: float = 0.02,
        idle_depth: int = 0,
        apply: bool = True,
        start: bool = True,
    ) -> None:
        self.server = server
        self.selector = selector
        self.interval_s = float(interval_s)
        self.idle_depth = int(idle_depth)
        self.apply = apply
        #: One dict per persisted measurement: geometry key, the queue
        #: depths observed when it started, and the selected label.
        self.events: List[dict] = []
        self._events_lock = threading.Lock()
        self._stop = threading.Event()
        registry = server.registry
        self._measured = registry.counter(
            "repro_tuner_measurements_total",
            help="geometries measured and persisted by the background tuner",
        )
        self._busy_skips = registry.counter(
            "repro_tuner_busy_skips_total",
            help="tuner ticks skipped because a request queue was non-idle",
        )
        self._aborts = registry.counter(
            "repro_tuner_aborts_total",
            help="measurements aborted mid-flight by arriving traffic",
        )
        self._errors = registry.counter(
            "repro_tuner_errors_total",
            help="tuner ticks that raised (tuning kept running; see logs)",
        )
        self._warned = False
        self._thread = threading.Thread(
            target=self._loop, name="repro-tuner", daemon=True
        )
        if start:
            self._thread.start()

    # -- idleness (the obs queue-depth gauge is the source of truth) ----
    def queue_depths(self) -> Dict[str, float]:
        """Live per-model queue depth, read from the registry gauges."""
        depths: Dict[str, float] = {}
        for name in self.server.models:
            gauge = self.server.registry.find("repro_queue_depth", model=name)
            if gauge is not None:
                depths[name] = float(gauge.value)
        return depths

    def is_idle(self) -> bool:
        return all(d <= self.idle_depth for d in self.queue_depths().values())

    # -- work selection -------------------------------------------------
    def _next_untuned(self):
        """First ``(geometry, family)`` whose wisdom has no entry yet.

        Every deployed conv is a tuning target in its own family:
        quantized convs under their plain key, full-precision
        convs (``engine is None`` or an fp32 engine) under the
        family-qualified fp32 key.
        """
        from ..tuning.selector import ConvGeometry, conv_family

        wisdom = self.selector.wisdom
        for name in self.server.models:
            try:
                session = self.server.session(name)
            except KeyError:  # racing a close/remove
                continue
            graph = session.program.graph
            for step in session.program.steps:
                if step.kind != "conv":
                    continue
                family = conv_family(step.node.layer)
                geom = ConvGeometry.of_conv(
                    step.node.layer, graph.in_shape(step.node)
                )
                key = geom.key(family=family)
                if wisdom is None or wisdom.lookup_algorithm(key) is None:
                    return geom, family
        return None

    # -- loop -----------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self._tick()
            except Exception:
                # Tuning must never take the serving path down -- but a
                # selector that crashes every tick must not look idle
                # either: count every failure and log the first
                # traceback (warn-once; the counter keeps the rest
                # visible in /metrics).
                self._errors.inc()
                if not self._warned:
                    self._warned = True
                    logger.warning(
                        "background tuner tick raised (suppressed; "
                        "counted in repro_tuner_errors_total):\n%s",
                        traceback.format_exc(),
                    )

    def _tick(self) -> None:
        if not self.server.models:
            return
        depths = self.queue_depths()
        if any(d > self.idle_depth for d in depths.values()):
            self._busy_skips.inc()
            return
        if self.selector.wisdom is not None:
            self.selector.wisdom.refresh()
        untuned = self._next_untuned()
        if untuned is None:
            # Everything known; keep live sessions converged on wisdom
            # (cheap: refresh_selection is stat + dict lookups when
            # nothing changed).
            if self.apply:
                self._apply_all()
            return
        geom, family = untuned
        result = self.selector.select(
            geom, abort=lambda: not self.is_idle(), family=family
        )
        if result is None:
            self._aborts.inc()
            return
        self._measured.inc()
        with self._events_lock:
            self.events.append(
                {
                    "key": geom.key(family=family),
                    "family": family,
                    "selected": result.label,
                    "source": result.source,
                    "queue_depths": depths,
                }
            )
        if self.apply:
            self._apply_all()

    def _apply_all(self) -> None:
        for name in self.server.models:
            try:
                session = self.server.session(name)
            except KeyError:
                continue
            session.refresh_selection()

    # -- lifecycle ------------------------------------------------------
    @property
    def measurements(self) -> int:
        return int(self._measured.value)

    def events_snapshot(self) -> List[dict]:
        with self._events_lock:
            return [dict(e) for e in self.events]

    def tuned_all(self) -> bool:
        """True when every deployed geometry has a wisdom entry."""
        return self._next_untuned() is None

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)
