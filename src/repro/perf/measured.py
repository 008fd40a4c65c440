"""Paired-rounds wall-clock timer: the one way this repository times code.

The paper (Section 5) warms up, runs each kernel 100 times and reports
the average.  That protocol assumes a quiet machine.  On a shared host
whose speed moves in phases, back-to-back runs of one kernel and then
another compare two phases as much as two kernels, and a mean or a
best-of keeps whichever phase the draw landed in.  :func:`measure`
therefore interleaves: it warms each callable once, then runs
``rounds`` rounds in which every callable runs once -- forward order
on even rounds, reversed on odd ones, so no callable always follows the
same neighbour.  It reports each callable's median wall time, and each
ratio as the median of its per-round ratios: a phase change moves both
sides of a round's ratio together, and the median drops the rounds a
phase change split.

The numbers describe this repository's NumPy kernels on the host that
ran them, never the paper's VNNI kernels (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

__all__ = ["Measurement", "measure"]


@dataclass(frozen=True)
class Measurement:
    """Per-round wall seconds of every measured callable."""

    #: name -> one wall time per round, in round order.
    walls: Dict[str, List[float]]
    #: name -> what the callable returned on its warm-up call.
    outputs: Dict[str, object]

    def median(self, name: str) -> float:
        """Median wall seconds of ``name`` over the rounds."""
        return float(np.median(self.walls[name]))

    def ratio(self, num: str, den: str) -> float:
        """Median over rounds of ``t_num / t_den`` within one round."""
        return float(np.median(np.divide(self.walls[num], self.walls[den])))


def measure(
    fns: Mapping[str, Callable[[], object]],
    rounds: int,
    abort: Optional[Callable[[], bool]] = None,
) -> Optional[Measurement]:
    """Warm each callable once, then time ``rounds`` alternating rounds.

    ``abort`` is polled before every call, warm-up included; when it
    returns True the measurement stops and None is returned, so nothing
    half-measured is ever reported.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    names = list(fns)
    outputs: Dict[str, object] = {}
    for name in names:
        if abort is not None and abort():
            return None
        outputs[name] = fns[name]()
    walls: Dict[str, List[float]] = {name: [] for name in names}
    for round_ in range(rounds):
        for name in names if round_ % 2 == 0 else names[::-1]:
            if abort is not None and abort():
                return None
            t0 = perf_counter()
            fns[name]()
            walls[name].append(perf_counter() - t0)
    return Measurement(walls, outputs)
