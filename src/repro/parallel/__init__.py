"""Static multi-core scheduling and its simulated timeline (Section 4.4)."""

from .timeline import StageTimeline, simulate_stage
from .scheduler import Partition, StaticSchedule, partition_grid, partition_range

__all__ = [
    "StageTimeline",
    "simulate_stage",
    "Partition",
    "StaticSchedule",
    "partition_grid",
    "partition_range",
]
