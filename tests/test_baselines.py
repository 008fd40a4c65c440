"""Committed benchmark baselines describe configs their producers can make.

Every ``benchmarks/BENCH_*.json`` records the config (or quick-bench
profile) that produced it.  A key that is no longer a field of the
producer's config dataclass is one a fresh ``--update-baseline`` would
silently drop, so the committed file and a regenerated one would differ
in shape.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.obs.profile import ProfileConfig
from repro.runtime.bench import BenchProfile
from repro.serve.bench import ProcBenchConfig, ServeBenchConfig
from repro.tuning.bench import TuneBenchConfig

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

#: Committed baseline -> (document key holding its config, producer).
PRODUCERS = {
    "BENCH_baseline_quick.json": ("profile", BenchProfile),
    "BENCH_runtime.json": ("profile", BenchProfile),
    "BENCH_serve_procs.json": ("config", ProcBenchConfig),
    "BENCH_serve_threads.json": ("config", ServeBenchConfig),
    "BENCH_stages.json": ("config", ProfileConfig),
    "BENCH_stages_fp32.json": ("config", ProfileConfig),
    "BENCH_tuning.json": ("config", TuneBenchConfig),
}


def test_every_committed_baseline_has_a_producer():
    committed = sorted(p.name for p in BENCHMARKS.glob("BENCH_*.json"))
    assert committed == sorted(PRODUCERS)


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_config_keys_are_producer_fields(name):
    key, producer = PRODUCERS[name]
    doc = json.loads((BENCHMARKS / name).read_text())
    fields = {f.name for f in dataclasses.fields(producer)}
    stale = sorted(set(doc[key]) - fields)
    assert not stale, f"{name} {key} keys not in {producer.__name__}: {stale}"
