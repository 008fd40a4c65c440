"""Committed benchmark baselines look like what their producers write now.

Every ``benchmarks/BENCH_*.json`` is a document some ``repro`` command
writes with ``--baseline PATH --update-baseline``.  A committed file
whose schema, top-level keys or config keys differ from a fresh
document is one a regenerated baseline would silently reshape -- and
one the gate it feeds may refuse or misread.
"""

import dataclasses
import functools
import json
from pathlib import Path

import pytest

from repro.obs.profile import ProfileConfig, run_profile
from repro.runtime.bench import SCHEMA_VERSION, BenchProfile, run_bench
from repro.serve.bench import (
    ProcBenchConfig,
    ServeBenchConfig,
    run_proc_bench,
    run_serve_bench,
)
from repro.tuning.bench import TuneBenchConfig, run_tune_bench

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@functools.lru_cache(maxsize=None)
def _fresh(producer):
    """A tiny document from ``producer``: only its shape matters here."""
    if producer is BenchProfile:
        return run_bench(
            BenchProfile("quick", ("ResNet-50_c",), hw_cap=8, chan_cap=8,
                         repeats=1, reference=False),
            algorithms=("fp32_direct",), models=False,
        )
    if producer is ProfileConfig:
        return run_profile(ProfileConfig(model="vgg", algorithm="lowino",
                                         hw=8, width=8, m=2, runs=1))
    small = dict(model="vgg", width=8, hw=8, m=2, request_batch=1,
                 requests_per_thread=1)
    if producer is ServeBenchConfig:
        return run_serve_bench(ServeBenchConfig(threads=(1,), **small))
    if producer is ProcBenchConfig:
        return run_proc_bench(ProcBenchConfig(procs=(1,), client_threads=1,
                                              wisdom=False, **small))
    return run_tune_bench(TuneBenchConfig(width=8, hw=8, batch=1, repeats=1))


#: Committed baseline -> the config dataclass of the command producing it.
PRODUCERS = {
    "BENCH_baseline_quick.json": BenchProfile,
    "BENCH_runtime.json": BenchProfile,
    "BENCH_serve_procs.json": ProcBenchConfig,
    "BENCH_serve_threads.json": ServeBenchConfig,
    "BENCH_stages.json": ProfileConfig,
    "BENCH_stages_fp32.json": ProfileConfig,
    "BENCH_tuning.json": TuneBenchConfig,
}


def _committed(name):
    return json.loads((BENCHMARKS / name).read_text())


def test_every_committed_baseline_has_a_producer():
    committed = sorted(p.name for p in BENCHMARKS.glob("BENCH_*.json"))
    assert committed == sorted(PRODUCERS)


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_config_keys_are_producer_fields(name):
    producer = PRODUCERS[name]
    fields = {f.name for f in dataclasses.fields(producer)}
    stale = sorted(set(_committed(name)["config"]) - fields)
    assert not stale, f"{name} config keys not in {producer.__name__}: {stale}"


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_document_matches_what_its_producer_writes(name):
    doc = _committed(name)
    assert doc["schema"] == SCHEMA_VERSION
    assert sorted(doc) == sorted(_fresh(PRODUCERS[name]))
