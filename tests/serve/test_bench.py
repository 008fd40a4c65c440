"""serve-bench: document schema, bit-identity, and gate semantics.

The closed-loop sweep's bit-identity gate is extended here to
**ragged, bursty two-tenant traffic**: seeded bursts of 1-5-image
requests for two models must still return, for every request, exactly
the bytes serial eager execution produces -- whatever micro-batches
the bursts happen to coalesce.
"""

import json

import numpy as np
import pytest

from repro.nn.quantize import quantize_model
from repro.runtime import InferenceSession
from repro.runtime.bench import ModelCase, build_case_model
from repro.serve.bench import (
    SCHEMA_VERSION,
    ProcBenchConfig,
    ServeBenchConfig,
    check_serve_gate,
    format_serve_bench,
    load_json,
    run_proc_bench,
    run_serve_bench,
    write_json,
)
from repro.serve.server import Server

pytestmark = pytest.mark.concurrency

TINY = ServeBenchConfig(
    model="vgg", algorithm="lowino", width=8, hw=8, m=2,
    request_batch=2, requests_per_thread=2, threads=(1, 2),
    max_batch=8, max_delay_ms=2.0,
)


@pytest.fixture(scope="module")
def doc():
    return run_serve_bench(TINY)


class TestDocument:
    def test_schema_and_entries(self, doc):
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["config"]["model"] == "vgg"
        assert doc["sweep"] == "threads"
        assert [e["n"] for e in doc["results"]] == [1, 2]
        for e in doc["results"]:
            assert e["images"] == e["n"] * 2 * 2
            assert e["throughput_ips"] > 0
            assert set(e["latency"]) >= {"count", "p50_ms", "p95_ms"}
        assert doc["summary"]["speedup_at"] == 2
        assert doc["summary"]["speedup"] > 0

    def test_served_results_bit_identical(self, doc):
        """The tentpole contract: every served request, coalesced or
        not, bitwise matches serial eager execution."""
        assert all(e["exact"] for e in doc["results"])
        assert doc["summary"]["exact"] is True

    def test_json_round_trip(self, doc, tmp_path):
        path = tmp_path / "serve.json"
        write_json(doc, path)
        loaded = load_json(path)
        assert loaded["schema"] == SCHEMA_VERSION
        # The round-tripped document still drives the gate unchanged.
        assert check_serve_gate(loaded, min_speedup=0.0) == []

    def test_write_json_creates_parent_dirs(self, doc, tmp_path):
        path = tmp_path / "benchmarks" / "BENCH_serve_threads.json"
        write_json(doc, path)
        assert load_json(path)["schema"] == SCHEMA_VERSION

    def test_format_mentions_gatekeeping_facts(self, doc):
        text = format_serve_bench(doc)
        assert "clients" in text and "exact" in text
        assert "bit-identity" in text


class TestOpenLoopIdentity:
    """The bit-identity gate under ragged, bursty two-tenant traffic.

    The closed-loop sweep above coalesces whatever N synchronized
    clients produce; here each burst of a seeded request sequence is
    submitted without waiting for answers, so the batcher sees ragged,
    shifting batch compositions across a ``lowino`` and an
    ``int8_upcast`` tenant -- and every response must still be bitwise
    the serial eager result.
    """

    TENANTS = {"vgg": "lowino", "resnet": "int8_upcast"}

    @pytest.fixture(scope="class")
    def tenants(self):
        out = {}
        for family, algorithm in self.TENANTS.items():
            model = build_case_model(ModelCase(family, algorithm, hw=8, width=8, m=2))
            calib = np.random.default_rng(2021).standard_normal((2, 3, 8, 8))
            quantize_model(model, algorithm, m=2, calibration_batches=[calib])
            out[family] = (model, InferenceSession(model, (2, 3, 8, 8)))
        return out

    @pytest.fixture(scope="class")
    def bursts(self):
        """Eight bursts of 1-8 ``(tenant, images)`` requests, 1-5 images each."""
        rng = np.random.default_rng(31)
        names = sorted(self.TENANTS)
        return [
            [
                (names[int(rng.integers(len(names)))],
                 rng.standard_normal((int(rng.integers(1, 6)), 3, 8, 8)))
                for _ in range(int(rng.integers(1, 9)))
            ]
            for _ in range(8)
        ]

    def replay(self, tenants, bursts):
        outputs = []
        with Server(max_batch=16, max_delay_ms=2.0, queue_size=256) as server:
            for name, (_, session) in tenants.items():
                server.add_model(name, session=session)
            for burst in bursts:
                futures = [server.submit(name, x, timeout=None) for name, x in burst]
                outputs.extend(f.result(timeout=120.0) for f in futures)
        return outputs

    def test_bursty_multi_model_trace_is_bit_identical_to_eager(self, tenants, bursts):
        requests = [req for burst in bursts for req in burst]
        outputs = self.replay(tenants, bursts)
        assert len(outputs) == len(requests)
        for k, ((name, x), got) in enumerate(zip(requests, outputs)):
            expected = tenants[name][0](x)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected), (
                f"request {k} ({name}, {x.shape[0]} images) diverged from "
                f"serial eager"
            )

    def test_same_seed_replays_serve_identical_bytes(self, tenants, bursts):
        first = self.replay(tenants, bursts)
        second = self.replay(tenants, bursts)
        assert [y.tobytes() for y in first] == [y.tobytes() for y in second]


class TestGate:
    def test_passing_doc_has_no_violations(self, doc):
        # The throughput ratio on a tiny 2-thread run is noisy, so gate
        # only identity here; the CLI gates the full sweep.
        assert check_serve_gate(doc, min_speedup=0.0) == []

    def test_identity_violation_detected(self, doc):
        bad = {**doc, "results": [dict(doc["results"][0], exact=False)]}
        violations = check_serve_gate(bad, min_speedup=0.0)
        assert len(violations) == 1 and "bit-identical" in violations[0]

    def test_throughput_violation_detected(self, doc):
        bad = {
            **doc,
            "summary": {"exact": True, "speedup": 1.0, "speedup_at": 2},
        }
        violations = check_serve_gate(bad, min_speedup=1.5)
        assert len(violations) == 1 and "throughput" in violations[0]


TINY_PROC = ProcBenchConfig(
    model="vgg", algorithm="int8_upcast", width=8, hw=8, m=2,
    request_batch=2, requests_per_thread=2, client_threads=2,
    procs=(1, 2), max_batch=8, max_delay_ms=2.0,
)


@pytest.fixture(scope="module")
def proc_doc():
    return run_proc_bench(TINY_PROC)


class TestProcDocument:
    def test_schema_and_entries(self, proc_doc):
        assert proc_doc["schema"] == SCHEMA_VERSION
        assert proc_doc["sweep"] == "procs"
        assert [e["n"] for e in proc_doc["results"]] == [1, 2]
        for e in proc_doc["results"]:
            assert e["images"] == 2 * 2 * 2
            assert e["throughput_ips"] > 0
            assert e["restarts"] == 0
            assert set(e["latency"]) >= {"count", "p50_ms", "p95_ms"}
        assert proc_doc["summary"]["speedup_at"] == 2
        assert proc_doc["summary"]["speedup"] > 0

    def test_every_worker_count_is_bit_identical(self, proc_doc):
        assert all(e["exact"] for e in proc_doc["results"])
        assert proc_doc["summary"]["exact"] is True

    def test_workers_converge_on_one_selection(self, proc_doc):
        assert proc_doc["summary"]["selection_converged"] is True
        two = next(e for e in proc_doc["results"] if e["n"] == 2)
        assert two["selection_workers"] == 2
        # int8_upcast calibration carries across swaps, so selections
        # actually applied -- the convergence check is non-vacuous.
        assert two["selection"]
        assert two["selection_converged"]

    def test_json_round_trip_drives_the_gate(self, proc_doc, tmp_path):
        path = tmp_path / "procs.json"
        write_json(proc_doc, path)
        assert check_serve_gate(load_json(path)) == []

    def test_format_mentions_gatekeeping_facts(self, proc_doc):
        text = format_serve_bench(proc_doc)
        assert "procs" in text and "exact" in text
        assert "bit-identity" in text and "convergence" in text


class TestProcGate:
    def test_identity_violation_detected(self, proc_doc):
        bad = {**proc_doc, "results": [dict(proc_doc["results"][0], exact=False)]}
        violations = check_serve_gate(bad)
        assert len(violations) == 1 and "bit-identical" in violations[0]

    def test_divergent_selections_detected(self, proc_doc):
        bad = {
            **proc_doc,
            "results": [dict(proc_doc["results"][1], selection_converged=False)],
        }
        violations = check_serve_gate(bad)
        assert len(violations) == 1 and "disagree" in violations[0]

    def test_min_speedup_gate(self, proc_doc):
        doc = {
            **proc_doc,
            "summary": dict(proc_doc["summary"], speedup=1.1, speedup_at=2),
        }
        assert check_serve_gate(doc, min_speedup=0.0) == []
        violations = check_serve_gate(doc, min_speedup=1.7)
        assert len(violations) == 1 and "throughput" in violations[0]

    def test_baseline_ratio_gate(self, proc_doc):
        current = {
            **proc_doc,
            "summary": dict(proc_doc["summary"], speedup=1.0, speedup_at=2),
        }
        healthy = {
            **proc_doc,
            "summary": dict(proc_doc["summary"], speedup=1.8, speedup_at=2),
        }
        # 1.0x vs a 1.8x baseline at tolerance 0.5 passes (floor 0.9x)...
        assert check_serve_gate(current, baseline=healthy) == []
        # ...but collapsing below the floor is a violation.
        violations = check_serve_gate(
            current, baseline=healthy, speedup_tolerance=1.05
        )
        assert len(violations) == 1 and "regressed" in violations[0]

    def test_baseline_config_mismatch_is_reported_not_compared(self, proc_doc):
        other = {**proc_doc, "config": dict(proc_doc["config"], hw=16)}
        violations = check_serve_gate(proc_doc, baseline=other)
        assert len(violations) == 1 and "incompatible" in violations[0]

    def test_committed_baseline_is_self_consistent(self):
        """The checked-in BENCH_serve_procs.json gates green against
        itself -- the CI proc-smoke job depends on that."""
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[2] / (
            "benchmarks/BENCH_serve_procs.json"
        )
        doc = load_json(path)
        assert doc["schema"] == SCHEMA_VERSION
        assert check_serve_gate(doc, baseline=doc) == []
