"""Wisdom-file persistence: schema v2, batching, cross-process merge."""

import json
import multiprocessing
from dataclasses import asdict

import pytest

from repro.gemm import BlockingParams
from repro.tuning import (
    SCHEMA_VERSION,
    ConvGeometry,
    TuneResult,
    WisdomFile,
    problem_key,
)


def _params(n_blk=12):
    return BlockingParams(n_blk=n_blk, c_blk=8, k_blk=64, row_blk=6, col_blk=4)


def _result(n_blk=12):
    return TuneResult(params=_params(n_blk), predicted_time=1e-3,
                      candidates_evaluated=10)


class TestWisdomFile:
    def test_key_format(self):
        assert problem_key(16, 100, 32, 64) == "numpy|16x100x32x64"

    def test_store_and_lookup(self, tmp_path):
        wf = WisdomFile(tmp_path / "wisdom.json")
        params = _params()
        wf.store(4, 50, 8, 64, TuneResult(params=params, predicted_time=1e-3,
                                          candidates_evaluated=10))
        assert wf.lookup(4, 50, 8, 64) == params
        assert wf.lookup(4, 51, 8, 64) is None
        assert len(wf) == 1

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "wisdom.json"
        params = _params()
        WisdomFile(path).store(4, 50, 8, 64, TuneResult(params, 1e-3, 10))
        assert WisdomFile(path).lookup(4, 50, 8, 64) == params

    def test_lookup_or_tune_caches(self, tmp_path, monkeypatch):
        path = tmp_path / "wisdom.json"
        wf = WisdomFile(path)
        first = wf.lookup_or_tune(4, 24, 16, 32)
        calls = []

        import repro.tuning.wisdom as wisdom_module

        def no_tune(*args, **kwargs):  # pragma: no cover - must not run
            calls.append(args)
            raise AssertionError("tuner re-ran despite cache")

        monkeypatch.setattr(wisdom_module, "tune_gemm", no_tune)
        second = wf.lookup_or_tune(4, 24, 16, 32)
        assert first == second
        assert not calls

    def test_file_is_valid_versioned_json(self, tmp_path):
        path = tmp_path / "wisdom.json"
        wf = WisdomFile(path)
        wf.lookup_or_tune(4, 24, 16, 32)
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA_VERSION
        assert "numpy|4x24x16x32" in data["gemm"]
        assert data["algorithms"] == {}


#: A schema-2 wisdom file exactly as earlier releases wrote it, with one
#: entry of every key shape, plus a GEMM entry under a namespace no
#: lookup answers from ("threaded").  Written out literally so a change
#: to the key-building code cannot also change what the test expects.
_SCHEMA2_DOC = """{
  "algorithms": {
    "numpy|b2c8h8w8k16r3s1p1": {
      "algorithm": "lowino",
      "m": 2,
      "measured": {
        "int8_direct@0": 0.002,
        "lowino@2": 0.001
      },
      "static": "int8_direct@0"
    },
    "numpy|fp32|b2c8h8w8k16r3s1p1": {
      "algorithm": "fp32_winograd",
      "m": 4,
      "measured": {
        "fp32_direct@0": 0.003,
        "fp32_winograd@4": 0.002
      },
      "static": "fp32_direct@0"
    }
  },
  "gemm": {
    "numpy|4x50x8x64": {
      "params": {
        "c_blk": 8,
        "col_blk": 4,
        "k_blk": 64,
        "n_blk": 12,
        "row_blk": 6
      },
      "predicted_time": 0.001
    },
    "threaded|4x50x8x64": {
      "params": {
        "c_blk": 8,
        "col_blk": 4,
        "k_blk": 64,
        "n_blk": 24,
        "row_blk": 6
      },
      "predicted_time": 0.002
    }
  },
  "schema": 2
}"""


class TestOnDiskFormat:
    """Files written in the schema-2 key format keep answering."""

    GEOM = ConvGeometry(batch=2, c=8, h=8, w=8, k=16)

    def test_every_numpy_entry_answers_public_lookups(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text(_SCHEMA2_DOC)
        wf = WisdomFile(path)
        assert wf.lookup(4, 50, 8, 64) == _params(12)
        quantized = wf.lookup_algorithm(self.GEOM.key())
        assert (quantized["algorithm"], quantized["m"]) == ("lowino", 2)
        fp32 = wf.lookup_algorithm(self.GEOM.key(family="fp32"))
        assert (fp32["algorithm"], fp32["m"]) == ("fp32_winograd", 4)

    def test_foreign_namespace_survives_a_store(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text(_SCHEMA2_DOC)
        before = json.loads(_SCHEMA2_DOC)
        WisdomFile(path).store(4, 51, 8, 64, _result(36))
        after = json.loads(path.read_text())
        assert after["gemm"]["threaded|4x50x8x64"] == before["gemm"]["threaded|4x50x8x64"]
        assert WisdomFile(path).lookup(4, 51, 8, 64) == _params(36)


class TestMigration:
    """Legacy flat (schema-1) files load transparently as v2."""

    def test_legacy_flat_file_migrates(self, tmp_path):
        path = tmp_path / "wisdom.json"
        legacy = {
            "4x24x16x32": {"params": asdict(_params()), "predicted_time": 1e-3}
        }
        path.write_text(json.dumps(legacy))
        wf = WisdomFile(path)
        # legacy keys land in the gemm section under the "numpy" namespace
        assert wf.lookup(4, 24, 16, 32) == _params()
        assert len(wf) == 1
        # the next store rewrites the file in the versioned schema,
        # preserving the migrated entry
        wf.store(4, 50, 8, 64, _result())
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA_VERSION
        assert "numpy|4x24x16x32" in data["gemm"]
        assert "numpy|4x50x8x64" in data["gemm"]

    def test_legacy_file_from_disk_merges_on_flush(self, tmp_path):
        # A v2 instance flushing over a legacy file must not lose the
        # legacy entries (disk-wins merge qualifies them first).
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps(
            {"4x24x16x32": {"params": asdict(_params()), "predicted_time": 1e-3}}
        ))
        other = WisdomFile(tmp_path / "elsewhere.json")  # fresh, no disk state
        other.path = path  # now aimed at the legacy file, unaware of it
        other.store(4, 50, 8, 64, _result())
        merged = WisdomFile(path)
        assert merged.lookup(4, 24, 16, 32) == _params()
        assert merged.lookup(4, 50, 8, 64) == _params()


class TestBatching:
    """store_many / batch(): one read-merge-write per sweep."""

    def _count_replaces(self, monkeypatch):
        import repro.tuning.wisdom as wisdom_module

        calls = []
        real = wisdom_module.os.replace

        def counting(src, dst):
            calls.append(dst)
            return real(src, dst)

        monkeypatch.setattr(wisdom_module.os, "replace", counting)
        return calls

    def test_store_many_flushes_once(self, tmp_path, monkeypatch):
        wf = WisdomFile(tmp_path / "wisdom.json")
        calls = self._count_replaces(monkeypatch)
        wf.store_many(
            (4, 24 + i, 16, 32, _result()) for i in range(10)
        )
        assert len(calls) == 1
        assert len(wf) == 10
        assert WisdomFile(tmp_path / "wisdom.json").lookup(4, 29, 16, 32) == _params()

    def test_batch_is_reentrant_and_defers(self, tmp_path, monkeypatch):
        wf = WisdomFile(tmp_path / "wisdom.json")
        calls = self._count_replaces(monkeypatch)
        with wf.batch():
            wf.store(4, 24, 16, 32, _result())
            with wf.batch():
                wf.store_algorithm("numpy|g", {"algorithm": "lowino", "m": 2})
            assert calls == []  # inner exit must not flush
        assert len(calls) == 1

    def test_lookup_or_tune_many_single_write(self, tmp_path, monkeypatch):
        wf = WisdomFile(tmp_path / "wisdom.json")
        calls = self._count_replaces(monkeypatch)
        problems = [(2, 16 + i, 8, 16) for i in range(4)]
        results = wf.lookup_or_tune_many(problems)
        assert len(results) == 4
        assert len(calls) == 1
        # second sweep answers from memory: no tuning, no writes
        assert wf.lookup_or_tune_many(problems) == results
        assert len(calls) == 1


class TestAlgorithmSection:
    def test_store_and_lookup_roundtrip(self, tmp_path):
        path = tmp_path / "wisdom.json"
        wf = WisdomFile(path)
        entry = {"algorithm": "lowino", "m": 4, "static": "int8_direct@0"}
        won = wf.store_algorithm("numpy|b2c8h8w8k16r3s1p1", entry)
        assert won["algorithm"] == "lowino"
        reread = WisdomFile(path)
        assert reread.lookup_algorithm("numpy|b2c8h8w8k16r3s1p1")["m"] == 4
        assert len(reread) == 1

    def test_first_writer_wins_across_instances(self, tmp_path):
        path = tmp_path / "wisdom.json"
        a = WisdomFile(path)
        b = WisdomFile(path)
        a.store_algorithm("numpy|g1", {"algorithm": "lowino", "m": 2})
        won = b.store_algorithm("numpy|g1", {"algorithm": "int8_direct", "m": 0})
        # the disk-wins merge hands b the earlier persisted choice
        assert won["algorithm"] == "lowino"
        assert WisdomFile(path).lookup_algorithm("numpy|g1")["algorithm"] == "lowino"

    def test_refresh_adopts_external_writes(self, tmp_path):
        path = tmp_path / "wisdom.json"
        a = WisdomFile(path)
        b = WisdomFile(path)
        assert b.refresh() is False  # nothing on disk yet
        a.store_algorithm("numpy|g2", {"algorithm": "int8_upcast", "m": 2})
        assert b.lookup_algorithm("numpy|g2") is None  # stale view
        assert b.refresh() is True
        assert b.lookup_algorithm("numpy|g2")["algorithm"] == "int8_upcast"
        assert b.refresh() is False  # mtime/inode/size unchanged


class TestDurability:
    """Atomic writes + corrupt-file recovery (the store() bugfix)."""

    def test_corrupt_file_warns_and_starts_fresh(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text('{"4x50x8x64": {"params"')  # truncated mid-write
        with pytest.warns(RuntimeWarning, match="corrupt"):
            wf = WisdomFile(path)
        assert len(wf) == 0
        # store() re-reads the (still corrupt) on-disk file for merging,
        # warns once more, then atomically replaces it with valid JSON.
        with pytest.warns(RuntimeWarning, match="corrupt"):
            wf.store(4, 50, 8, 64, _result())
        assert WisdomFile(path).lookup(4, 50, 8, 64) == _params()

    def test_non_object_json_warns_and_starts_fresh(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text("[1, 2, 3]")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert len(WisdomFile(path)) == 0

    def test_store_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "wisdom.json"
        WisdomFile(path).store(4, 50, 8, 64, _result())
        # the flock sidecar is deliberately persistent (unlinking it
        # would reopen the lock race); nothing else may remain
        assert {p.name for p in tmp_path.iterdir()} == {
            "wisdom.json", "wisdom.json.lock"
        }

    def test_failed_replace_preserves_old_file_and_cleans_tmp(
        self, tmp_path, monkeypatch
    ):
        import repro.tuning.wisdom as wisdom_module

        path = tmp_path / "wisdom.json"
        wf = WisdomFile(path)
        wf.store(4, 50, 8, 64, _result())
        before = path.read_text()

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(wisdom_module.os, "replace", broken_replace)
        with pytest.raises(OSError):
            wf.store(4, 51, 8, 64, _result())
        monkeypatch.undo()
        # the old complete document is untouched, no tmp litter remains
        assert path.read_text() == before
        assert {p.name for p in tmp_path.iterdir()} == {
            "wisdom.json", "wisdom.json.lock"
        }
        assert WisdomFile(path).lookup(4, 50, 8, 64) == _params()

    def test_store_merges_concurrent_writers(self, tmp_path):
        # Two WisdomFile instances on the same path (two tuner
        # processes): the second store must not clobber what the first
        # one persisted after this instance loaded.
        path = tmp_path / "wisdom.json"
        a = WisdomFile(path)
        b = WisdomFile(path)
        a.store(4, 50, 8, 64, _result())
        b.store(4, 51, 8, 64, _result())
        merged = WisdomFile(path)
        assert merged.lookup(4, 50, 8, 64) == _params()
        assert merged.lookup(4, 51, 8, 64) == _params()


def _stress_worker(path, worker_id, n_keys):
    """One writer process: disjoint keys batched, then a contended key."""
    from repro.tuning.wisdom import WisdomFile

    wf = WisdomFile(path)
    with wf.batch():
        for i in range(n_keys):
            wf.store_algorithm(
                f"numpy|proc{worker_id}-{i}",
                {"algorithm": "lowino", "m": 2, "worker": worker_id},
            )
    for _ in range(3):  # unbatched stores: full read-merge-write races
        wf.store_algorithm(
            "numpy|shared", {"algorithm": "int8_direct", "m": 0,
                             "worker": worker_id}
        )


@pytest.mark.concurrency
class TestMultiProcessDurability:
    def test_no_entry_lost_across_processes(self, tmp_path):
        path = tmp_path / "wisdom.json"
        n_procs, n_keys = 4, 8
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_stress_worker, args=(str(path), wid, n_keys))
            for wid in range(n_procs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # the file parses, every disjoint key survived, and the
        # contended key converged to exactly one entry
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA_VERSION
        wf = WisdomFile(path)
        entries = wf.algorithm_entries()
        expected = {
            f"numpy|proc{wid}-{i}"
            for wid in range(n_procs)
            for i in range(n_keys)
        }
        assert expected <= set(entries)
        shared = entries["numpy|shared"]
        assert shared["worker"] in range(n_procs)
        assert len(entries) == n_procs * n_keys + 1
