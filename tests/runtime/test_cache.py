"""Plan cache: LRU semantics, byte bounds, counters, plan integration."""

import numpy as np
import pytest

from repro.runtime import (
    ExecutionEngine,
    PlanCache,
    cache_stats,
    clear_cache,
    default_cache,
    get_plan,
)
from repro.runtime.plan import plan_key


class TestLru:
    def test_capacity_evicts_least_recent(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert "a" not in cache
        assert cache.get("b") == 2 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_hit_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now least recent
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_reput_updates_value_without_growth(self):
        cache = PlanCache(capacity=4)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1 and cache.get("a") == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestLfu:
    def test_eviction_policy_validation(self):
        with pytest.raises(ValueError):
            PlanCache(eviction="mru")
        assert PlanCache().eviction == "lru"  # default is unchanged

    def test_hot_key_survives_pressure_where_lru_evicts_it(self):
        # A hot plan touched early, then a burst of one-off shapes: LRU
        # churns the hot key out, LFU keeps it resident.
        def burst(cache):
            cache.put("hot", "plan")
            for _ in range(5):
                cache.get("hot")
            for i in range(4):
                cache.put(f"oneoff{i}", i)

        lru = PlanCache(capacity=3, eviction="lru")
        burst(lru)
        assert "hot" not in lru

        lfu = PlanCache(capacity=3, eviction="lfu")
        burst(lfu)
        assert "hot" in lfu
        assert lfu.get("hot") == "plan"

    def test_lfu_ties_break_by_recency(self):
        cache = PlanCache(capacity=2, eviction="lfu")
        cache.put("a", 1)
        cache.put("b", 2)  # both cold (0 hits); "a" is least recent
        cache.put("c", 3)
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_hit_counts_exported_and_pruned(self):
        cache = PlanCache(capacity=2, eviction="lfu")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.get("a")
        cache.get("b")
        assert cache.hit_counts() == {"a": 2, "b": 1}
        cache.put("c", 3)  # evicts "b" (fewest hits)
        assert set(cache.hit_counts()) == {"a", "c"}

    def test_get_or_build_feeds_counters(self):
        cache = PlanCache(capacity=4, eviction="lfu")
        cache.get_or_build("k", lambda: "v")
        assert cache.hit_counts() == {"k": 0}  # build is a miss
        cache.get_or_build("k", lambda: "w")
        assert cache.hit_counts() == {"k": 1}

    def test_clear_drops_counters(self):
        cache = PlanCache(capacity=4, eviction="lfu")
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert cache.hit_counts() == {}


class TestByteBound:
    def test_bytes_tracked_and_bounded(self):
        one_kb = np.zeros(1024, dtype=np.uint8)
        cache = PlanCache(capacity=100, max_bytes=3 * one_kb.nbytes)
        for i in range(5):
            cache.put(i, one_kb.copy())
        assert cache.stats.bytes <= 3 * one_kb.nbytes
        assert cache.stats.evictions == 2
        assert len(cache) == 3

    def test_oversized_entry_keeps_at_least_one(self):
        cache = PlanCache(capacity=8, max_bytes=16)
        cache.put("big", np.zeros(1024, dtype=np.uint8))
        assert len(cache) == 1  # never evicts down to empty

    def test_post_insert_scratch_growth_visible_and_evictable(self, rng):
        """Running a cached plan grows scratch *after* its insert.  The
        growth lands in the engine's scratch pool, where its telemetry
        shows it; the cache's byte count stays the summed plan
        footprints, so evicting a plan that ran never drives ``bytes``
        negative and leaves the engine's scratch in place."""
        probe = get_plan(
            "lowino", rng.standard_normal((4, 4, 3, 3)), m=2, padding=1,
            cache=PlanCache(capacity=4),
        )
        cache = PlanCache(capacity=8, max_bytes=int(probe.nbytes) + 1)
        engine = ExecutionEngine(cache=cache)
        w1 = rng.standard_normal((4, 4, 3, 3))
        first = engine.plan_for(w1, "lowino", m=2, padding=1)
        charged = cache.stats_dict()["bytes"]
        assert charged == int(first.nbytes)
        assert engine.scratch.stats_dict()["nbytes"] == 0

        engine.execute(first, rng.standard_normal((2, 4, 8, 8)))
        grown = engine.scratch.stats_dict()["nbytes"]
        assert grown > 0  # growth is visible in the scratch telemetry
        assert cache.stats_dict()["bytes"] == charged  # not charged to the plan

        w2 = rng.standard_normal((4, 4, 3, 3))
        engine.plan_for(w2, "lowino", m=2, padding=1)  # over the byte bound
        assert len(cache) == 1 and cache.stats.evictions == 1
        assert first.key not in cache  # the plan that ran was evicted
        assert cache.stats.bytes == sum(
            int(p.nbytes) for p in cache._entries.values()
        ) >= 0
        assert engine.scratch.stats_dict()["nbytes"] == grown  # scratch stays

    def test_bytes_never_negative(self):
        """Bytes are charged at insert and refunded on same-key replace,
        eviction and clear, so ``stats.bytes`` always equals the summed
        ``nbytes`` of the resident entries."""

        class Entry:
            def __init__(self, nbytes):
                self.nbytes = nbytes

        cache = PlanCache(capacity=3, max_bytes=100)

        def check():
            resident = sum(e.nbytes for e in cache._entries.values())
            assert cache.stats.bytes == resident >= 0
            assert cache.stats_dict()["bytes"] == resident

        for i in range(3):
            cache.put(i, Entry(20))
            check()
        cache.put(1, Entry(50))  # same-key replace refunds the old 20
        check()
        assert cache.stats.bytes == 90 and cache.stats.evictions == 0
        cache.put("big", Entry(40))  # over both bounds: evicts until it fits
        check()
        assert cache.stats.evictions == 2 and cache.stats.bytes <= 100
        cache.put("huge", Entry(500))  # alone over the byte bound: kept
        check()
        assert len(cache) == 1 and cache.stats.bytes == 500
        cache.clear()
        check()
        assert cache.stats.bytes == 0

    def test_clear_resets_residency(self):
        cache = PlanCache(capacity=8)
        cache.put("a", np.zeros(64, dtype=np.uint8))
        cache.clear()
        assert len(cache) == 0 and cache.stats.bytes == 0
        assert cache.stats.misses == 0  # counters other than bytes kept


class TestStats:
    def test_counters_and_hit_rate(self):
        cache = PlanCache(capacity=4)
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == 0.5
        d = stats.as_dict()
        assert set(d) == {"hits", "misses", "evictions", "bytes", "entries", "hit_rate"}

    def test_get_or_build_builds_once(self):
        cache = PlanCache(capacity=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_build("k", lambda: calls.append(1) or "built")
        assert value == "built"
        assert len(calls) == 1
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_reset_stats_keeps_entries_and_remeasures_bytes(self):
        cache = PlanCache(capacity=4)
        cache.put("a", np.zeros(16, dtype=np.float64))
        cache.get("a")
        cache.get("missing")
        cache.reset_stats()
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)
        assert stats.entries == 1
        assert stats.bytes == 128  # the live entry's footprint is kept
        assert cache.get("a") is not None  # entry survived the reset


class TestPlanIntegration:
    def test_same_layer_hits(self, rng):
        cache = PlanCache(capacity=16)
        w = rng.standard_normal((4, 4, 3, 3))
        p1 = get_plan("lowino", w, m=2, padding=1, cache=cache)
        p2 = get_plan("lowino", w, m=2, padding=1, cache=cache)
        assert p1 is p2
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_key_separates_configurations(self, rng):
        w = rng.standard_normal((4, 4, 3, 3))
        keys = {
            plan_key("lowino", w, 2, 1, {}),
            plan_key("lowino", w, 4, 1, {}),
            plan_key("lowino", w, 2, 0, {}),
            plan_key("int8_upcast", w, 2, 1, {}),
            plan_key("lowino", w + 1.0, 2, 1, {}),
        }
        assert len(keys) == 5

    def test_ndarray_kwarg_bypasses_cache(self, rng):
        w = rng.standard_normal((4, 4, 3, 3))
        assert plan_key("lowino", w, 2, 1, {"thr": np.ones(4)}) is None
        cache = PlanCache(capacity=16)
        p1 = get_plan("lowino", w, m=2, padding=1, cache=cache,
                      calibration_method="minmax")
        assert p1 is not None  # scalar kwargs still cacheable
        assert len(cache) == 1

    def test_plan_reports_footprint(self, rng):
        w = rng.standard_normal((4, 4, 3, 3))
        plan = get_plan("lowino", w, m=2, padding=1, cache=PlanCache(capacity=4))
        assert plan.nbytes > w.nbytes  # layer arrays + engine operands

    def test_numpy_integer_nbytes_counted(self):
        """``nbytes`` built by summing ndarray footprints is a NumPy
        integer, which is *not* an ``int`` subclass; the byte accounting
        used to report 0 for such entries and the bound never fired."""

        class PlanLike:
            nbytes = np.int64(512)

        cache = PlanCache(capacity=8, max_bytes=1024)
        cache.put("a", PlanLike())
        assert cache.stats.bytes == 512
        cache.put("b", PlanLike())
        cache.put("c", PlanLike())
        assert cache.stats.evictions == 1
        assert cache.stats.bytes <= 1024

    def test_byte_bound_evicts_real_plans(self, rng):
        """End-to-end: ConvPlan entries must be visible to the byte
        bound, so a small ``max_bytes`` actually evicts plans."""
        probe = get_plan(
            "lowino",
            rng.standard_normal((4, 4, 3, 3)),
            m=2,
            padding=1,
            cache=PlanCache(capacity=4),
        )
        cache = PlanCache(capacity=100, max_bytes=2 * int(probe.nbytes))
        for _ in range(5):
            w = rng.standard_normal((4, 4, 3, 3))
            get_plan("lowino", w, m=2, padding=1, cache=cache)
        assert cache.stats.evictions >= 2
        assert cache.stats.bytes <= cache.max_bytes
        assert len(cache) <= 2


class TestDefaultCache:
    def test_module_level_helpers(self, rng):
        clear_cache()
        before = cache_stats()
        w = rng.standard_normal((2, 2, 3, 3))
        get_plan("fp32_direct", w, padding=0)
        after = cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert default_cache().stats.entries >= 1
        clear_cache()
        assert cache_stats()["entries"] == 0
