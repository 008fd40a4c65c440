"""The paired-rounds timer every perf command measures through."""

import pytest

from repro.perf import Measurement, measure
from repro.perf import measured


def _recorder(calls, name):
    def fn():
        calls.append(name)
        return name
    return fn


class FakeClock:
    """``perf_counter`` stand-in: each call to a timed callable advances
    the clock by the next duration scripted for that callable."""

    def __init__(self, durations):
        self.now = 0.0
        self.durations = {name: list(ds) for name, ds in durations.items()}

    def __call__(self):
        return self.now

    def callable(self, name):
        def fn():
            self.now += self.durations[name].pop(0)
        return fn


class TestMeasure:
    def test_basic_statistics(self):
        m = measure({"sum": lambda: sum(range(1000))}, rounds=7)
        assert isinstance(m, Measurement)
        assert len(m.walls["sum"]) == 7
        assert min(m.walls["sum"]) <= m.median("sum") <= max(m.walls["sum"])
        assert m.ratio("sum", "sum") == 1.0

    def test_warmup_runs_before_timing(self):
        calls = []
        m = measure({"a": _recorder(calls, "a"), "b": _recorder(calls, "b")},
                    rounds=3)
        # One warm-up call each, first, then one call each per round.
        assert calls[:2] == ["a", "b"]
        assert calls.count("a") == calls.count("b") == 4
        assert m.outputs == {"a": "a", "b": "b"}

    def test_call_order_alternates_forward_then_reversed(self):
        calls = []
        measure({name: _recorder(calls, name) for name in "abc"}, rounds=4)
        timed = calls[3:]
        assert timed == list("abc" "cba" "abc" "cba")

    def test_ratio_is_median_of_per_round_ratios(self, monkeypatch):
        # Rounds 3-4 run in a slow phase, and a phase change splits round
        # 5: the median of per-round ratios reads 3.0, where a ratio of
        # medians would read 4.0 / 2.0.
        clock = FakeClock({
            "slow": [0.0, 3.0, 3.0, 6.0, 6.0, 4.0],
            "fast": [0.0, 1.0, 1.0, 2.0, 2.0, 4.0],
        })
        monkeypatch.setattr(measured, "perf_counter", clock)
        m = measure({"slow": clock.callable("slow"),
                     "fast": clock.callable("fast")}, rounds=5)
        assert m.walls["slow"] == [3.0, 3.0, 6.0, 6.0, 4.0]
        assert m.walls["fast"] == [1.0, 1.0, 2.0, 2.0, 4.0]
        assert m.median("slow") == 4.0 and m.median("fast") == 2.0
        assert m.ratio("slow", "fast") == 3.0
        assert m.ratio("fast", "slow") == pytest.approx(1 / 3)

    def test_abort_polled_between_calls(self):
        calls, polls = [], []

        def abort():
            polls.append(len(calls))
            return len(calls) == 5

        assert measure({"a": _recorder(calls, "a"), "b": _recorder(calls, "b")},
                       rounds=10, abort=abort) is None
        # Polled before every call, and nothing ran after it said stop.
        assert polls == [0, 1, 2, 3, 4, 5]
        assert len(calls) == 5

    def test_invalid_runs(self):
        with pytest.raises(ValueError):
            measure({"a": lambda: None}, rounds=0)
