"""Section 4.4: static scheduling load balance and multicore scaling."""

from repro.parallel import StaticSchedule
from repro.perf import predict_layer_times
from repro.workloads import TABLE2_LAYERS, layer_by_name


def test_static_schedule_balance_table():
    """Per-layer tile-task imbalance at omega = 8 (the paper's claim:
    power-of-two dimensions make the assignment balanced)."""
    print()
    for layer in TABLE2_LAYERS[:8]:
        tiles = layer.batch * layer.tiles(2)
        imb = StaticSchedule.for_tasks(tiles, 8).imbalance()
        print(f"  {layer.name:14s} {tiles:6d} tiles -> imbalance {imb:.3f}")
        assert imb < 1.25


def test_modeled_multicore_scaling():
    """Cost-model strong scaling of LoWino F(4,3) on a big layer."""
    layer = layer_by_name("VGG16_b")
    times = {w: predict_layer_times(layer, cores=w)["lowino_f4"]
             for w in (1, 2, 4, 8)}
    print()
    for w, t in times.items():
        print(f"  omega={w}: {t*1e3:7.2f} ms (speedup {times[1]/t:4.2f}x)")
    assert times[1] / times[8] > 3.0  # DRAM-bound fraction caps scaling
    assert times[1] / times[2] > 1.5
