"""Measured algorithm selection: admission, determinism, convergence."""

import numpy as np
import pytest

from repro.nn.quantize import quantize_model
from repro.runtime.bench import ModelCase, build_case_model
from repro.tuning import (
    AlgorithmSelector,
    ConvGeometry,
    WisdomFile,
    candidate_algorithms,
    conv_family,
    model_geometries,
    swap_preserves_calibration,
)

GEOM = ConvGeometry(batch=1, c=4, h=8, w=8, k=4)


def _selector(tmp_path, name="wisdom.json", **kwargs):
    kwargs.setdefault("repeats", 1)
    return AlgorithmSelector(wisdom=WisdomFile(tmp_path / name), **kwargs)


class TestCandidates:
    def test_budget_admits_f2_f4_rejects_f6(self):
        labels = candidate_algorithms(GEOM)
        ms = {m for _, m in labels}
        assert ms == {0, 2, 4}  # direct + F(2,3) + F(4,3); F(6,3) is out
        assert ("int8_direct", 0) in labels
        assert ("lowino", 2) in labels and ("lowino", 4) in labels

    def test_strict_budget_leaves_only_direct(self):
        assert candidate_algorithms(GEOM, min_snr_db=1000.0) == [
            ("int8_direct", 0)
        ]

    def test_strided_geometry_is_direct_only(self):
        strided = ConvGeometry(batch=1, c=4, h=8, w=8, k=4, stride=2)
        assert candidate_algorithms(strided) == [("int8_direct", 0)]


class TestSelection:
    def test_static_always_measured_so_never_regresses(self, tmp_path):
        res = _selector(tmp_path).select(GEOM)
        assert res.source == "measured"
        assert res.static in res.measured
        assert res.static_ratio >= 1.0

    def test_same_seed_same_measurement_inputs(self, tmp_path):
        # Selection out of wisdom is deterministic by construction; the
        # deeper property is that two *fresh* selectors draw identical
        # measurement tensors for a geometry (SeedSequence over the
        # geometry fields), so candidate sets and labels always agree.
        a = _selector(tmp_path, "a.json").select(GEOM, measure=False)
        b = _selector(tmp_path, "b.json").select(GEOM, measure=False)
        assert (a.algorithm, a.m, a.source) == (b.algorithm, b.m, "static")

    def test_wisdom_hit_short_circuits_measurement(self, tmp_path):
        sel = _selector(tmp_path)
        first = sel.select(GEOM)
        sel.measure = None  # any further measurement would crash
        again = sel.select(GEOM)
        assert again.source == "wisdom"
        assert (again.algorithm, again.m) == (first.algorithm, first.m)

    def test_measure_false_miss_is_static_fallback(self, tmp_path):
        res = _selector(tmp_path).select(GEOM, measure=False)
        assert res.source == "static"
        assert res.label == res.static

    def test_abort_hook_stops_measurement(self, tmp_path):
        sel = _selector(tmp_path)
        assert sel.select(GEOM, abort=lambda: True) is None
        assert sel.wisdom.lookup_algorithm(GEOM.key()) is None

    def test_two_workers_share_one_wisdom_file(self, tmp_path):
        path = tmp_path / "wisdom.json"
        a = AlgorithmSelector(wisdom=WisdomFile(path), repeats=1)
        b = AlgorithmSelector(wisdom=WisdomFile(path), repeats=1)
        first = a.select(GEOM)
        second = b.select(GEOM)  # wisdom refresh -> adopts a's choice
        assert second.source == "wisdom"
        assert second.label == first.label

    def test_first_writer_wins_on_store_race(self, tmp_path):
        path = tmp_path / "wisdom.json"
        a = AlgorithmSelector(wisdom=WisdomFile(path), repeats=1)
        b = AlgorithmSelector(wisdom=WisdomFile(path), repeats=1)
        first = a.select(GEOM)
        # b measured concurrently (stale wisdom view) and tries to
        # persist a conflicting choice; the disk merge makes it adopt
        # the earlier entry instead.
        res = b.measure(GEOM)
        forced = res.entry()
        forced["algorithm"] = "int8_direct" if first.algorithm != "int8_direct" \
            else "int8_upcast"
        won = b.wisdom.store_algorithm(GEOM.key(), forced)
        assert won["algorithm"] == first.algorithm


class TestSwapSafety:
    """Engine swaps must preserve calibrated (static) quantization."""

    def _quantized_model(self, algorithm):
        model = build_case_model(ModelCase("resnet", algorithm, hw=8, width=8))
        calib = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
        quantize_model(model, algorithm, m=2, calibration_batches=[calib])
        return model

    def test_spatial_family_swaps_carry_threshold(self):
        model = self._quantized_model("int8_direct")
        _, conv, _ = model_geometries(model, (2, 3, 8, 8))[0]
        assert swap_preserves_calibration(conv, "int8_downscale", 4)
        assert swap_preserves_calibration(conv, "int8_upcast", 2)

    def test_lowino_target_never_applicable(self):
        model = self._quantized_model("int8_direct")
        _, conv, _ = model_geometries(model, (2, 3, 8, 8))[0]
        assert not swap_preserves_calibration(conv, "lowino", 4)

    def test_lowino_source_cannot_seed_spatial_threshold(self):
        model = self._quantized_model("lowino")
        for _, conv, geom in model_geometries(model, (2, 3, 8, 8)):
            if not geom.winograd_eligible:
                continue  # strided convs fall back to int8_direct
            assert not swap_preserves_calibration(conv, "int8_downscale", 4)

    def test_no_op_swap_is_always_applicable(self):
        model = self._quantized_model("lowino")
        for _, conv, geom in model_geometries(model, (2, 3, 8, 8)):
            if not geom.winograd_eligible:
                continue
            assert swap_preserves_calibration(conv, "lowino", 2)

    def test_fp32_conv_is_never_swapped(self):
        model = build_case_model(ModelCase("resnet", "fp32", hw=8, width=8))
        _, conv, _ = model_geometries(model, (2, 3, 8, 8))[0]
        assert conv.engine is None
        assert not swap_preserves_calibration(conv, "int8_direct", 0)


class TestFp32Family:
    """fp32_winograd@m vs fp32_direct selection under family keys."""

    def _fp32_model(self):
        return build_case_model(ModelCase("resnet", "fp32", hw=8, width=8))

    def test_conv_family_classifies_engines(self):
        fp32 = self._fp32_model()
        _, conv, _ = model_geometries(fp32, (2, 3, 8, 8))[0]
        assert conv_family(conv) == "fp32"  # engine is None
        from repro.conv.fp32 import Fp32WinogradConv2d

        conv.engine = Fp32WinogradConv2d(conv.filters, m=2, padding=conv.padding)
        assert conv_family(conv) == "fp32"
        quantized = build_case_model(ModelCase("resnet", "int8_direct", hw=8, width=8))
        calib = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
        quantize_model(quantized, "int8_direct", m=2, calibration_batches=[calib])
        _, qconv, _ = model_geometries(quantized, (2, 3, 8, 8))[0]
        assert conv_family(qconv) == "quantized"

    def test_fp32_candidates_have_no_snr_gate(self):
        # Full precision *is* the oracle: every tile size is admitted,
        # even under a budget that strips the quantized family to direct.
        labels = candidate_algorithms(GEOM, min_snr_db=1000.0, family="fp32")
        assert labels == [
            ("fp32_direct", 0), ("fp32_winograd", 2), ("fp32_winograd", 4)
        ]

    def test_strided_fp32_geometry_is_direct_only(self):
        strided = ConvGeometry(batch=1, c=4, h=8, w=8, k=4, stride=2)
        assert candidate_algorithms(strided, family="fp32") == [
            ("fp32_direct", 0)
        ]

    def test_family_keys_are_namespaced(self):
        # fp32 entries live beside (never on top of) quantized ones.
        assert GEOM.key() == GEOM.key(family="quantized")
        assert "|fp32|" in GEOM.key(family="fp32")
        assert GEOM.key(family="fp32") != GEOM.key()

    def test_fp32_swaps_are_always_calibration_safe(self):
        model = self._fp32_model()
        _, conv, _ = model_geometries(model, (2, 3, 8, 8))[0]
        assert swap_preserves_calibration(conv, "fp32_winograd", 4)
        assert swap_preserves_calibration(conv, "fp32_direct", 0)

    def test_fp32_target_never_applies_to_quantized_conv(self):
        model = build_case_model(ModelCase("resnet", "int8_direct", hw=8, width=8))
        calib = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
        quantize_model(model, "int8_direct", m=2, calibration_batches=[calib])
        _, conv, _ = model_geometries(model, (2, 3, 8, 8))[0]
        assert not swap_preserves_calibration(conv, "fp32_winograd", 2)

    def test_fp32_selection_bitwise_after_swap(self, tmp_path):
        # An fp32-family selection applied through build_engine_for must
        # be bitwise vs the class built directly from the filters.
        from repro.conv.fp32 import Fp32WinogradConv2d
        from repro.tuning import build_engine_for

        model = self._fp32_model()
        _, conv, geom = model_geometries(model, (2, 3, 8, 8))[0]
        x = np.random.default_rng(1).standard_normal(
            (geom.batch, geom.c, geom.h, geom.w)
        )
        engine = build_engine_for(conv, "fp32_winograd", 2)
        ref = Fp32WinogradConv2d(conv.filters, m=2, padding=conv.padding)
        np.testing.assert_array_equal(engine(x), ref(x))

    def test_fp32_selection_round_trips_through_wisdom(self, tmp_path):
        sel = _selector(tmp_path)
        first = sel.select(GEOM, family="fp32")
        assert first.source == "measured"
        assert first.algorithm.startswith("fp32_")
        assert first.static == "fp32_direct@0"
        sel.measure = None  # any further measurement would crash
        again = sel.select(GEOM, family="fp32")
        assert again.source == "wisdom"
        assert again.label == first.label
        assert sel.wisdom.lookup_algorithm(
            GEOM.key(family="fp32")
        ) is not None
        # ...without contaminating the quantized namespace.
        assert sel.wisdom.lookup_algorithm(GEOM.key()) is None

    def test_apply_selection_swaps_fp32_engine_at_lowering(self, tmp_path):
        from repro.nn.graph import trace
        from repro.runtime.compiler import apply_selection

        model = self._fp32_model()
        graph = trace(model, (2, 3, 8, 8))
        _, conv, geom = model_geometries(model, (2, 3, 8, 8))[0]
        # Seed wisdom with a forced fp32_winograd@4 choice for this conv.
        sel = _selector(tmp_path)
        sel.wisdom.store_algorithm(
            geom.key(family="fp32"),
            {"algorithm": "fp32_winograd", "m": 4, "measured": {},
             "static": "fp32_direct@0"},
        )
        applied = apply_selection(graph, sel)
        from repro.conv.fp32 import Fp32WinogradConv2d

        assert any(label == "fp32_winograd@4" for label in applied.values())
        assert isinstance(conv.engine, Fp32WinogradConv2d)
        assert conv.engine.m == 4

    def test_refresh_selection_adopts_fp32_wisdom(self, tmp_path):
        from repro.runtime.session import InferenceSession

        model = self._fp32_model()
        sel = _selector(tmp_path)
        session = InferenceSession(model, (2, 3, 8, 8), selector=sel)
        x = np.random.default_rng(2).standard_normal((2, 3, 8, 8))
        before = session.run(x)
        for step in session.program.steps:
            if step.kind != "conv":
                continue
            geom = ConvGeometry.of_conv(
                step.node.layer, session.program.graph.in_shape(step.node)
            )
            if not geom.winograd_eligible:
                continue
            sel.wisdom.store_algorithm(
                geom.key(family="fp32"),
                {"algorithm": "fp32_winograd", "m": 2, "measured": {},
                 "static": "fp32_direct@0"},
            )
        changed = session.refresh_selection()
        assert changed  # at least one conv re-lowered onto fp32_winograd
        after = session.run(x)
        assert after.shape == before.shape
        np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-9)


@pytest.mark.slow
class TestModelSweep:
    def test_model_geometries_dedupe_and_select(self, tmp_path):
        model = build_case_model(ModelCase("resnet", "auto", hw=8, width=8))
        geoms = model_geometries(model, (2, 3, 8, 8))
        assert len(geoms) >= 5
        sel = _selector(tmp_path)
        with sel.wisdom.batch():
            results = {g.key(): sel.select(g)
                       for _, _, g in geoms}
        for res in results.values():
            assert res.static_ratio >= 0.999
        # every choice now answers from wisdom, identically
        for _, _, g in geoms:
            again = sel.select(g, measure=False)
            assert again.source == "wisdom"
            assert again.label == results[g.key()].label
