"""Whole-model post-training quantization driver."""

import numpy as np
import pytest

from repro.conv import Int8DirectConv2d
from repro.core import LoWinoConv2d
from repro.nn import (
    build_alexnet_small,
    dequantize_model,
    evaluate_model,
    make_eval_set,
    named_convs,
    quantize_model,
)


@pytest.fixture(scope="module")
def model():
    return build_alexnet_small(width=8)  # smallest builder: fast


@pytest.fixture(scope="module")
def dataset(model):
    return make_eval_set(model, n=48, noise_sigma=0.2, margin_quantile=0.5)


class TestQuantizeModel:
    def test_engines_installed_and_removed(self, model, dataset):
        quantize_model(model, "int8_direct",
                       calibration_batches=dataset.calibration_batches(1, 16))
        for _, conv in named_convs(model):
            assert isinstance(conv.engine, Int8DirectConv2d)
            assert conv.engine.input_threshold is not None
        dequantize_model(model)
        assert all(conv.engine is None for _, conv in named_convs(model))

    def test_lowino_layers_calibrated(self, model, dataset):
        quantize_model(model, "lowino", m=2,
                       calibration_batches=dataset.calibration_batches(1, 16))
        for _, conv in named_convs(model):
            assert isinstance(conv.engine, LoWinoConv2d)
            assert conv.engine.is_calibrated
        dequantize_model(model)

    def test_lowino_without_calibration_is_dynamic(self, model):
        quantize_model(model, "lowino", m=2)
        assert all(not conv.engine.is_calibrated for _, conv in named_convs(model))
        dequantize_model(model)

    def test_unknown_algorithm(self, model):
        with pytest.raises(ValueError):
            quantize_model(model, "fp8_magic")

    def test_quantized_accuracy_close_to_fp32(self, model, dataset):
        noisy = dataset.noisy()
        fp32 = evaluate_model(model, noisy, dataset.labels,
                              logit_center=dataset.logit_center)
        quantize_model(model, "lowino", m=2,
                       calibration_batches=dataset.calibration_batches(2, 16))
        int8 = evaluate_model(model, noisy, dataset.labels,
                              logit_center=dataset.logit_center)
        dequantize_model(model)
        assert int8 >= fp32 - 0.25

    @pytest.mark.parametrize("algorithm", ["lowino", "int8_direct"])
    def test_nan_calibration_batch_raises(self, model, dataset, algorithm):
        """A NaN in the calibration set stops quantization instead of
        yielding a fallback threshold; the model stays FP32."""
        batch = next(dataset.calibration_batches(1, 16)).copy()
        batch[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            quantize_model(model, algorithm, m=2, calibration_batches=[batch])
        assert all(conv.engine is None for _, conv in named_convs(model))

    def test_dequantize_restores_fp32_outputs(self, model, dataset, rng):
        x = dataset.clean[:4]
        before = model(x)
        quantize_model(model, "int8_direct",
                       calibration_batches=dataset.calibration_batches(1, 16))
        dequantize_model(model)
        assert np.array_equal(model(x), before)


class TestStreamingCalibration:
    """quantize_model now streams batches through observers (O(1) memory)."""

    def test_generator_batches_accepted(self, model, dataset):
        batches = list(dataset.calibration_batches(2, 16))
        quantize_model(model, "int8_direct",
                       calibration_batches=(b for b in batches))
        thresholds = {name: conv.engine.input_threshold
                      for name, conv in named_convs(model)}
        dequantize_model(model)
        # One pass over a list gives the same engines as the generator.
        quantize_model(model, "int8_direct", calibration_batches=batches)
        for name, conv in named_convs(model):
            assert conv.engine.input_threshold == thresholds[name]
        dequantize_model(model)

    def test_lowino_streaming_matches_onepass(self, model, dataset):
        """Batch-by-batch histogram collection == legacy all-at-once."""
        batches = list(dataset.calibration_batches(2, 16))
        quantize_model(model, "lowino", m=2, calibration_batches=batches)
        streamed = {name: conv.engine.input_params
                    for name, conv in named_convs(model)}
        dequantize_model(model)
        # Rebuild engines by hand with the legacy calibrate() API.
        from repro.core import LoWinoConv2d

        inputs = {}
        for batch in batches:
            model.forward_capture(np.asarray(batch, dtype=np.float64), inputs)
        for name, conv in named_convs(model):
            engine = LoWinoConv2d(conv.filters, m=2, padding=conv.padding)
            engine.calibrate(inputs[id(conv)])
            assert np.array_equal(engine.input_params.scale,
                                  streamed[name].scale), name
