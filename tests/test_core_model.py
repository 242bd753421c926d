"""Tests for the DeepCSI CNN architecture builder."""

import numpy as np
import pytest

from repro.core.model import (
    DeepCsiModelConfig,
    FAST_MODEL_CONFIG,
    ModelConfigError,
    PAPER_MODEL_CONFIG,
    build_deepcsi_model,
    count_parameters,
)
from repro.nn.attention import SpatialAttention
from repro.nn.layers import AlphaDropout, Conv2D, Dense, MaxPool2D


class TestModelConfig:
    def test_paper_configuration_values(self):
        assert PAPER_MODEL_CONFIG.num_conv_layers == 5
        assert PAPER_MODEL_CONFIG.num_filters == 128
        assert PAPER_MODEL_CONFIG.kernel_widths == (7, 7, 7, 5, 3)
        assert PAPER_MODEL_CONFIG.dense_units == (128, 64)
        assert PAPER_MODEL_CONFIG.dropout_retain == (0.5, 0.2)

    def test_with_conv_layers_extends_or_truncates_schedule(self):
        reduced = PAPER_MODEL_CONFIG.with_conv_layers(3)
        assert reduced.num_conv_layers == 3
        assert reduced.kernel_widths == (7, 5, 3)
        extended = PAPER_MODEL_CONFIG.with_conv_layers(7)
        assert extended.num_conv_layers == 7
        assert extended.kernel_widths == (7, 7, 7, 7, 7, 5, 3)

    def test_with_filters(self):
        assert PAPER_MODEL_CONFIG.with_filters(32).num_filters == 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_filters=0),
            dict(kernel_widths=()),
            dict(kernel_widths=(0,)),
            dict(pool_width=0),
            dict(dense_units=()),
            dict(dense_units=(64,), dropout_retain=(0.5, 0.2)),
            dict(dropout_retain=(0.0, 0.2)),
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        base = dict(
            num_filters=16,
            kernel_widths=(3, 3),
            pool_width=2,
            dense_units=(16, 8),
            dropout_retain=(0.5, 0.5),
        )
        base.update(kwargs)
        with pytest.raises(ModelConfigError):
            DeepCsiModelConfig(**base)


class TestBuildModel:
    def test_paper_parameter_count_matches_paper(self):
        # Input: 234 sub-carriers, 1 spatial stream, 2M-1 = 5 channels, 10
        # classes.  The paper quotes 489,301 trainable parameters; the
        # reconstruction yields 489,305 (the difference is the accounting of
        # the attention-convolution bias).
        total = count_parameters((5, 1, 234), 10, PAPER_MODEL_CONFIG)
        assert total == 489_305
        assert abs(total - 489_301) <= 10

    def test_forward_shape(self, rng):
        model = build_deepcsi_model((5, 1, 58), 10, FAST_MODEL_CONFIG, rng=np.random.default_rng(0))
        logits = model.forward(rng.standard_normal((4, 5, 1, 58)))
        assert logits.shape == (4, 10)

    def test_architecture_block_structure(self):
        model = build_deepcsi_model((5, 1, 58), 10, FAST_MODEL_CONFIG, rng=np.random.default_rng(0))
        layer_types = [type(layer) for layer in model.layers]
        assert layer_types.count(Conv2D) == FAST_MODEL_CONFIG.num_conv_layers
        assert layer_types.count(MaxPool2D) == FAST_MODEL_CONFIG.num_conv_layers
        assert layer_types.count(SpatialAttention) == 1
        assert layer_types.count(AlphaDropout) == len(FAST_MODEL_CONFIG.dense_units)
        # Hidden dense layers plus the output classifier.
        assert layer_types.count(Dense) == len(FAST_MODEL_CONFIG.dense_units) + 1

    @pytest.mark.parametrize(
        "config",
        [PAPER_MODEL_CONFIG, FAST_MODEL_CONFIG, DeepCsiModelConfig(num_filters=4, dense_units=(8, 8))],
        ids=["paper", "fast", "tiny"],
    )
    def test_inference_bits_do_not_depend_on_the_batch(self, config):
        # A sample's fp64 logits carry the same bits in every batch it can
        # arrive in, alone included, so no micro-batch cut of a streaming
        # engine changes a result.
        model = build_deepcsi_model((5, 1, 59), 10, config, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((13, 5, 1, 59))
        full = model.forward(x)
        for size in range(1, 13):
            for start in range(0, 13, size):
                part = model.forward(x[start : start + size])
                assert part.tobytes() == full[start : start + size].tobytes(), (size, start)

    def test_backward_pass_runs(self, rng):
        model = build_deepcsi_model((3, 1, 32), 4, FAST_MODEL_CONFIG, rng=np.random.default_rng(0))
        x = rng.standard_normal((2, 3, 1, 32))
        logits = model.forward(x, training=True)
        grad = model.backward(np.ones_like(logits))
        assert grad.shape == x.shape

    def test_more_filters_means_more_parameters(self):
        small = count_parameters((5, 1, 58), 10, FAST_MODEL_CONFIG.with_filters(8))
        large = count_parameters((5, 1, 58), 10, FAST_MODEL_CONFIG.with_filters(32))
        assert large > small

    def test_too_many_pooling_stages_rejected(self):
        config = DeepCsiModelConfig(
            num_filters=4,
            kernel_widths=(3,) * 8,
            pool_width=2,
            dense_units=(8,),
            dropout_retain=(0.5,),
        )
        with pytest.raises(ModelConfigError):
            build_deepcsi_model((5, 1, 58), 10, config)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ModelConfigError):
            build_deepcsi_model((5, 1), 10, FAST_MODEL_CONFIG)
        with pytest.raises(ModelConfigError):
            build_deepcsi_model((5, 1, 58), 1, FAST_MODEL_CONFIG)
        with pytest.raises(ModelConfigError):
            build_deepcsi_model((0, 1, 58), 10, FAST_MODEL_CONFIG)

    def test_seeded_builds_are_identical(self, rng):
        x = rng.standard_normal((2, 5, 1, 58))
        a = build_deepcsi_model((5, 1, 58), 10, FAST_MODEL_CONFIG, rng=np.random.default_rng(3))
        b = build_deepcsi_model((5, 1, 58), 10, FAST_MODEL_CONFIG, rng=np.random.default_rng(3))
        np.testing.assert_allclose(a.forward(x), b.forward(x))
