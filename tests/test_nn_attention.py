"""Tests for the spatial-attention block of the DeepCSI architecture."""

import numpy as np
import pytest

from repro.nn.attention import SpatialAttention
from repro.nn.layers import LayerError
from tests.gradcheck import check_layer_input_gradient, check_layer_parameter_gradients


class TestSpatialAttentionForward:
    def test_output_shape_matches_input(self, rng):
        layer = SpatialAttention((1, 3), rng=np.random.default_rng(0))
        x = rng.standard_normal((2, 5, 1, 12))
        assert layer.forward(x).shape == x.shape

    def test_output_is_input_scaled_between_one_and_two(self, rng):
        # y = x * sigmoid(...) + x, so y/x lies in (1, 2) element-wise.
        layer = SpatialAttention((1, 3), rng=np.random.default_rng(0))
        x = rng.standard_normal((2, 4, 1, 9)) + 5.0  # keep x positive
        ratio = layer.forward(x) / x
        assert np.all(ratio > 1.0)
        assert np.all(ratio < 2.0)

    def test_attention_weights_are_shared_across_channels(self, rng):
        layer = SpatialAttention((1, 3), rng=np.random.default_rng(0))
        x = rng.standard_normal((1, 4, 1, 6))
        y = layer.forward(x)
        scale = y / x - 1.0  # recover the sigmoid weight per position
        np.testing.assert_allclose(scale[0, 0], scale[0, 3], atol=1e-12)

    def test_parameters_come_from_internal_convolution(self):
        layer = SpatialAttention((1, 5), rng=np.random.default_rng(0))
        params = layer.parameters()
        assert set(params) == {"conv_weight", "conv_bias"}
        assert params["conv_weight"].shape == (1, 2, 1, 5)

    def test_requires_4d_input(self, rng):
        layer = SpatialAttention((1, 3), rng=np.random.default_rng(0))
        with pytest.raises(LayerError):
            layer.forward(rng.standard_normal((3, 4)))

    def test_backward_before_forward_rejected(self):
        layer = SpatialAttention((1, 3), rng=np.random.default_rng(0))
        with pytest.raises(LayerError):
            layer.backward(np.zeros((1, 2, 1, 4)))


class TestSpatialAttentionGradients:
    def test_input_gradient_matches_finite_differences(self, rng):
        layer = SpatialAttention((1, 3), rng=np.random.default_rng(0))
        # Distinct values keep the channel-argmax stable under perturbation.
        x = rng.permutation(np.arange(2 * 3 * 1 * 8)).reshape(2, 3, 1, 8) * 0.13
        check_layer_input_gradient(layer, x, rtol=1e-3, atol=1e-6)

    def test_parameter_gradients_match_finite_differences(self, rng):
        layer = SpatialAttention((1, 3), rng=np.random.default_rng(1))
        x = rng.permutation(np.arange(1 * 3 * 2 * 6)).reshape(1, 3, 2, 6) * 0.21
        check_layer_parameter_gradients(layer, x, rtol=1e-3, atol=1e-6)

    def test_skip_connection_keeps_gradient_flowing_when_attention_saturates(self, rng):
        layer = SpatialAttention((1, 3), rng=np.random.default_rng(0))
        # Drive the attention logits far negative so sigmoid ~ 0; the skip
        # connection must still pass the gradient through.
        layer.conv.bias[...] = -50.0
        x = rng.standard_normal((1, 2, 1, 6))
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 2, 1, 6)))
        assert np.all(np.abs(grad) > 0.9)
