"""Unit and gradient-check tests for the neural-network layers."""

import numpy as np
import pytest

from repro.nn.layers import (
    SELU_ALPHA,
    SELU_SCALE,
    AlphaDropout,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LayerError,
    MaxPool2D,
    Relu,
    Selu,
    Sigmoid,
    Softmax,
)
from tests.gradcheck import check_layer_input_gradient, check_layer_parameter_gradients


@pytest.fixture()
def feature_map(rng):
    return rng.standard_normal((3, 4, 2, 10))


class TestDense:
    def test_forward_matches_matmul(self, rng):
        layer = Dense(5, 3, rng=np.random.default_rng(0))
        x = rng.standard_normal((4, 5))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight + layer.bias)

    def test_gradients_match_finite_differences(self, rng):
        layer = Dense(6, 4, rng=np.random.default_rng(0))
        x = rng.standard_normal((3, 6))
        check_layer_input_gradient(layer, x)
        check_layer_parameter_gradients(layer, x)

    def test_parameter_count(self):
        layer = Dense(10, 7, rng=np.random.default_rng(0))
        assert layer.num_parameters == 10 * 7 + 7

    def test_shape_validation(self, rng):
        layer = Dense(5, 3, rng=np.random.default_rng(0))
        with pytest.raises(LayerError):
            layer.forward(rng.standard_normal((4, 6)))

    def test_backward_before_forward_rejected(self):
        layer = Dense(5, 3, rng=np.random.default_rng(0))
        with pytest.raises(LayerError):
            layer.backward(np.zeros((2, 3)))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(LayerError):
            Dense(0, 3)


class TestConv2D:
    def test_same_padding_preserves_spatial_size(self, feature_map):
        layer = Conv2D(4, 6, (1, 7), padding="same", rng=np.random.default_rng(0))
        out = layer.forward(feature_map)
        assert out.shape == (3, 6, 2, 10)

    def test_valid_padding_shrinks_spatial_size(self, feature_map):
        layer = Conv2D(4, 6, (2, 3), padding="valid", rng=np.random.default_rng(0))
        out = layer.forward(feature_map)
        assert out.shape == (3, 6, 1, 8)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_inference_matches_the_training_product(self, feature_map, padding):
        # Inference multiplies through fixed-shape GEMMs and training through
        # one tensordot: the same sums, rounded in another order at most.
        layer = Conv2D(4, 6, (2, 3), padding=padding, rng=np.random.default_rng(0))
        np.testing.assert_allclose(
            layer.forward(feature_map),
            layer.forward(feature_map, training=True),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_manual_convolution_result(self):
        # 1x1 spatial input, kernel (1,1): conv reduces to a channel mixing.
        layer = Conv2D(2, 1, (1, 1), rng=np.random.default_rng(0))
        layer.weight[...] = np.array([[[[2.0]], [[3.0]]]])
        layer.bias[...] = np.array([0.5])
        x = np.array([[[[1.0]], [[10.0]]]])  # (1, 2, 1, 1)
        out = layer.forward(x)
        assert out[0, 0, 0, 0] == pytest.approx(2.0 * 1.0 + 3.0 * 10.0 + 0.5)

    def test_gradients_match_finite_differences(self, rng):
        x = rng.standard_normal((2, 3, 2, 6))
        layer = Conv2D(3, 4, (1, 3), rng=np.random.default_rng(1))
        check_layer_input_gradient(layer, x)
        check_layer_parameter_gradients(layer, x)

    def test_valid_gradients_match_finite_differences(self, rng):
        x = rng.standard_normal((2, 2, 3, 6))
        layer = Conv2D(2, 3, (2, 3), padding="valid", rng=np.random.default_rng(1))
        check_layer_input_gradient(layer, x)
        check_layer_parameter_gradients(layer, x)

    def test_channel_mismatch_rejected(self, feature_map):
        layer = Conv2D(3, 4, (1, 3), rng=np.random.default_rng(0))
        with pytest.raises(LayerError):
            layer.forward(feature_map)

    def test_kernel_larger_than_valid_input_rejected(self, rng):
        layer = Conv2D(1, 1, (3, 3), padding="valid", rng=np.random.default_rng(0))
        with pytest.raises(LayerError):
            layer.forward(rng.standard_normal((1, 1, 2, 2)))

    def test_invalid_configuration_rejected(self):
        with pytest.raises(LayerError):
            Conv2D(2, 2, (0, 3))
        with pytest.raises(LayerError):
            Conv2D(2, 2, (1, 3), padding="reflect")


class TestMaxPool2D:
    def test_output_shape_and_values(self):
        layer = MaxPool2D((1, 2))
        x = np.array([[[[1.0, 5.0, 2.0, 3.0]]]])  # (1, 1, 1, 4)
        out = layer.forward(x)
        np.testing.assert_allclose(out, [[[[5.0, 3.0]]]])

    def test_odd_width_is_cropped(self):
        layer = MaxPool2D((1, 2))
        x = np.arange(5.0).reshape(1, 1, 1, 5)
        out = layer.forward(x)
        assert out.shape == (1, 1, 1, 2)

    def test_backward_routes_gradient_to_maxima(self):
        layer = MaxPool2D((1, 2))
        x = np.array([[[[1.0, 5.0, 2.0, 3.0]]]])
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[1.0, 2.0]]]]))
        np.testing.assert_allclose(grad, [[[[0.0, 1.0, 0.0, 2.0]]]])

    def test_gradients_match_finite_differences(self, rng):
        # Use distinct values so the argmax is stable under perturbation.
        x = rng.permutation(np.arange(48.0)).reshape(2, 2, 2, 6) * 0.1
        layer = MaxPool2D((2, 2))
        check_layer_input_gradient(layer, x)

    def test_pool_larger_than_input_rejected(self, rng):
        layer = MaxPool2D((4, 4))
        with pytest.raises(LayerError):
            layer.forward(rng.standard_normal((1, 1, 2, 2)))


class TestActivations:
    def test_selu_constants(self):
        assert SELU_ALPHA == pytest.approx(1.6732632423543772)
        assert SELU_SCALE == pytest.approx(1.0507009873554805)

    def test_selu_values(self):
        layer = Selu()
        x = np.array([[-1.0, 0.0, 2.0]])
        out = layer.forward(x)
        assert out[0, 1] == pytest.approx(0.0)
        assert out[0, 2] == pytest.approx(SELU_SCALE * 2.0)
        assert out[0, 0] == pytest.approx(SELU_SCALE * SELU_ALPHA * (np.exp(-1.0) - 1.0))

    def test_selu_preserves_standardised_statistics(self, rng):
        # The self-normalising property: for standard-normal inputs the
        # output mean stays near 0 and the variance near 1.
        x = rng.standard_normal((200, 500))
        out = Selu().forward(x)
        assert abs(out.mean()) < 0.05
        assert abs(out.std() - 1.0) < 0.1

    @pytest.mark.parametrize("layer_cls", [Selu, Relu, Sigmoid])
    def test_gradients_match_finite_differences(self, layer_cls, rng):
        x = rng.standard_normal((3, 7))
        check_layer_input_gradient(layer_cls(), x)

    def test_relu_zeroes_negatives(self):
        out = Relu().forward(np.array([[-2.0, 3.0]]))
        np.testing.assert_allclose(out, [[0.0, 3.0]])

    def test_sigmoid_range_and_midpoint(self, rng):
        out = Sigmoid().forward(rng.standard_normal((10, 10)) * 10)
        assert np.all(out > 0) and np.all(out < 1)
        assert Sigmoid().forward(np.zeros((1, 1)))[0, 0] == pytest.approx(0.5)

    def test_softmax_rows_sum_to_one(self, rng):
        out = Softmax().forward(rng.standard_normal((6, 4)) * 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_softmax_gradient(self, rng):
        x = rng.standard_normal((3, 5))
        check_layer_input_gradient(Softmax(), x)


class TestFlatten:
    def test_roundtrip_shapes(self, feature_map):
        layer = Flatten()
        out = layer.forward(feature_map)
        assert out.shape == (3, 4 * 2 * 10)
        grad = layer.backward(out)
        assert grad.shape == feature_map.shape


class TestDropout:
    def test_inference_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = rng.standard_normal((5, 8))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_training_mode_zeroes_and_scales(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        zero_fraction = np.mean(out == 0.0)
        assert 0.4 < zero_fraction < 0.6
        # Surviving activations are scaled by 1 / keep_probability.
        assert np.allclose(out[out != 0.0], 2.0)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((10, 10))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, out)

    def test_invalid_rate_rejected(self):
        with pytest.raises(LayerError):
            Dropout(1.0)


class TestAlphaDropout:
    def test_inference_mode_is_identity(self, rng):
        layer = AlphaDropout(0.5, rng=np.random.default_rng(0))
        x = rng.standard_normal((5, 8))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_training_approximately_preserves_mean_and_variance(self, rng):
        layer = AlphaDropout(0.8, rng=np.random.default_rng(0))
        x = rng.standard_normal((400, 400))
        out = layer.forward(x, training=True)
        assert abs(out.mean() - x.mean()) < 0.05
        assert abs(out.std() - x.std()) < 0.1

    def test_retain_probability_one_is_identity(self, rng):
        layer = AlphaDropout(1.0, rng=np.random.default_rng(0))
        x = rng.standard_normal((4, 4))
        np.testing.assert_allclose(layer.forward(x, training=True), x)

    def test_invalid_retain_probability_rejected(self):
        with pytest.raises(LayerError):
            AlphaDropout(0.0)


# --------------------------------------------------------------------------- #
# Kernel oracles: the pooling and SELU forwards are strided-max and fused
# kernels; these expressions are what they must reproduce byte for byte.
# --------------------------------------------------------------------------- #
def _maxpool_oracle(x, pool_size):
    ph, pw = pool_size
    b, c, h, w = x.shape
    oh, ow = h // ph, w // pw
    cropped = x[:, :, : oh * ph, : ow * pw]
    return cropped.reshape(b, c, oh, ph, ow, pw).max(axis=(3, 5))


def _selu_oracle(x):
    return SELU_SCALE * np.where(x > 0, x, SELU_ALPHA * (np.exp(x) - 1.0))


def _special_input(dtype, shape=(2, 3, 7, 11), seed=5):
    """Normal values mixed with NaN, +-inf, +-0, subnormals and large negatives.

    The NaN is ``np.nan``: the kernels may flip the sign bit of a negative
    NaN, which still reads as NaN everywhere downstream.
    """
    info = np.finfo(dtype)
    specials = np.array(
        [np.nan, np.inf, -np.inf, 0.0, -0.0, info.smallest_subnormal,
         -info.smallest_subnormal, info.min, -800.0, -80.0, 1.0, -1.0],
        dtype=dtype,
    )
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(shape) * 3.0).astype(dtype)
    mask = rng.random(shape) < 0.5
    x[mask] = rng.choice(specials, size=int(mask.sum()))
    return x


def _layouts(x):
    """The same values contiguous and in two non-contiguous (transposed) layouts."""
    return {
        "contiguous": x,
        "batch-channel-transposed": np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(
            1, 0, 2, 3
        ),
        "height-width-transposed": np.ascontiguousarray(x.swapaxes(2, 3)).swapaxes(2, 3),
    }


class TestKernelOracles:
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("pool_size", [(1, 2), (2, 2), (1, 3), (3, 1)])
    def test_maxpool_forward_is_byte_equal_to_window_max(self, pool_size, dtype, training):
        # 7 x 11 is cropped by every pool size above.
        x = _special_input(dtype)
        for name, view in _layouts(x).items():
            assert name == "contiguous" or not view.flags.c_contiguous
            out = MaxPool2D(pool_size).forward(view, training=training)
            expected = _maxpool_oracle(view, pool_size)
            assert out.dtype == expected.dtype and out.shape == expected.shape, name
            assert out.tobytes() == expected.tobytes(), name

    def test_maxpool_tied_zeros_resolve_like_the_window_max(self):
        # Windows of +0, -0 and -1: a +0/-0 tie for the maximum is resolved by
        # the order in which the window is folded, which follows the layout.
        x = np.random.default_rng(9).choice([0.0, -0.0, -1.0], size=(2, 3, 7, 11))
        for name, view in _layouts(x).items():
            out = MaxPool2D((2, 2)).forward(view)
            assert out.tobytes() == _maxpool_oracle(view, (2, 2)).tobytes(), name

    def test_training_forward_keeps_the_windows_for_backward(self):
        x = _special_input(np.float64)
        layer = MaxPool2D((1, 2))
        layer.forward(x)
        assert layer._windows is None and layer._out is None
        layer.forward(x, training=True)
        assert layer._windows.shape == (2, 3, 7, 1, 5, 2)
        assert np.shares_memory(layer._windows, x)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_negative_nan_stays_nan_up_to_its_sign_bit(self, dtype):
        x = _special_input(dtype)
        x[x != x] = -np.nan
        pooled = MaxPool2D((2, 2)).forward(x)
        with np.errstate(over="ignore", invalid="ignore"):
            activated = Selu().forward(x)
            oracles = (_maxpool_oracle(x, (2, 2)), _selu_oracle(x))
        for out, expected in zip((pooled, activated), oracles):
            assert np.array_equal(out, expected, equal_nan=True)
            assert np.array_equal(np.isnan(out), np.isnan(expected))

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_selu_forward_is_byte_equal_to_where_formula(self, dtype, training):
        x = _special_input(dtype)
        for name, view in _layouts(x).items():
            with np.errstate(over="ignore", invalid="ignore"):
                out = Selu().forward(view, training=training)
                expected = _selu_oracle(view)
            assert out.dtype == expected.dtype and out.shape == expected.shape, name
            assert out.tobytes() == expected.tobytes(), name
