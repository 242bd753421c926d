"""Unit and gradient-check tests for the neural-network layers."""

import tracemalloc

import numpy as np
import pytest

from repro.nn.attention import SpatialAttention
from repro.nn.compute import GEMM_SAMPLES
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
from repro.nn.model import Sequential
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

    @pytest.mark.parametrize("batch", [1, 8, 13])
    def test_model_inference_matches_the_blocked_product(self, batch):
        layer = Dense(40, 24, rng=np.random.default_rng(0))
        layer.bias[...] = np.random.default_rng(1).standard_normal(24)
        x = np.random.default_rng(batch).standard_normal((batch, 40))
        expected = batch_invariant_matmul(x[:, np.newaxis, :], layer.weight)[:, 0, :] + layer.bias
        assert Sequential([layer]).forward(x).tobytes() == expected.tobytes()


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
        # A model's inference multiplies through fixed-shape GEMMs and the
        # layer through one tensordot: the same sums, rounded in another order.
        layer = Conv2D(4, 6, (2, 3), padding=padding, rng=np.random.default_rng(0))
        np.testing.assert_allclose(
            Sequential([layer]).forward(feature_map),
            layer.forward(feature_map, training=True),
            rtol=1e-12,
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "shape, kernel, padding",
        [((128, 128, 1, 29), (1, 7), "same"), ((4, 6, 3, 10), (2, 3), "valid")],
        ids=["paper-conv2", "valid-2x3"],
    )
    @pytest.mark.parametrize("batch", [1, 8, 13, 63, 64])
    def test_blocked_inference_matches_the_whole_batch_product(
        self, shape, kernel, padding, batch
    ):
        # The model forward builds im2col one GEMM block at a time and keeps
        # every GEMM's shape and operands, so the float64 bits equal one
        # whole-batch gather multiplied through batch_invariant_matmul.
        in_channels, out_channels, height, width = shape
        rng = np.random.default_rng(batch)
        layer = Conv2D(in_channels, out_channels, kernel, padding=padding, rng=rng)
        layer.bias[...] = rng.standard_normal(out_channels)
        x = rng.standard_normal((batch, in_channels, height, width))
        out = Sequential([layer]).forward(x)
        assert out.tobytes() == whole_batch_product(layer, x).tobytes()

    @pytest.mark.parametrize("batch", [64, 63])
    def test_inference_scratch_holds_one_gemm_block(self, batch):
        # The paper model's conv2 as a model: its input copy, its output and
        # the result grow with the batch; the im2col scratch is one GEMM
        # block (a whole-batch one would be 8x that), however the batch is cut.
        model = Sequential([Conv2D(128, 128, (1, 7), rng=np.random.default_rng(0))])
        x = np.random.default_rng(1).standard_normal((batch, 128, 1, 29))
        activation_bytes = 64 * 128 * 29 * x.itemsize
        block_im2col_bytes = GEMM_SAMPLES * 29 * 128 * 7 * x.itemsize
        tracemalloc.start()
        try:
            model.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * activation_bytes + 2 * block_im2col_bytes

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


def batch_invariant_matmul(rows, weight):
    """``rows @ weight`` for ``(batch, R, K)`` rows, as stacked GEMM blocks.

    The batch is zero-padded to a multiple of ``GEMM_SAMPLES`` and multiplied
    as a stack of ``(GEMM_SAMPLES * R, K) @ (K, N)`` GEMMs, one per block:
    the products the inference forward runs, whatever the batch.
    """
    batch, per_sample, depth = rows.shape
    chunks = -(-batch // GEMM_SAMPLES)
    padded = np.zeros((chunks * GEMM_SAMPLES, per_sample, depth), dtype=rows.dtype)
    padded[:batch] = rows
    out = np.matmul(padded.reshape(chunks, GEMM_SAMPLES * per_sample, depth), weight)
    return out.reshape(chunks * GEMM_SAMPLES, per_sample, weight.shape[1])[:batch]


def whole_batch_product(layer, x):
    """Oracle: one im2col gather of the whole batch through batch_invariant_matmul."""
    kh, kw = layer.kernel_size
    windows = np.lib.stride_tricks.sliding_window_view(
        layer._pad(x), (kh, kw), axis=(2, 3)
    )  # (batch, c, out_h, out_w, kh, kw)
    batch, _, out_h, out_w = windows.shape[:4]
    out = batch_invariant_matmul(
        windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch, out_h * out_w, -1),
        layer.weight.reshape(layer.weight.shape[0], -1).T,
    ).reshape(batch, out_h, out_w, -1)
    out = np.ascontiguousarray(np.moveaxis(out, 3, 1))
    out += layer.bias[np.newaxis, :, np.newaxis, np.newaxis]
    return out


class TestSpatialAttentionInference:
    @pytest.mark.parametrize(
        "shape", [(13, 16, 1, 1), (13, 16, 1, 12), (8, 24, 2, 7)], ids=["1x1", "1x12", "2x7"]
    )
    def test_model_inference_matches_the_nchw_oracle(self, shape):
        # The channel mean is summed in NCHW order (pairwise over channels
        # when H * W == 1, one channel after another otherwise) and the
        # attention conv multiplies whole GEMM blocks.
        rng = np.random.default_rng(3)
        layer = SpatialAttention((1, 3), rng=rng)
        layer.conv.bias[...] = rng.standard_normal(1)
        x = rng.standard_normal(shape)
        stacked = np.concatenate(
            [np.max(x, axis=1, keepdims=True), np.mean(x, axis=1, keepdims=True)], axis=1
        )
        logits = whole_batch_product(layer.conv, stacked)
        weights = 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))
        expected = x * weights + x
        assert Sequential([layer]).forward(x).tobytes() == expected.tobytes()


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


# --------------------------------------------------------------------------- #
# Conv blocks: the inference forward runs Conv2D -> Selu -> MaxPool2D as one
# step (pool each GEMM block's product, then bias and SELU on the pooled map).
# --------------------------------------------------------------------------- #
CONV_BLOCK_CASES = pytest.mark.parametrize(
    "shape, kernel, padding, pool",
    [((128, 128, 1, 29), (1, 7), "same", (1, 2)), ((4, 6, 4, 11), (2, 3), "valid", (2, 2))],
    ids=["paper-conv2", "valid-2x3"],
)


def _conv_block(shape, kernel, padding, pool, batch):
    """A conv with a random bias, its block's layers and an NCHW input batch."""
    in_channels, out_channels, height, width = shape
    rng = np.random.default_rng(batch)
    conv = Conv2D(in_channels, out_channels, kernel, padding=padding, rng=rng)
    conv.bias[...] = rng.standard_normal(out_channels)
    x = rng.standard_normal((batch, in_channels, height, width))
    return conv, [conv, Selu(), MaxPool2D(pool)], x


def _inference(layers, x, compute=None):
    model = Sequential(layers)
    model.set_compute(compute)
    return model.forward(x)


class TestConvBlockInference:
    @CONV_BLOCK_CASES
    @pytest.mark.parametrize("batch", [1, 8, 13, 63, 64])
    def test_fp64_block_matches_the_layer_by_layer_oracle(
        self, shape, kernel, padding, pool, batch
    ):
        # paper-conv2 crops the odd column (29 -> 14); valid-2x3 crops a row
        # and a column of its 3 x 9 conv output.
        conv, layers, x = _conv_block(shape, kernel, padding, pool, batch)
        expected = _maxpool_oracle(_selu_oracle(whole_batch_product(conv, x)), pool)
        assert _inference(layers, x).tobytes() == expected.tobytes()

    @CONV_BLOCK_CASES
    @pytest.mark.parametrize("batch", [1, 8, 13, 63, 64])
    def test_fp32_block_matches_the_unfused_chain(self, shape, kernel, padding, pool, batch):
        # The same three layers run one model each, so one kernel at a time.
        _, layers, x = _conv_block(shape, kernel, padding, pool, batch)
        chain = x
        for layer in layers:
            chain = _inference([layer], chain, "fp32")
        out = _inference(layers, x, "fp32")
        assert out.dtype == np.float32 and out.tobytes() == chain.tobytes()

    def test_only_a_conv_selu_pool_sequence_is_one_step(self):
        def step_starts(sequence):
            model = Sequential(sequence)
            return [index for index, _ in model._forward.steps(model.layers)]

        conv, layers, _ = _conv_block((4, 6, 4, 11), (2, 3), "valid", (2, 2), 1)
        assert step_starts(layers + [Flatten()]) == [0, 3]
        for sequence in (
            [conv, Selu(), Flatten(), Dense(6 * 3 * 9, 5)],
            [conv, MaxPool2D((2, 2))],
            [conv, Selu()],
            [conv],
        ):
            assert step_starts(sequence) == list(range(len(sequence)))

    @pytest.mark.parametrize("batch", [1, 13])
    def test_other_sequences_keep_the_layer_by_layer_bits(self, batch):
        conv, _, x = _conv_block((4, 6, 4, 11), (2, 3), "valid", (2, 2), batch)
        dense = Dense(6 * 3 * 9, 5, rng=np.random.default_rng(2))
        dense.bias[...] = np.random.default_rng(3).standard_normal(5)
        product = whole_batch_product(conv, x)
        activated = _selu_oracle(product).reshape(batch, 1, -1)
        expected = batch_invariant_matmul(activated, dense.weight)[:, 0, :] + dense.bias
        out = _inference([conv, Selu(), Flatten(), dense], x)
        assert out.tobytes() == expected.tobytes()
        expected = _maxpool_oracle(product, (2, 2))
        assert _inference([conv, MaxPool2D((2, 2))], x).tobytes() == expected.tobytes()

    def test_a_block_is_profiled_under_its_conv(self):
        _, layers, x = _conv_block((4, 6, 4, 11), (2, 3), "valid", (2, 2), 5)
        model = Sequential(layers + [Flatten(), Dense(6 * 1 * 4, 3)])
        model.enable_profiling()
        model.forward(x)
        profile = model.profile()
        assert [entry.calls for entry in profile] == [1, 0, 0, 1, 1]
        assert profile[0].total_ns > 0 and profile[1].total_ns == profile[2].total_ns == 0
        # The training forward runs and times every layer.
        model.forward(x, training=True)
        assert [entry.calls for entry in model.profile()] == [2, 1, 1, 2, 2]

    def test_a_pool_larger_than_the_conv_output_is_rejected(self):
        _, layers, x = _conv_block((4, 6, 4, 11), (2, 3), "valid", (4, 2), 2)
        with pytest.raises(LayerError, match="smaller than pool"):
            _inference(layers, x)
