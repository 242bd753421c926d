"""Neural-network layers with analytic forward and backward passes.

Every layer follows the same small protocol:

* ``forward(x, training=False)`` returns the output and, when training,
  stores whatever the backward pass needs,
* ``backward(grad_output)`` returns the gradient with respect to the input,
  accumulates the parameter gradients and releases what forward stored,
* ``parameters()`` / ``gradients()`` expose the trainable tensors.

The data layout is ``NCHW`` for image-like tensors and ``(batch, features)``
for dense layers.  This is the training math: a model's inference forward
runs :mod:`repro.nn.compute` instead.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.initializers import get_initializer

#: SELU constants from Klambauer et al., "Self-Normalizing Neural Networks".
SELU_ALPHA = 1.6732632423543772
SELU_SCALE = 1.0507009873554805


def fused_selu(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SELU into ``out`` using one preallocated ``scratch``, no temporaries.

    Bit-identical (NaN signs aside) in float64 and float32 to
    ``SELU_SCALE * np.where(x > 0, x, SELU_ALPHA * (np.exp(x) - 1))``:
    ``exp(min(x, 0)) - 1`` is exactly the negative branch for ``x <= 0`` and
    exactly zero for ``x > 0``, so no boolean mask is materialised.  ``out``
    may be ``x``.  The :class:`Selu` layer and the inference forward
    (:mod:`repro.nn.compute`) share this kernel.
    """
    np.minimum(x, 0.0, out=scratch)
    np.exp(scratch, out=scratch)
    scratch -= 1.0
    scratch *= SELU_ALPHA
    np.maximum(x, 0.0, out=out)
    out += scratch
    out *= SELU_SCALE
    return out


class LayerError(ValueError):
    """Raised for invalid layer configurations or input shapes."""


class Layer:
    """Base class of all layers."""

    #: Human-readable layer name (overridden per instance).
    name: str = "layer"

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the input gradient."""
        raise NotImplementedError

    def parameters(self) -> Dict[str, np.ndarray]:
        """Trainable parameters of the layer (may be empty)."""
        return {}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Gradients matching :meth:`parameters` (may be empty)."""
        return {}

    @property
    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(p.size for p in self.parameters().values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        initializer: str = "lecun_normal",
        rng: Optional[np.random.Generator] = None,
        name: str = "dense",
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise LayerError("in_features and out_features must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        init = get_initializer(initializer)
        self.name = name
        self.weight = init((in_features, out_features), rng)
        self.bias = np.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.weight.shape[0]:
            raise LayerError(
                f"{self.name}: expected input of shape (batch, "
                f"{self.weight.shape[0]}), got {x.shape}"
            )
        # The input is only needed by backward.
        self._input = x if training else None
        return x @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise LayerError(f"{self.name}: backward called before forward")
        x, self._input = self._input, None
        self.grad_weight[...] = x.T @ grad_output
        self.grad_bias[...] = np.sum(grad_output, axis=0)
        return grad_output @ self.weight.T

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dense(in={self.weight.shape[0]}, out={self.weight.shape[1]}, "
            f"name={self.name!r})"
        )


def _pad_same(height: int, width: int, kernel: Tuple[int, int]) -> Tuple[int, int, int, int]:
    """Per-side padding for 'same' convolution with stride 1."""
    pad_h = kernel[0] - 1
    pad_w = kernel[1] - 1
    top = pad_h // 2
    left = pad_w // 2
    return top, pad_h - top, left, pad_w - left


class Conv2D(Layer):
    """2-D convolution (cross-correlation) with stride 1.

    Parameters
    ----------
    in_channels / out_channels:
        Number of input and output feature maps.
    kernel_size:
        ``(kh, kw)`` kernel dimensions.  DeepCSI uses ``(1, 7)``, ``(1, 5)``
        and ``(1, 3)`` kernels, i.e. one-dimensional convolutions along the
        sub-carrier axis.
    padding:
        ``"same"`` (output spatial size equals input size) or ``"valid"``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Tuple[int, int],
        padding: str = "same",
        initializer: str = "lecun_normal",
        rng: Optional[np.random.Generator] = None,
        name: str = "conv",
    ) -> None:
        if in_channels < 1 or out_channels < 1:
            raise LayerError("channel counts must be >= 1")
        kh, kw = int(kernel_size[0]), int(kernel_size[1])
        if kh < 1 or kw < 1:
            raise LayerError("kernel dimensions must be >= 1")
        if padding not in ("same", "valid"):
            raise LayerError("padding must be 'same' or 'valid'")
        rng = rng if rng is not None else np.random.default_rng()
        init = get_initializer(initializer)
        self.name = name
        self.kernel_size = (kh, kw)
        self.padding = padding
        self.weight = init((out_channels, in_channels, kh, kw), rng)
        self.bias = np.zeros(out_channels)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._padded_input: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, ...]] = None

    def _pad(self, x: np.ndarray) -> np.ndarray:
        if self.padding == "valid":
            return x
        top, bottom, left, right = _pad_same(x.shape[2], x.shape[3], self.kernel_size)
        return np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.weight.shape[1]:
            raise LayerError(
                f"{self.name}: expected input (batch, {self.weight.shape[1]}, H, W), "
                f"got {x.shape}"
            )
        kh, kw = self.kernel_size
        if self.padding == "valid" and (x.shape[2] < kh or x.shape[3] < kw):
            raise LayerError(
                f"{self.name}: input spatial size {x.shape[2:]} smaller than "
                f"kernel {self.kernel_size}"
            )
        self._input_shape = x.shape
        padded = self._pad(x)
        self._padded_input = padded if training else None
        # im2col: gather every (kh, kw) window as a view, then contract the
        # (channel, kh, kw) axes against the kernel in BLAS matmuls.
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (kh, kw), axis=(2, 3)
        )  # (batch, c, out_h, out_w, kh, kw)
        out = np.tensordot(windows, self.weight, axes=([1, 4, 5], [1, 2, 3]))
        out = np.ascontiguousarray(np.moveaxis(out, 3, 1))  # (batch, cout, out_h, out_w)
        out += self.bias[np.newaxis, :, np.newaxis, np.newaxis]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._padded_input is None or self._input_shape is None:
            raise LayerError(f"{self.name}: backward called before forward")
        padded, self._padded_input = self._padded_input, None
        kh, kw = self.kernel_size
        out_h = grad_output.shape[2]
        out_w = grad_output.shape[3]
        self.grad_bias[...] = np.sum(grad_output, axis=(0, 2, 3))
        grad_padded = np.zeros_like(padded)
        for i in range(kh):
            for j in range(kw):
                patch = padded[:, :, i : i + out_h, j : j + out_w]
                self.grad_weight[:, :, i, j] = np.einsum(
                    "bohw,bchw->oc", grad_output, patch
                )
                grad_padded[:, :, i : i + out_h, j : j + out_w] += np.einsum(
                    "bohw,oc->bchw", grad_output, self.weight[:, :, i, j]
                )
        if self.padding == "valid":
            return grad_padded
        top, bottom, left, right = _pad_same(
            self._input_shape[2], self._input_shape[3], self.kernel_size
        )
        height = self._input_shape[2]
        width = self._input_shape[3]
        return grad_padded[:, :, top : top + height, left : left + width]

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D(in={self.weight.shape[1]}, out={self.weight.shape[0]}, "
            f"kernel={self.kernel_size}, padding={self.padding!r}, name={self.name!r})"
        )


class MaxPool2D(Layer):
    """Non-overlapping max pooling.

    The input is cropped (not padded) when the spatial dimensions are not a
    multiple of the pool size, matching the common 'valid' pooling behaviour.
    """

    def __init__(self, pool_size: Tuple[int, int] = (1, 2), name: str = "maxpool") -> None:
        ph, pw = int(pool_size[0]), int(pool_size[1])
        if ph < 1 or pw < 1:
            raise LayerError("pool dimensions must be >= 1")
        self.pool_size = (ph, pw)
        self.name = name
        self._windows: Optional[np.ndarray] = None
        self._out: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise LayerError(f"{self.name}: expected a 4-D input, got {x.shape}")
        ph, pw = self.pool_size
        if x.shape[2] < ph or x.shape[3] < pw:
            raise LayerError(
                f"{self.name}: input spatial size {x.shape[2:]} smaller than "
                f"pool {self.pool_size}"
            )
        self._input_shape = x.shape
        out_h = x.shape[2] // ph
        out_w = x.shape[3] // pw
        cropped = x[:, :, : out_h * ph, : out_w * pw]
        # The (di, dj) offset grids partition the non-overlapping windows, so
        # ph*pw strided maximums give the window maxima, folded in memory order
        # like a max over the 6-D windows view: +0/-0 ties match, NaN signs may not.
        column_major = abs(x.strides[2]) < abs(x.strides[3])
        offsets = sorted(np.ndindex(ph, pw), key=lambda o: o[::-1] if column_major else o)
        out = cropped[:, :, ::ph, ::pw].copy()
        for di, dj in offsets[1:]:
            np.maximum(out, cropped[:, :, di::ph, dj::pw], out=out)
        # The winner mask is only needed by backward; keep the (view-backed)
        # windows and the output so it can be built lazily there.  The windows
        # view keeps the whole input batch alive, so inference skips it.
        shape = (x.shape[0], x.shape[1], out_h, ph, out_w, pw)
        self._windows = cropped.reshape(shape) if training else None
        self._out = out if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._windows is None or self._input_shape is None:
            raise LayerError(f"{self.name}: backward called before forward")
        ph, pw = self.pool_size
        windows, out = self._windows, self._out
        self._windows = self._out = None
        # Mask of the maxima within each window (ties normalised below).
        mask = windows == out[:, :, :, np.newaxis, :, np.newaxis]
        # Normalise ties so the gradient sums to the output gradient.
        counts = mask.sum(axis=(3, 5), keepdims=True)
        weights = mask / counts
        grad_windows = (
            weights * grad_output[:, :, :, np.newaxis, :, np.newaxis]
        )
        b, c, out_h, _, out_w, _ = grad_windows.shape
        grad_cropped = grad_windows.reshape(b, c, out_h * ph, out_w * pw)
        grad_input = np.zeros(self._input_shape)
        grad_input[:, :, : out_h * ph, : out_w * pw] = grad_cropped
        return grad_input

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaxPool2D(pool={self.pool_size}, name={self.name!r})"


class Flatten(Layer):
    """Flatten a 4-D tensor into ``(batch, features)``."""

    def __init__(self, name: str = "flatten") -> None:
        self.name = name
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise LayerError(f"{self.name}: backward called before forward")
        return grad_output.reshape(self._input_shape)


class Activation(Layer):
    """Base class of parameter-free element-wise activations."""

    def _activate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = self._activate(x)
        self._input = x if training else None
        self._output = out if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None or self._output is None:
            raise LayerError(f"{self.name}: backward requires forward(training=True)")
        x, y = self._input, self._output
        self._input = self._output = None
        return grad_output * self._derivative(x, y)


class Selu(Activation):
    """Scaled exponential linear unit (the paper's activation of choice)."""

    name = "selu"

    def _activate(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x, dtype=np.result_type(x, 1.0))
        return fused_selu(x, out, np.empty_like(out))

    def _derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return SELU_SCALE * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(x))


class Relu(Activation):
    """Rectified linear unit."""

    name = "relu"

    def _activate(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def _derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x > 0).astype(x.dtype)


class Sigmoid(Activation):
    """Logistic sigmoid."""

    name = "sigmoid"

    def _activate(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    def _derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y * (1.0 - y)


class Softmax(Layer):
    """Softmax over the last axis.

    Training uses :class:`repro.nn.losses.SoftmaxCrossEntropy` on logits for
    numerical stability; this layer exists for inference-time probability
    outputs and for testing.
    """

    name = "softmax"

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        shifted = x - np.max(x, axis=-1, keepdims=True)
        exp = np.exp(shifted)
        out = exp / np.sum(exp, axis=-1, keepdims=True)
        self._output = out if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise LayerError(f"{self.name}: backward requires forward(training=True)")
        y, self._output = self._output, None
        dot = np.sum(grad_output * y, axis=-1, keepdims=True)
        return y * (grad_output - dot)


class Dropout(Layer):
    """Standard (inverted) dropout."""

    def __init__(
        self,
        rate: float,
        rng: Optional[np.random.Generator] = None,
        name: str = "dropout",
    ) -> None:
        if not 0.0 <= rate < 1.0:
            raise LayerError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng()
        self.name = name
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class AlphaDropout(Layer):
    """Alpha-dropout, the SELU-compatible dropout of Klambauer et al.

    Dropped activations are set to the SELU saturation value
    ``alpha' = -scale * alpha`` and the result is rescaled so that mean and
    variance are preserved; the paper interposes alpha-dropout between the
    dense layers with retain probabilities 0.5 and 0.2.

    Parameters
    ----------
    retain_probability:
        Probability of *keeping* an activation (the paper quotes retain
        probabilities, so this class follows that convention).
    """

    _ALPHA_PRIME = -SELU_SCALE * SELU_ALPHA

    def __init__(
        self,
        retain_probability: float,
        rng: Optional[np.random.Generator] = None,
        name: str = "alpha_dropout",
    ) -> None:
        if not 0.0 < retain_probability <= 1.0:
            raise LayerError("retain_probability must be in (0, 1]")
        self.retain_probability = retain_probability
        self.rng = rng if rng is not None else np.random.default_rng()
        self.name = name
        self._mask: Optional[np.ndarray] = None
        self._scale_a: float = 1.0

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        keep = self.retain_probability
        if not training or keep >= 1.0:
            self._mask = None
            return x
        alpha_p = self._ALPHA_PRIME
        mask = self.rng.random(x.shape) < keep
        a = (keep + alpha_p ** 2 * keep * (1.0 - keep)) ** -0.5
        b = -a * alpha_p * (1.0 - keep)
        self._mask = mask
        self._scale_a = a
        dropped = np.where(mask, x, alpha_p)
        return a * dropped + b

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask * self._scale_a
