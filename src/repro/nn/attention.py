"""Spatial attention block with skip connection (Fig. 4 of the paper).

The block follows the spatial-attention module of CBAM (Woo et al., ECCV
2018), as adapted by DeepCSI:

1. compute the per-position maximum and mean of the input feature maps over
   the channel dimension,
2. concatenate the two maps and pass them through a convolutional layer with
   a sigmoid activation, producing one attention weight per spatial position,
3. multiply the input by the attention weights,
4. add the block input to the result (skip connection).

The backward pass propagates gradients through all four steps, including the
channel-max (routed to the arg-max channels) and the channel-mean (spread
uniformly over channels).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.layers import Conv2D, Layer, LayerError


class SpatialAttention(Layer):
    """CBAM-style spatial attention with a residual (skip) connection.

    Parameters
    ----------
    kernel_size:
        Kernel of the internal convolution that turns the concatenated
        max/mean maps into attention logits.  DeepCSI operates on
        ``1 x Ncol`` feature maps, so a ``(1, 7)`` kernel is the default.
    initializer:
        Initialiser of the convolution kernel (:mod:`repro.nn.initializers`).
    rng:
        Random generator for weight initialisation.
    """

    def __init__(
        self,
        kernel_size: Tuple[int, int] = (1, 7),
        initializer: str = "lecun_normal",
        rng: Optional[np.random.Generator] = None,
        name: str = "spatial_attention",
    ) -> None:
        self.name = name
        self.conv = Conv2D(
            in_channels=2,
            out_channels=1,
            kernel_size=kernel_size,
            padding="same",
            initializer=initializer,
            rng=rng,
            name=f"{name}_conv",
        )
        self._cache: Optional[dict] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise LayerError(f"{self.name}: expected a 4-D input, got {x.shape}")
        max_map = np.max(x, axis=1, keepdims=True)  # (B, 1, H, W)
        mean_map = np.mean(x, axis=1, keepdims=True)
        stacked = np.concatenate([max_map, mean_map], axis=1)  # (B, 2, H, W)
        logits = self.conv.forward(stacked, training=training)
        weights = 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))  # sigmoid
        attended = x * weights
        output = attended + x  # skip connection
        # The cache is only needed by backward; dropping it at inference
        # avoids pinning the input batch alive between engine micro-batches.
        self._cache = (
            {"x": x, "max_map": max_map, "weights": weights} if training else None
        )
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise LayerError(f"{self.name}: backward called before forward")
        cache, self._cache = self._cache, None
        x, max_map, weights = cache["x"], cache["max_map"], cache["weights"]
        num_channels = x.shape[1]

        # y = x * s + x  ->  dy/dx (direct paths) = s + 1.
        grad_x = grad_output * (weights + 1.0)

        # Gradient reaching the attention weights s: sum over channels of
        # grad_output * x (because s is broadcast across channels).
        grad_weights = np.sum(grad_output * x, axis=1, keepdims=True)
        grad_logits = grad_weights * weights * (1.0 - weights)
        grad_stacked = self.conv.backward(grad_logits)  # (B, 2, H, W)
        grad_max = grad_stacked[:, 0:1]
        grad_mean = grad_stacked[:, 1:2]

        # Mean path: spread uniformly over the channels.
        grad_x = grad_x + grad_mean / num_channels

        # Max path: route the gradient to the channels attaining the maximum
        # (ties share the gradient equally).
        is_max = x == max_map
        counts = np.sum(is_max, axis=1, keepdims=True)
        grad_x = grad_x + grad_max * is_max / counts
        return grad_x

    def parameters(self) -> Dict[str, np.ndarray]:
        return {f"conv_{k}": v for k, v in self.conv.parameters().items()}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {f"conv_{k}": v for k, v in self.conv.gradients().items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpatialAttention(kernel={self.conv.kernel_size}, name={self.name!r})"
