"""The float32 inference compute backend.

Training always runs through the layers' own fp64 ``forward``/``backward``
methods, and so does inference by default.  Attaching the ``fp32`` backend
(:meth:`repro.nn.model.Sequential.set_compute`) routes *inference* forwards
through :class:`Fp32ArenaBackend` instead, so the always-on streaming hot
path can trade numerics for throughput without touching the layer code:
float32 weights and activations, with every intermediate tensor (padded
inputs, im2col patch matrices, GEMM outputs, activation maps) in a
grow-only per-shape *arena* that is reused across batches.  Steady-state
inference therefore performs zero large allocations; SELU/sigmoid are
computed with fused kernels that allocate nothing (SELU's is the fp64 layer's).

The backend is picklable and deepcopy-able: arenas are dropped from the
state (they are rebuilt lazily), while the prepared float32 weights travel
with the model.  That is how the process execution backend
(:mod:`repro.core.backends`) ships the compute choice to its shard workers
inside the one-time classifier startup payload.
"""

from __future__ import annotations

# lint: dtype-strict

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.annotations import hot_path
from repro.arena import ArenaPool
from repro.nn.attention import SpatialAttention
from repro.nn.layers import (
    AlphaDropout,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Relu,
    Selu,
    Sigmoid,
    Softmax,
    _pad_same,
    fused_selu,
)

#: Names accepted by ``--compute`` / ``set_compute`` besides ``None`` (fp64).
COMPUTE_NAMES: Tuple[str, ...] = ("fp32",)


class ComputeError(ValueError):
    """Raised for invalid compute-backend configurations or usage."""


# ``ArenaPool`` started life here and was promoted to :mod:`repro.arena` so
# the pre-NN preprocessing stages can share it; re-exported for back-compat.


# --------------------------------------------------------------------------- #
# Prepared per-layer states
# --------------------------------------------------------------------------- #
@dataclass
class _DenseState:
    """Float32 copy of a Dense layer's parameters."""

    weight: np.ndarray  # (in_features, out_features) float32
    bias: np.ndarray  # (out_features,) float32


@dataclass
class _ConvState:
    """Float32 copy of a Conv2D layer, reshaped for the im2col GEMM."""

    weight2d: np.ndarray  # (kh * kw * in_channels, out_channels) float32
    bias: np.ndarray  # (out_channels,) float32
    kernel: Tuple[int, int]
    padding: str
    in_channels: int
    out_channels: int


@dataclass
class _AttentionState:
    """Prepared state of a SpatialAttention block."""

    conv: _ConvState


def _dense_state(layer: Dense) -> _DenseState:
    return _DenseState(
        weight=np.ascontiguousarray(layer.weight, dtype=np.float32),
        bias=layer.bias.astype(np.float32),
    )


def _conv_state(layer: Conv2D) -> _ConvState:
    # The (cout, cin, kh, kw) kernel becomes the (kh*kw*cin, cout) GEMM form;
    # the row order matches the backend's internal NHWC activation layout, so
    # the im2col gather copies near-contiguous (kw, cin) blocks.
    cout = layer.weight.shape[0]
    return _ConvState(
        weight2d=np.ascontiguousarray(
            layer.weight.transpose(2, 3, 1, 0).reshape(-1, cout), dtype=np.float32
        ),
        bias=layer.bias.astype(np.float32),
        kernel=layer.kernel_size,
        padding=layer.padding,
        in_channels=layer.weight.shape[1],
        out_channels=cout,
    )


# --------------------------------------------------------------------------- #
# Fused element-wise kernels (SELU is the layers' own ``fused_selu``)
# --------------------------------------------------------------------------- #
def _fused_sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid computed in place on ``x``."""
    np.clip(x, -60.0, 60.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    return x


# --------------------------------------------------------------------------- #
# Backend
# --------------------------------------------------------------------------- #
class Fp32ArenaBackend:
    """Float32 forward with preallocated, batch-reusable arenas.

    Internally, 4-d activations flow in NHWC layout: the im2col gather then
    copies near-contiguous ``(kw, channels)`` blocks and the conv GEMM output
    *is* the next layer's input, with no NCHW transpose copy per layer.  The
    model input (NCHW, the reference layout of the fp64 layers) is transposed
    once on ingest and the ``Flatten`` boundary restores the fp64 NCHW
    flattening order, so results stay comparable with the fp64 path.
    """

    name = "fp32"
    dtype = np.float32

    def __init__(self) -> None:
        self.model = None
        self._states: List[object] = []
        self._arena = ArenaPool()

    # -- pickling / deepcopy: arenas are scratch, rebuild them lazily ---- #
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_arena"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._arena = ArenaPool()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"

    @property
    def arena_allocations(self) -> int:
        """Number of arena buffer (re)allocations performed so far."""
        return self._arena.allocations

    # -- preparation ----------------------------------------------------- #
    def prepare(self, model) -> None:
        """Cast ``model``'s current weights to the float32 GEMM layouts."""
        self.model = model
        self._states = [self._prepare_layer(layer) for layer in model.layers]

    @staticmethod
    def _prepare_layer(layer) -> Optional[object]:
        if isinstance(layer, Dense):
            return _dense_state(layer)
        if isinstance(layer, Conv2D):
            return _conv_state(layer)
        if isinstance(layer, SpatialAttention):
            return _AttentionState(conv=_conv_state(layer.conv))
        return None

    @hot_path
    # -- dispatch --------------------------------------------------------- #
    def forward_layer(self, index: int, layer, x: np.ndarray) -> np.ndarray:
        """Inference forward of one layer."""
        if index == 0:
            x = self._ingest(index, x)
        elif x.dtype != self.dtype:
            cast = self._arena.get((index, "cast"), x.shape, dtype=self.dtype)
            np.copyto(cast, x)
            x = cast
        if isinstance(layer, Conv2D):
            return self._conv((index,), self._states[index], x)
        if isinstance(layer, Dense):
            return self._dense((index,), self._states[index], x)
        if isinstance(layer, Selu):
            return self._selu(index, x)
        if isinstance(layer, Relu):
            out = self._arena.get((index, "out"), x.shape, dtype=self.dtype)
            return np.maximum(x, 0.0, out=out)
        if isinstance(layer, Sigmoid):
            out = self._arena.get((index, "out"), x.shape, dtype=self.dtype)
            np.copyto(out, x)
            return _fused_sigmoid_inplace(out)
        if isinstance(layer, Softmax) and x.ndim == 2:
            return self._softmax(index, x)
        if isinstance(layer, MaxPool2D):
            return self._maxpool(index, layer, x)
        if isinstance(layer, Flatten):
            return self._flatten(index, x)
        if isinstance(layer, (Dropout, AlphaDropout)):
            return x
        if isinstance(layer, SpatialAttention):
            return self._attention(index, self._states[index], x)
        # Unknown layer types (and axis-sensitive ops on 4-d activations,
        # e.g. a spatial Softmax) fall back to the layer's own fp64 forward
        # in the reference NCHW layout.
        return self._reference_forward(layer, x)

    @hot_path
    def _ingest(self, index: int, x: np.ndarray) -> np.ndarray:
        """Cast the model input to fp32; 4-d NCHW inputs become NHWC."""
        if x.ndim == 4:
            batch, channels, height, width = x.shape
            cast = self._arena.get(
                (index, "ingest"), (batch, height, width, channels), dtype=self.dtype
            )
            np.copyto(cast, x.transpose(0, 2, 3, 1))
            return cast
        if x.dtype != self.dtype:
            cast = self._arena.get((index, "ingest"), x.shape, dtype=self.dtype)
            np.copyto(cast, x)
            return cast
        return x

    def _reference_forward(self, layer, x: np.ndarray) -> np.ndarray:
        reference = x.transpose(0, 3, 1, 2) if x.ndim == 4 else x
        # lint: disable=dtype/float64 -- deliberate exact-fp64 fallback for unsupported layer types
        out = layer.forward(np.asarray(reference, dtype=np.float64), training=False)
        out = np.asarray(out, dtype=self.dtype)
        if out.ndim == 4:
            out = np.ascontiguousarray(out.transpose(0, 2, 3, 1))
        return out

    @hot_path
    def finalize(self, out: np.ndarray) -> np.ndarray:
        """Detach the final output from the arena."""
        # The output aliases an arena buffer that the next batch overwrites.
        return np.array(out, copy=True)  # lint: disable=hot-path/banned-alloc -- the result must escape the arena; one (B, C) copy per batch

    # -- kernels ---------------------------------------------------------- #
    @hot_path
    def _dense(self, key: tuple, state: _DenseState, x: np.ndarray) -> np.ndarray:
        out = self._arena.get(key + ("mm",), (x.shape[0], state.weight.shape[1]), dtype=self.dtype)
        np.matmul(x, state.weight, out=out)
        out += state.bias
        return out

    @hot_path
    def _conv(self, key: tuple, state: _ConvState, x: np.ndarray) -> np.ndarray:
        batch, height, width, channels = x.shape
        kh, kw = state.kernel
        if state.padding == "same":
            top, bottom, left, right = _pad_same(height, width, state.kernel)
            padded = self._arena.get(
                key + ("pad",),
                (batch, height + top + bottom, width + left + right, channels),
                dtype=self.dtype,
                zero=True,
            )
            np.copyto(padded[:, top : top + height, left : left + width], x)
        else:
            padded = x
        out_h = padded.shape[1] - kh + 1
        out_w = padded.shape[2] - kw + 1
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (kh, kw), axis=(1, 2)
        )  # (batch, out_h, out_w, c, kh, kw) -- a view, no copy
        col = self._arena.get(
            key + ("col",), (batch, out_h, out_w, kh, kw, channels), dtype=self.dtype
        )
        np.copyto(col, windows.transpose(0, 1, 2, 4, 5, 3))
        rows = batch * out_h * out_w
        accumulator = self._arena.get(key + ("mm",), (rows, state.out_channels), dtype=self.dtype)
        np.matmul(
            col.reshape(rows, kh * kw * channels), state.weight2d, out=accumulator
        )
        accumulator += state.bias
        # The GEMM output already is the NHWC activation: no transpose copy.
        return accumulator.reshape(batch, out_h, out_w, state.out_channels)

    @hot_path
    def _selu(self, index: int, x: np.ndarray) -> np.ndarray:
        out = self._arena.get((index, "out"), x.shape, dtype=self.dtype)
        scratch = self._arena.get((index, "scratch"), x.shape, dtype=self.dtype)
        return fused_selu(x, out, scratch)

    @hot_path
    def _softmax(self, index: int, x: np.ndarray) -> np.ndarray:
        out = self._arena.get((index, "out"), x.shape, dtype=self.dtype)
        np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
        np.exp(out, out=out)
        out /= np.sum(out, axis=-1, keepdims=True)
        return out

    @hot_path
    def _maxpool(self, index: int, layer: MaxPool2D, x: np.ndarray) -> np.ndarray:
        ph, pw = layer.pool_size
        batch, channels = x.shape[0], x.shape[3]
        out_h = x.shape[1] // ph
        out_w = x.shape[2] // pw
        if out_h < 1 or out_w < 1:
            raise ComputeError(
                f"input spatial size {x.shape[1:3]} smaller than pool {layer.pool_size}"
            )
        cropped = x[:, : out_h * ph, : out_w * pw, :]
        out = self._arena.get((index, "out"), (batch, out_h, out_w, channels), dtype=self.dtype)
        # Non-overlapping pooling: the (di, dj) offset grids partition every
        # window, so ph*pw strided maximums replace the generic reduction.
        np.copyto(out, cropped[:, ::ph, ::pw, :])
        for di in range(ph):
            for dj in range(pw):
                if di == 0 and dj == 0:
                    continue
                np.maximum(out, cropped[:, di::ph, dj::pw, :], out=out)
        return out

    @hot_path
    def _flatten(self, index: int, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            return x.reshape(x.shape[0], -1)
        # Restore the fp64 reference flattening order (channel-major NCHW).
        batch, height, width, channels = x.shape
        out = self._arena.get((index, "out"), (batch, channels * height * width), dtype=self.dtype)
        np.copyto(
            out.reshape(batch, channels, height, width), x.transpose(0, 3, 1, 2)
        )
        return out

    @hot_path
    def _attention(self, index: int, state: _AttentionState, x: np.ndarray) -> np.ndarray:
        batch, height, width, channels = x.shape
        stacked = self._arena.get((index, "att_in"), (batch, height, width, 2), dtype=self.dtype)
        np.max(x, axis=3, out=stacked[..., 0])
        np.mean(x, axis=3, out=stacked[..., 1])
        logits = self._conv((index, "att"), state.conv, stacked)
        weights = _fused_sigmoid_inplace(logits)  # in place on the conv arena
        out = self._arena.get((index, "out"), x.shape, dtype=self.dtype)
        np.multiply(x, weights, out=out)
        out += x  # skip connection
        return out


__all__ = [
    "COMPUTE_NAMES",
    "ArenaPool",
    "ComputeError",
    "Fp32ArenaBackend",
    "fused_selu",
]
