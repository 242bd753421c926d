"""The inference forward of :class:`repro.nn.model.Sequential`, in fp64 or fp32.

Training runs the layers' own ``forward``/``backward`` math.  Inference
(``forward(training=False)``, ``predict``) runs one :class:`ArenaForward` in
the model's dtype: float64 by default, float32 after
``Sequential.set_compute("fp32")``.  Both dtypes run the same code:

* **Layout.**  Activations flow NHWC, so a conv's GEMM output *is* the next
  layer's input.  The NCHW model input is transposed once on ingest,
  ``Flatten`` restores the NCHW flattening order and a 4-d model output is
  returned NCHW, so results read as the layers' own would.
* **Batch invariance.**  BLAS picks its kernel, and with it the rounding of
  every output, by matrix shape (a one-row product runs as a GEMV, small
  products take a dedicated kernel).  Every GEMM therefore multiplies one
  block of :data:`GEMM_SAMPLES` samples, a partial last block zero-padded,
  so a sample's output has the same bits in any batch, alone included.
* **Columns.**  float64 multiplies the layers' own weights, a conv's viewed
  as ``(c * kh * kw, cout)``, so its im2col columns run in ``(c, kh, kw)``
  order; float32 casts the weights once and gathers ``(kh, kw, c)``
  columns, which copy near-contiguous runs out of NHWC.  The choice is made
  in one place, :func:`_prepare`.
* **Conv blocks.**  A ``Conv2D`` followed by ``Selu`` and ``MaxPool2D``
  (each of the paper CNN's five blocks) is one step: every GEMM block's raw
  product is max-pooled, and the bias and SELU act on the pooled map,
  written straight into the next activation buffer.  Max commutes with a
  per-channel bias add and with :func:`~repro.nn.layers.fused_selu`, both
  non-decreasing in floating point, so the bits are those of the three
  layers run one after another (+-0 ties and NaN signs aside, as
  ``MaxPool2D`` documents).  The unpooled conv output is never stored, only
  the rows and columns the pool reads are gathered and multiplied, and
  bias and SELU touch one pooled element per window.  :meth:`steps` finds
  the blocks in the layer sequence; ``Sequential.profile()`` times a block
  under its conv, and its ``Selu`` and ``MaxPool2D`` entries record no calls.
* **Scratch.**  Every layer shares one set of flat buffers: two ping-pong
  activation buffers (the idle one is a lone SELU's scratch and the
  attention's NCHW copy), one GEMM block (its zero-bordered input, its
  im2col matrix and, in a conv block, its product, which then serves as
  the block's SELU scratch) and the attention's small maps and logits.
  They grow to the largest batch seen and are reused after, so a warm
  forward allocates only its result.  The buffers are per thread (a
  ``threading.local``): forwards on several threads never share them, and a
  thread's buffers die with it.
* **State.**  The forward holds no reference to its model.  It plans its
  steps and prepares a layer's GEMM operands on first use: views of the
  float64 weights, which see every in-place optimiser step, or float32
  casts, which ``Sequential.add`` and ``set_weights`` drop for
  re-preparation.  Pickles and deep copies carry the dtype only, so a
  process shard's startup payload and a thread shard's copy hold the
  weights once, in the layers.
"""

from __future__ import annotations

# lint: dtype-strict

import threading
from dataclasses import dataclass
from math import prod
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import DTypeLike

from repro.analysis.annotations import hot_path
from repro.arena import ArenaPool
from repro.nn.attention import SpatialAttention
from repro.nn.layers import (
    AlphaDropout,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LayerError,
    MaxPool2D,
    Selu,
    _pad_same,
    fused_selu,
)

#: Names accepted by ``--compute`` / ``set_compute`` besides ``None`` (fp64).
COMPUTE_NAMES: Tuple[str, ...] = ("fp32",)

#: Samples per GEMM of an inference forward.
GEMM_SAMPLES = 8


class ComputeError(ValueError):
    """Raised for invalid compute-backend configurations or usage."""


@dataclass
class _DenseState:
    """A Dense layer's GEMM operands in the forward's dtype."""

    weight: np.ndarray  # (in_features, out_features)
    bias: np.ndarray  # (out_features,)


@dataclass
class _ConvState:
    """A Conv2D layer's GEMM operands in the forward's dtype."""

    weight2d: np.ndarray  # (columns, out_channels)
    bias: np.ndarray  # (out_channels,)
    kernel: Tuple[int, int]
    padding: str
    window_axes: Tuple[int, ...]  # the (b, oh, ow, c, kh, kw) windows in column order


@dataclass(frozen=True)
class _ConvBlock:
    """A ``Conv2D`` followed by ``Selu`` and ``pool``: one step of the forward."""

    conv: Conv2D
    pool: MaxPool2D


def _prepare(layer, dtype: np.dtype):
    """``layer``'s GEMM operands in ``dtype``, or ``None`` for a layer without any."""
    if isinstance(layer, Dense):
        return _DenseState(np.asarray(layer.weight, dtype=dtype), np.asarray(layer.bias, dtype=dtype))
    if isinstance(layer, (SpatialAttention, _ConvBlock)):
        layer = layer.conv
    if not isinstance(layer, Conv2D):
        return None
    cout = layer.weight.shape[0]
    if dtype == np.float32:
        # (kh, kw, c) columns: the gather copies near-contiguous NHWC runs.
        axes: Tuple[int, ...] = (0, 1, 2, 4, 5, 3)
        weight2d = np.ascontiguousarray(
            layer.weight.transpose(2, 3, 1, 0).reshape(-1, cout), dtype=dtype
        )
    else:
        # (c, kh, kw) columns: the GEMM reads the (cout, c, kh, kw) weights
        # in place, a view, in the column order of the pinned float64 bits.
        axes = (0, 1, 2, 3, 4, 5)
        weight2d = layer.weight.reshape(cout, -1).T
    bias = np.asarray(layer.bias, dtype=dtype)
    return _ConvState(weight2d, bias, layer.kernel_size, layer.padding, axes)


def _pooled_size(layer: MaxPool2D, height: int, width: int) -> Tuple[int, int]:
    """``layer``'s output size for a ``height x width`` input, cropped like the layer."""
    ph, pw = layer.pool_size
    if height < ph or width < pw:
        raise LayerError(
            f"{layer.name}: input spatial size {(height, width)} smaller than "
            f"pool {layer.pool_size}"
        )
    return height // ph, width // pw


def _max_pool(x: np.ndarray, pool_size: Tuple[int, int], out: np.ndarray) -> np.ndarray:
    """The window maxima of NHWC ``x`` written into ``out`` (NHWC, pooled size)."""
    ph, pw = pool_size
    out_h, out_w = out.shape[1:3]
    cropped = x[:, : out_h * ph, : out_w * pw]
    # Non-overlapping windows: the (di, dj) offset grids partition every
    # window, folded in the order MaxPool2D folds a contiguous input.
    grids = [cropped[:, di::ph, dj::pw] for di in range(ph) for dj in range(pw)]
    if len(grids) == 1:
        np.copyto(out, grids[0])
    else:
        np.maximum(grids[0], grids[1], out=out)
    for grid in grids[2:]:
        np.maximum(out, grid, out=out)
    return out


def _sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid computed in place on ``x``."""
    np.clip(x, -60.0, 60.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    return x


class _Scratch:
    """One thread's buffers, shared by every layer of every forward."""

    def __init__(self, dtype: np.dtype) -> None:
        self.pool = ArenaPool()
        self.dtype = dtype
        self.live = 0  # the activation buffer holding the last layer's output
        self.padded = 0  # the running batch, rounded up to whole GEMM blocks

    def buffer(self, role, shape: Tuple[int, ...]) -> np.ndarray:
        """A ``shape`` view of the flat buffer ``role``, grown when too small."""
        return self.pool.get((role,), (prod(shape),), dtype=self.dtype).reshape(shape)

    def idle(self, sample_shape: Tuple[int, ...]) -> np.ndarray:
        """The activation buffer not holding the live activation, padded rows included."""
        return self.buffer(1 - self.live, (self.padded,) + tuple(sample_shape))

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The live activation ``x`` with its rows up to whole GEMM blocks."""
        return self.buffer(self.live, (self.padded,) + x.shape[1:])


class ArenaForward:
    """The inference forward of a ``Sequential`` in one dtype (see the module doc)."""

    def __init__(self, dtype: DTypeLike) -> None:
        self.dtype = np.dtype(dtype)
        self.name = "fp32" if self.dtype == np.float32 else "fp64"
        self._states: Dict[int, object] = {}
        self._steps: Optional[Tuple[Tuple[int, object], ...]] = None
        self._local = threading.local()

    def __reduce__(self):
        # Pickles and deep copies carry the dtype only: the prepared weights
        # and the scratch are rebuilt on the next forward.
        return (type(self), (self.dtype,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"

    @property
    def arena_allocations(self) -> int:
        """Scratch buffer (re)allocations made so far by this thread's forwards."""
        scratch = getattr(self._local, "scratch", None)
        return 0 if scratch is None else scratch.pool.allocations

    def reset(self) -> None:
        """Drop the plan and the prepared weights; the next forward redoes them."""
        self._states = {}
        self._steps = None

    # -- dispatch --------------------------------------------------------- #
    def steps(self, layers: Sequence) -> Tuple[Tuple[int, object], ...]:
        """The model ``layers`` as this forward's ``(index, step)`` pairs.

        A ``Conv2D`` followed by ``Selu`` and ``MaxPool2D`` is one step, at
        the conv's index; every other layer is a step of its own.
        """
        if self._steps is None:
            plan = []
            index = 0
            while index < len(layers):
                layer, following = layers[index], layers[index + 1 : index + 3]
                if (
                    isinstance(layer, Conv2D)
                    and len(following) == 2
                    and isinstance(following[0], Selu)
                    and isinstance(following[1], MaxPool2D)
                ):
                    plan.append((index, _ConvBlock(layer, following[1])))
                    index += 3
                else:
                    plan.append((index, layer))
                    index += 1
            self._steps = tuple(plan)
        return self._steps

    @hot_path
    def forward_layer(self, index: int, layer, x: np.ndarray) -> np.ndarray:
        """Inference forward of the step ``(index, layer)`` of :meth:`steps`."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = _Scratch(self.dtype)
        if index == 0:
            x = self._ingest(scratch, x)
        if isinstance(layer, Selu):
            # In place, with the negative branch in the idle activation buffer.
            return fused_selu(x, x, scratch.idle(x.shape[1:])[: len(x)])
        if isinstance(layer, (Dropout, AlphaDropout)):
            return x
        if index not in self._states:
            self._states[index] = _prepare(layer, self.dtype)
        state = self._states[index]
        if isinstance(layer, Conv2D):
            out = self._conv(scratch, state, x, 1 - scratch.live)
        elif isinstance(layer, _ConvBlock):
            out = self._conv(scratch, state, x, 1 - scratch.live, layer.pool)
        elif isinstance(layer, Dense):
            out = self._dense(scratch, state, x)
        elif isinstance(layer, MaxPool2D):
            out = self._maxpool(scratch, layer, x)
        elif isinstance(layer, Flatten):
            out = self._flatten(scratch, x)
        elif isinstance(layer, SpatialAttention):
            out = self._attention(scratch, state, x)
        else:
            out = self._fallback(scratch, layer, x)
        scratch.live = 1 - scratch.live
        return out

    @hot_path
    def _ingest(self, scratch: _Scratch, x: np.ndarray) -> np.ndarray:
        """Copy the model input into the scratch: cast, and NCHW made NHWC."""
        batch = len(x)
        scratch.padded = -(-batch // GEMM_SAMPLES) * GEMM_SAMPLES
        scratch.live = 0
        source = x.transpose(0, 2, 3, 1) if x.ndim == 4 else x
        out = scratch.rows(source)[:batch]
        np.copyto(out, source)
        return out

    @hot_path
    def finalize(self, out: np.ndarray) -> np.ndarray:
        """The model output detached from the scratch, a 4-d one in NCHW."""
        if out.ndim == 4:
            out = out.transpose(0, 3, 1, 2)
        return np.array(out, order="C")  # lint: disable=hot-path/banned-alloc -- the result must escape the scratch; one (B, C) copy per batch

    # -- kernels ---------------------------------------------------------- #
    @hot_path
    def _conv(
        self,
        scratch: _Scratch,
        state: _ConvState,
        x: np.ndarray,
        role,
        pool: Optional[MaxPool2D] = None,
    ) -> np.ndarray:
        """``x`` (NHWC) convolved into the buffer ``role``, one GEMM block at a time.

        With ``pool`` (a conv block), each block's product is pooled first and
        the bias and SELU act on the pooled map.
        """
        batch, height, width, channels = x.shape
        top, bottom, left, right = (
            _pad_same(height, width, state.kernel) if state.padding == "same" else (0, 0, 0, 0)
        )
        block = scratch.buffer(
            "block", (GEMM_SAMPLES, top + height + bottom, left + width + right, channels)
        )
        # The block buffer is shared: zero the border another layer wrote.
        block[:, :top] = 0.0
        block[:, top + height :] = 0.0
        block[:, :, :left] = 0.0
        block[:, :, left + width :] = 0.0
        interior = block[:, top : top + height, left : left + width]
        windows = np.lib.stride_tricks.sliding_window_view(
            block, state.kernel, axis=(1, 2)
        ).transpose(state.window_axes)
        out_h, out_w = windows.shape[1:3]
        units = state.weight2d.shape[1]
        if pool is not None:
            out_h, out_w = _pooled_size(pool, out_h, out_w)
            # Gather and multiply only the rows and columns the pool reads.
            windows = windows[:, : out_h * pool.pool_size[0], : out_w * pool.pool_size[1]]
            gemm = scratch.buffer("gemm", windows.shape[:3] + (units,))
            product = gemm.reshape(-1, units)
            # Once pooled, the spent product is the block's SELU scratch.
            pooled_block = (GEMM_SAMPLES, out_h, out_w, units)
            spent = gemm.reshape(-1)[: prod(pooled_block)].reshape(pooled_block)
        col = scratch.buffer("col", windows.shape)
        gemm_rows = col.reshape(prod(windows.shape[:3]), -1)
        out = scratch.buffer(role, (scratch.padded, out_h, out_w, units))
        for start in range(0, batch, GEMM_SAMPLES):
            count = min(GEMM_SAMPLES, batch - start)
            interior[:count] = x[start : start + count]
            interior[count:] = 0.0
            np.copyto(col, windows)
            if pool is None:
                target = out[start : start + GEMM_SAMPLES]
                np.matmul(gemm_rows, state.weight2d, out=target.reshape(-1, units))
            else:
                np.matmul(gemm_rows, state.weight2d, out=product)
                pooled = _max_pool(gemm[:count], pool.pool_size, out[start : start + count])
                pooled += state.bias
                fused_selu(pooled, pooled, spent[:count])
        out = out[:batch]
        if pool is None:
            out += state.bias
        return out

    @hot_path
    def _dense(self, scratch: _Scratch, state: _DenseState, x: np.ndarray) -> np.ndarray:
        """``x @ weight + bias``, one GEMM per block of the zero-padded batch."""
        batch, features = x.shape
        rows = scratch.rows(x)
        rows[batch:] = 0.0
        units = state.weight.shape[1]
        out = scratch.idle((units,))
        np.matmul(
            rows.reshape(-1, GEMM_SAMPLES, features),
            state.weight,
            out=out.reshape(-1, GEMM_SAMPLES, units),
        )
        out = out[:batch]
        out += state.bias
        return out

    @hot_path
    def _maxpool(self, scratch: _Scratch, layer: MaxPool2D, x: np.ndarray) -> np.ndarray:
        batch, height, width, channels = x.shape
        out = scratch.idle(_pooled_size(layer, height, width) + (channels,))[:batch]
        return _max_pool(x, layer.pool_size, out)

    @hot_path
    def _flatten(self, scratch: _Scratch, x: np.ndarray) -> np.ndarray:
        """``x`` flattened in the NCHW order of the ``Flatten`` layer."""
        out = scratch.idle((prod(x.shape[1:]),))[: len(x)]
        source = x.transpose(0, 3, 1, 2) if x.ndim == 4 else x
        np.copyto(out.reshape(source.shape), source)
        return out

    @hot_path
    def _attention(self, scratch: _Scratch, state: _ConvState, x: np.ndarray) -> np.ndarray:
        """:class:`SpatialAttention`: attention weights times ``x``, plus ``x``."""
        batch, height, width, channels = x.shape
        # The channel max and mean come from an NCHW copy, so numpy sums the
        # mean in the order of the layer's own NCHW forward.
        nchw = scratch.idle((channels, height, width))[:batch]
        np.copyto(nchw, x.transpose(0, 3, 1, 2))
        maps = scratch.buffer("maps", (batch, height, width, 2))
        np.max(nchw, axis=1, out=maps[..., 0])
        np.mean(nchw, axis=1, out=maps[..., 1])
        weights = _sigmoid_inplace(self._conv(scratch, state, maps, "logits"))
        out = scratch.idle((height, width, channels))[:batch]  # over the spent NCHW copy
        np.multiply(x, weights, out=out)
        out += x  # skip connection
        return out

    def _fallback(self, scratch: _Scratch, layer, x: np.ndarray) -> np.ndarray:
        """Any other layer (ReLU, sigmoid, softmax, ...) runs its own NCHW forward."""
        result = layer.forward(x.transpose(0, 3, 1, 2) if x.ndim == 4 else x, training=False)
        if result.ndim == 4:
            result = result.transpose(0, 2, 3, 1)
        out = scratch.idle(result.shape[1:])[: len(result)]
        np.copyto(out, result)
        return out


__all__ = [
    "COMPUTE_NAMES",
    "GEMM_SAMPLES",
    "ArenaForward",
    "ComputeError",
]
