"""Grow-only scratch-buffer arena shared by the inference hot paths.

The streaming engine runs the same shapes batch after batch, so every hot
path (the fp32 NN backend in :mod:`repro.nn.compute`, the codeword-native
Givens reconstruction in :mod:`repro.feedback.givens`, the batch staging in
:mod:`repro.core.engine`) wants the same thing: per-shape scratch buffers
that are allocated once for the largest batch seen and reused as views for
every smaller batch afterwards.  :class:`ArenaPool` is that allocator; it
grew up inside the fp32 compute backend and was promoted here so the
pre-NN preprocessing stages can share the idiom without importing the
neural-network stack.
"""

from __future__ import annotations

# lint: dtype-strict

from typing import Dict, Tuple

import numpy as np
from numpy.typing import DTypeLike

__all__ = ["ArenaPool"]


class ArenaPool:
    """Grow-only, per-shape scratch buffers reused across inference batches.

    Buffers are keyed by ``(key, trailing_shape)`` where ``key`` identifies
    the consumer (layer index + role) and the *leading* dimension is the
    batch: a request with a smaller batch returns a view of the existing
    buffer, a larger batch regrows it.  After the first batch of the largest
    size, steady-state inference therefore performs no large allocations.

    ``allocations`` counts buffer (re)allocations so tests and benchmarks
    can assert the steady state really is allocation-free.
    """

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}
        self.allocations = 0

    def get(
        self,
        key: tuple,
        shape: Tuple[int, ...],
        *,
        dtype: DTypeLike,
        zero: bool = False,
    ) -> np.ndarray:
        """A ``shape``-sized view of the ``dtype`` (no default) buffer for ``key``."""
        slot = (key, shape[1:], np.dtype(dtype))
        buffer = self._buffers.get(slot)
        if buffer is None or buffer.shape[0] < shape[0]:
            buffer = (
                np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
            )
            self._buffers[slot] = buffer
            self.allocations += 1
        return buffer[: shape[0]]

    def clear(self) -> None:
        self._buffers.clear()
