"""Tests for the grow-only scratch-buffer arena of the inference hot paths."""

import numpy as np

from repro.arena import ArenaPool


class TestArenaPool:
    def test_smaller_batch_reuses_the_buffer_as_a_view(self):
        arena = ArenaPool()
        large = arena.get(("conv", 0), (8, 3, 4), dtype=np.float32)
        small = arena.get(("conv", 0), (5, 3, 4), dtype=np.float32)
        assert small.shape == (5, 3, 4)
        assert small.dtype == np.float32
        assert np.shares_memory(small, large)
        assert arena.allocations == 1

    def test_larger_batch_regrows_the_buffer(self):
        arena = ArenaPool()
        arena.get(("conv", 0), (4, 3), dtype=np.float64)
        grown = arena.get(("conv", 0), (10, 3), dtype=np.float64)
        assert grown.shape == (10, 3)
        assert arena.allocations == 2
        again = arena.get(("conv", 0), (10, 3), dtype=np.float64)
        assert np.shares_memory(again, grown)
        assert arena.allocations == 2

    def test_key_trailing_shape_and_dtype_select_separate_buffers(self):
        arena = ArenaPool()
        base = arena.get(("dense", 1), (4, 16), dtype=np.float32)
        others = [
            arena.get(("dense", 2), (4, 16), dtype=np.float32),
            arena.get(("dense", 1), (4, 8), dtype=np.float32),
            arena.get(("dense", 1), (4, 16), dtype=np.float64),
        ]
        assert arena.allocations == 4
        for other in others:
            assert not np.shares_memory(base, other)

    def test_zero_requests_a_zeroed_allocation(self):
        arena = ArenaPool()
        buffer = arena.get(("acc",), (6, 2), dtype=np.complex128, zero=True)
        assert buffer.dtype == np.complex128
        np.testing.assert_array_equal(buffer, 0)

    def test_clear_forgets_every_buffer(self):
        arena = ArenaPool()
        first = arena.get(("pool",), (4, 2), dtype=np.int16)
        arena.clear()
        second = arena.get(("pool",), (4, 2), dtype=np.int16)
        assert arena.allocations == 2
        assert not np.shares_memory(first, second)
