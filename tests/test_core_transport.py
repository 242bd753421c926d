"""Tests for the shared-memory frame transport of the process backend."""

import multiprocessing

import numpy as np
import pytest

from repro.core.lifecycle import LifecycleError, ModelVersion
from repro.core.transport import (
    RECORD_FLUSH,
    RECORD_FRAME,
    RECORD_MODEL_SWAP,
    RECORD_STOP,
    ShmRing,
    TransportError,
    pack_control_record,
    pack_frame_record,
    pack_model_swap_record,
    segment_exists,
    unpack_record,
)


@pytest.fixture()
def context():
    return multiprocessing.get_context()


class TestRecordCodec:
    def test_frame_record_roundtrip(self):
        payload = bytes(range(256)) * 3
        encoded = pack_frame_record(7, "aa:bb", 1.25, payload)
        record = unpack_record(encoded)
        assert record.kind == RECORD_FRAME
        assert record.sequence == 7
        assert record.source == "aa:bb"
        assert record.timestamp_s == 1.25
        assert record.payload == payload

    def test_control_records(self):
        for kind in (RECORD_FLUSH, RECORD_STOP):
            record = unpack_record(pack_control_record(kind, sequence=9))
            assert record.kind == kind
            assert record.sequence == 9
        with pytest.raises(TransportError):
            pack_control_record(RECORD_FRAME)


class TestShmRing:
    def test_put_get_fifo(self, context):
        ring = ShmRing(context, num_slots=8, slot_bytes=256)
        try:
            for sequence in range(5):
                ring.put(pack_frame_record(sequence, "src", 0.0, b"x" * 32))
            for sequence in range(5):
                assert ring.get().sequence == sequence
        finally:
            ring.unlink()

    def test_large_record_spans_multiple_slots(self, context):
        """An oversize frame must survive a tiny-slot ring bit for bit."""
        ring = ShmRing(context, num_slots=64, slot_bytes=128)
        payload = np.random.default_rng(5).bytes(1500)
        try:
            assert ring.slots_needed(len(pack_frame_record(0, "s", 0.0, payload))) > 1
            ring.put(pack_frame_record(3, "02:aa", 0.5, payload))
            record = ring.get()
            assert record.payload == payload
            assert record.sequence == 3
        finally:
            ring.unlink()

    def test_record_larger_than_ring_rejected(self, context):
        ring = ShmRing(context, num_slots=2, slot_bytes=64)
        try:
            with pytest.raises(TransportError):
                ring.put(b"z" * 1024)
        finally:
            ring.unlink()

    def test_backpressure_invokes_on_wait(self, context):
        """A full ring blocks; draining in another thread unblocks the put."""
        import threading

        ring = ShmRing(context, num_slots=1, slot_bytes=256)
        waits = []
        try:
            ring.put(pack_control_record(RECORD_FLUSH))

            def drain_later():
                ring.get()

            drainer = threading.Timer(0.05, drain_later)
            drainer.start()
            ring.put(pack_control_record(RECORD_FLUSH), on_wait=lambda: waits.append(1))
            drainer.join()
            assert waits == [1]
        finally:
            ring.unlink()

    def test_unlink_destroys_segment(self, context):
        ring = ShmRing(context, num_slots=2, slot_bytes=128)
        name = ring.name
        assert segment_exists(name)
        ring.unlink()
        ring.unlink()  # idempotent
        assert not segment_exists(name)

    def test_invalid_configuration_rejected(self, context):
        with pytest.raises(TransportError):
            ShmRing(context, num_slots=0, slot_bytes=256)
        with pytest.raises(TransportError):
            ShmRing(context, num_slots=4, slot_bytes=8)

    def test_init_failure_after_create_releases_segment(self):
        """Regression (found by repro-lint shm/missing-cleanup): a semaphore
        construction failure after SharedMemory(create=True) must not leak
        the freshly created segment."""
        created_names = []
        original = ShmRing.__init__

        class FailingContext:
            def Semaphore(self, value):
                raise OSError("named-semaphore quota exhausted")

        def capturing_init(ring, context, num_slots, slot_bytes):
            try:
                original(ring, context, num_slots, slot_bytes)
            finally:
                shm = ring.__dict__.get("_shm")
                if shm is not None:
                    created_names.append(shm.name)

        ShmRing.__init__ = capturing_init
        try:
            with pytest.raises(OSError, match="quota"):
                ShmRing(FailingContext(), num_slots=2, slot_bytes=128)
        finally:
            ShmRing.__init__ = original
        assert len(created_names) == 1
        assert not segment_exists(created_names[0])


class TestModelSwapCodec:
    """RECORD_MODEL_SWAP mirrors the codeword-record codec guarantees."""

    @staticmethod
    def _version(version=3, threshold=0.75, size=4):
        rng = np.random.default_rng(11)
        return ModelVersion(
            version=version,
            weights={
                "00_conv/weight": rng.standard_normal((size, size)),
                "00_conv/bias": rng.standard_normal(size),
            },
            open_set_threshold=threshold,
        )

    def test_swap_record_roundtrip_preserves_bits(self):
        original = self._version()
        encoded = pack_model_swap_record(
            9, original.version, original.to_bytes(), original.open_set_threshold
        )
        record = unpack_record(encoded)
        assert record.kind == RECORD_MODEL_SWAP
        assert record.sequence == 9
        assert record.swap.version == 3
        assert record.swap.open_set_threshold == pytest.approx(0.75)
        decoded = ModelVersion.from_bytes(
            record.swap.blob, expected_version=record.swap.version
        )
        assert decoded.version == original.version
        assert set(decoded.weights) == set(original.weights)
        for name, value in original.weights.items():
            np.testing.assert_array_equal(decoded.weights[name], value)

    def test_swap_record_without_threshold(self):
        original = self._version(threshold=None)
        record = unpack_record(
            pack_model_swap_record(0, original.version, original.to_bytes())
        )
        assert record.swap.open_set_threshold is None

    def test_version_field_bounds(self):
        blob = self._version().to_bytes()
        for bad_version in (0, -1, 2**32):
            with pytest.raises(TransportError, match="swap record subheader"):
                pack_model_swap_record(0, bad_version, blob)

    def test_truncated_subheader_rejected(self):
        encoded = pack_model_swap_record(1, 2, self._version(version=2).to_bytes())
        with pytest.raises(TransportError, match="truncated model-swap"):
            unpack_record(encoded[: len(encoded) - len(self._version().to_bytes()) - 4])

    def test_truncated_blob_rejected(self):
        encoded = pack_model_swap_record(1, 3, self._version().to_bytes())
        with pytest.raises(TransportError, match="blob has"):
            unpack_record(encoded[:-7])

    def test_announced_version_mismatch_detected(self):
        """The transport ships the blob verbatim; the lifecycle decoder must
        catch a payload whose embedded version disagrees with the record."""
        swap = unpack_record(
            pack_model_swap_record(0, 5, self._version(version=4).to_bytes())
        ).swap
        with pytest.raises(LifecycleError, match="mismatch"):
            ModelVersion.from_bytes(swap.blob, expected_version=swap.version)

    def test_corrupt_blob_rejected(self):
        blob = self._version().to_bytes()
        with pytest.raises(LifecycleError, match="truncated or corrupt"):
            ModelVersion.from_bytes(blob[: len(blob) // 2])

    def test_oversized_swap_spans_multiple_ring_slots(self, context):
        """A multi-KB weight snapshot must survive a tiny-slot ring bit for
        bit, exactly like the oversized V~ records."""
        ring = ShmRing(context, num_slots=256, slot_bytes=128)
        original = self._version(version=6, size=32)
        encoded = pack_model_swap_record(
            6, original.version, original.to_bytes(), original.open_set_threshold
        )
        try:
            assert ring.slots_needed(len(encoded)) > 1
            ring.put(encoded)
            record = ring.get()
            assert record.kind == RECORD_MODEL_SWAP
            decoded = ModelVersion.from_bytes(
                record.swap.blob, expected_version=record.swap.version
            )
            for name, value in original.weights.items():
                np.testing.assert_array_equal(decoded.weights[name], value)
        finally:
            ring.unlink()
