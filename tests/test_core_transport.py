"""Tests for the shared-memory frame transport of the process backend."""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.core.backends import _RecordQueue
from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.lifecycle import LifecycleError, ModelVersion
from repro.core.model import DeepCsiModelConfig
from repro.core.transport import (
    RECORD_FLUSH,
    RECORD_FRAME,
    RECORD_MODEL_SWAP,
    RECORD_STOP,
    ModelSwap,
    Record,
    ShmRing,
    TransportError,
    pack_control_record,
    pack_frame_record,
    pack_model_swap_record,
    segment_exists,
    unpack_record,
)
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.datasets.splits import D1_SPLITS, d1_split
from repro.nn.training import TrainingConfig


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


def _queue_record(sequence, source, timestamp_s, payload):
    """A thread shard's inbox carries the record itself, never its bytes."""
    return Record(RECORD_FRAME, sequence, source, timestamp_s, payload=payload)


@pytest.fixture(params=["ring", "queue"])
def inbox(request, context):
    """Each shard inbox (a ring of four 128-byte slots, a queue of depth 4)
    with the encoder of its records."""
    if request.param == "queue":
        yield _RecordQueue(4), _queue_record
        return
    ring = ShmRing(context, num_slots=4, slot_bytes=128)
    try:
        yield ring, pack_frame_record
    finally:
        ring.unlink()


def _put(inbox, record, waits):
    """Put ``record``, counting a wait in ``waits``; 0.1 s without room fails."""

    def stuck():
        raise AssertionError("the inbox stayed full")

    inbox.put(record, on_wait=lambda: waits.append(1), liveness=stuck)


class TestNonBlockingGet:
    """``get(block=False)``, the idle shard's read of both inboxes."""

    def test_empty_inbox_returns_none_and_takes_no_slot(self, inbox):
        box, encode = inbox
        assert box.get(block=False) is None
        waits = []
        for sequence in range(4):
            _put(box, encode(sequence, "src", 0.0, b"x" * 16), waits)
        assert waits == []  # the miss held no slot, so all four were free
        assert [box.get(block=False).sequence for _ in range(4)] == [0, 1, 2, 3]
        assert box.get(block=False) is None

    def test_record_spanning_slots_comes_back_whole(self, inbox):
        box, encode = inbox
        payload = np.random.default_rng(11).bytes(300)  # 3 of the ring's slots
        _put(box, encode(5, "02:aa", 0.5, payload), [])
        record = box.get(block=False)
        assert (record.kind, record.sequence, record.source) == (RECORD_FRAME, 5, "02:aa")
        assert (record.timestamp_s, record.payload) == (0.5, payload)
        assert box.get(block=False) is None

    def test_blocking_get_after_a_miss(self, inbox):
        box, encode = inbox
        assert box.get(block=False) is None
        got = []
        reader = threading.Thread(target=lambda: got.append(box.get()), daemon=True)
        reader.start()
        time.sleep(0.05)  # the reader blocks on the empty inbox
        _put(box, encode(9, "src", 0.0, b"y"), [])
        reader.join(timeout=5.0)
        assert not reader.is_alive()
        assert [record.sequence for record in got] == [9]

    def test_miss_leaves_the_ring_tail(self, context):
        ring = ShmRing(context, num_slots=4, slot_bytes=128)
        try:
            spanning = pack_frame_record(0, "src", 0.0, bytes(300))
            assert ring.slots_needed(len(spanning)) == 3
            ring.put(spanning)
            ring.get()
            assert ring._tail == 3
            assert ring.get(block=False) is None
            assert ring._tail == 3
            waits = []
            for sequence in range(1, 5):  # wraps past the last slot
                _put(ring, pack_control_record(RECORD_FLUSH, sequence), waits)
            assert waits == []
            assert [ring.get(block=False).sequence for _ in range(4)] == [1, 2, 3, 4]
            assert ring._tail == 3
        finally:
            ring.unlink()


@pytest.fixture(scope="module")
def swap_classifier(tiny_d1):
    """A tiny CNN trained for one epoch: a real model artifact to ship."""
    train, _ = d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)
    classifier = DeepCsiClassifier(
        ClassifierConfig(
            num_classes=3,
            feature=FeatureConfig(
                stream_indices=(0,), subcarrier_positions=strided_subcarriers(234, 16)
            ),
            model=DeepCsiModelConfig(
                num_filters=4,
                kernel_widths=(3,),
                pool_width=2,
                dense_units=(8,),
                dropout_retain=(1.0,),
                use_attention=False,
            ),
            training=TrainingConfig(
                epochs=1, batch_size=16, validation_split=0.0, early_stopping_patience=None
            ),
        )
    )
    classifier.fit(train)
    return classifier


class TestModelSwapCodec:
    """RECORD_MODEL_SWAP mirrors the codeword-record codec guarantees."""

    def test_swap_record_roundtrip_preserves_bits(self, swap_classifier):
        blob = swap_classifier.to_bytes(version=3)
        record = unpack_record(pack_model_swap_record(9, 3, blob))
        assert record.kind == RECORD_MODEL_SWAP
        assert record.sequence == 9
        # The subheader is the version and the blob length, nothing more.
        assert record.swap == ModelSwap(version=3, blob=blob)
        decoded, open_set = ModelVersion(record.swap.version, record.swap.blob).decode()
        assert open_set is None
        assert decoded.config == swap_classifier.config

    def test_version_field_bounds(self):
        for bad_version in (0, -1, 2**32):
            with pytest.raises(TransportError, match="swap record subheader"):
                pack_model_swap_record(0, bad_version, b"blob")

    def test_truncated_subheader_rejected(self):
        blob = bytes(64)
        encoded = pack_model_swap_record(1, 2, blob)
        with pytest.raises(TransportError, match="truncated model-swap"):
            unpack_record(encoded[: len(encoded) - len(blob) - 4])

    def test_truncated_blob_rejected(self):
        encoded = pack_model_swap_record(1, 3, bytes(64))
        with pytest.raises(TransportError, match="blob has"):
            unpack_record(encoded[:-7])

    def test_announced_version_mismatch_detected(self, swap_classifier):
        """The transport ships the blob verbatim; the lifecycle decoder must
        catch a payload whose stamped version disagrees with the record."""
        swap = unpack_record(
            pack_model_swap_record(0, 5, swap_classifier.to_bytes(version=4))
        ).swap
        with pytest.raises(LifecycleError, match="mismatch"):
            ModelVersion(swap.version, swap.blob).decode()

    def test_corrupt_blob_rejected(self, swap_classifier):
        blob = swap_classifier.to_bytes(version=3)
        with pytest.raises(LifecycleError, match="truncated or corrupt"):
            ModelVersion(3, blob[: len(blob) // 2]).decode()

    def test_oversized_swap_spans_multiple_ring_slots(self, context, swap_classifier):
        """A model artifact must survive a tiny-slot ring bit for bit, like
        any other multi-slot record."""
        blob = swap_classifier.to_bytes(version=6)
        encoded = pack_model_swap_record(6, 6, blob)
        ring = ShmRing(context, num_slots=len(encoded) // 128 + 2, slot_bytes=128)
        try:
            assert ring.slots_needed(len(encoded)) > 1
            ring.put(encoded)
            record = ring.get()
            assert record.kind == RECORD_MODEL_SWAP
            assert record.swap.blob == blob
            ModelVersion(record.swap.version, record.swap.blob).decode()
        finally:
            ring.unlink()
