"""Shared-memory frame transport for the process execution backend.

When :class:`~repro.core.service.StreamingService` runs its shards in child
*processes*, every sniffed observation has to cross a process boundary on
the hot path.  Pickling each frame or codeword array through a
``multiprocessing.Queue`` would pay serialisation, copy and pipe-write costs
per frame - exactly the per-frame dispatch overhead the batched engine was
built to avoid.

:class:`ShmRing` is a bounded single-producer/single-consumer ring buffer in
a ``multiprocessing.shared_memory`` segment:

* the ring is divided into fixed-size **slots**; one record occupies
  ``ceil(record_bytes / slot_bytes)`` *consecutive* slots, so arbitrarily
  large frames are supported without per-record allocation;
* each record is a compact binary layout (:data:`_HEADER` + UTF-8 source
  address + raw payload bytes): the frame or codeword payload is copied
  into the shared segment by the producer and out of it by the consumer -
  no pickling anywhere on the frame path;
* free/filled accounting uses two ``multiprocessing`` semaphores, which
  double as the backpressure mechanism: a full ring blocks the producer
  exactly like the bounded in-process record queue of a thread shard;
* the producer-side blocking wait takes a ``liveness`` callback so a dead
  consumer process surfaces as an error instead of a hang.

Record kinds (the worker acks every control record with its echoed
``sequence``, which the parent uses as a barrier id):

========================  ====================================================
:data:`RECORD_FRAME`      a raw VHT action-frame payload (quantised angles)
:data:`RECORD_FLUSH`      control: flush the shard engine, then ack
:data:`RECORD_STOP`       control: flush, ack and exit the worker loop
:data:`RECORD_CODEWORDS`  integer angle codewords + quantisation config
:data:`RECORD_MODEL_SWAP` control: install the model artifact of a
                          :class:`~repro.core.lifecycle.ModelVersion`, then
                          ack
========================  ====================================================

The payload of :data:`RECORD_FRAME` is the packed angle report exactly as it
was on the air.  The shard worker, the same loop a thread shard runs on
unpacked :class:`Record` objects, rebuilds the frame from it and hands it to
``InferenceEngine.submit``, which parses it to codewords - the bitwise
verdict-parity invariant holds by construction.

:data:`RECORD_CODEWORDS` is the codeword-native wire form: a 7-byte config
subheader (:data:`_CODEWORD_HEADER`: ``b_phi``, ``b_psi``, ``strict``,
``num_tx``, ``num_streams`` as ``u8`` and ``num_subcarriers`` as ``u16``)
followed by the little-endian ``int16`` ``q_phi`` then ``q_psi`` codeword
planes (their per-sub-carrier counts follow from the geometry via
:func:`repro.feedback.givens.angle_counts`).  For the paper's 80 MHz
``(K, M, N_SS) = (234, 3, 2)`` geometry that is 2 815 payload bytes, an
eighth of the 22 464 bytes of the complex128 ``V~`` they encode, and
reconstruction happens behind the ring on the worker side, where the
engine's codeword fast path consumes the codewords without ever
materialising the angles.

:data:`RECORD_MODEL_SWAP` rides the same ring as the frames it must be
ordered against: because the ring is strictly FIFO, every frame enqueued
*before* the swap record is classified by the old model version and every
frame after it by the new one -- the per-shard epoch barrier of the
zero-downtime swap needs no extra synchronisation.  Its payload is a small
subheader (:data:`_SWAP_HEADER`: version ``u32``, blob length ``u32``)
followed by the version's ``.npz`` model artifact
(:meth:`~repro.core.classifier.DeepCsiClassifier.to_bytes`); the blob
(~3 MB for the paper model) simply spans as many consecutive slots as it
needs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Optional

import numpy as np

from repro.feedback.givens import angle_counts
from repro.feedback.quantization import QuantizationConfig, QuantizedAngles


class TransportError(RuntimeError):
    """Raised for invalid transport configurations or records."""


#: Record kinds (see the module docstring).
RECORD_FRAME = 1
RECORD_FLUSH = 2
RECORD_STOP = 3
RECORD_CODEWORDS = 4
RECORD_MODEL_SWAP = 5

_CONTROL_KINDS = (RECORD_FLUSH, RECORD_STOP)

#: Fixed record header: kind (u8), source length (u16), payload bytes (u32),
#: service-wide sequence (u64), capture timestamp (f64).  ``<`` keeps the
#: layout packed and platform-independent.
_HEADER = struct.Struct("<BHIQd")

#: Subheader of :data:`RECORD_CODEWORDS` payloads: b_phi (u8), b_psi (u8),
#: strict flag (u8), num_tx (u8), num_streams (u8), num_subcarriers (u16).
_CODEWORD_HEADER = struct.Struct("<BBBBBH")

#: Wire dtype of the codeword planes (matches ``quantize_phi``'s output).
_CODEWORD_DTYPE = np.dtype("<i2")

#: Subheader of :data:`RECORD_MODEL_SWAP` payloads: version (u32), blob
#: length (u32).
_SWAP_HEADER = struct.Struct("<II")


@dataclass(frozen=True)
class ModelSwap:
    """Decoded payload of one :data:`RECORD_MODEL_SWAP` record.

    The transport layer stays ignorant of the blob's structure: ``blob`` is
    the opaque model artifact of a :class:`~repro.core.lifecycle.ModelVersion`,
    while ``version`` is lifted into the subheader so the consumer can
    rebuild the version (and the lifecycle layer cross-check it against the
    blob's stamp) without decoding the model first.
    """

    version: int
    blob: bytes


@dataclass(frozen=True)
class Record:
    """One decoded transport record."""

    kind: int
    sequence: int
    source: str
    timestamp_s: float
    #: Raw frame payload for :data:`RECORD_FRAME` records.
    payload: bytes = b""
    #: Decoded codewords for :data:`RECORD_CODEWORDS` records.
    quantized: Optional[QuantizedAngles] = None
    #: Decoded swap payload for :data:`RECORD_MODEL_SWAP` records.
    swap: Optional[ModelSwap] = None


def pack_frame_record(
    sequence: int, source: str, timestamp_s: float, payload: bytes
) -> bytes:
    """Encode a raw feedback-frame payload as one :data:`RECORD_FRAME`."""
    return _pack(RECORD_FRAME, source, bytes(payload), sequence, timestamp_s)


def pack_codeword_record(
    sequence: int, source: str, timestamp_s: float, quantized: QuantizedAngles
) -> bytes:
    """Encode quantised angle codewords as one :data:`RECORD_CODEWORDS`.

    The record carries the raw ``int16`` codeword planes plus the
    quantisation config and matrix geometry -- everything the worker-side
    engine needs to run the codeword-native reconstruction fast path.
    """
    num_sub = quantized.num_subcarriers
    for value, limit, what in (
        (quantized.config.b_phi, 0xFF, "b_phi"),
        (quantized.config.b_psi, 0xFF, "b_psi"),
        (quantized.num_tx, 0xFF, "num_tx"),
        (quantized.num_streams, 0xFF, "num_streams"),
        (num_sub, 0xFFFF, "num_subcarriers"),
    ):
        if not 0 <= value <= limit:
            raise TransportError(
                f"{what}={value} does not fit the codeword record subheader"
            )
    subheader = _CODEWORD_HEADER.pack(
        quantized.config.b_phi,
        quantized.config.b_psi,
        1 if quantized.config.strict else 0,
        quantized.num_tx,
        quantized.num_streams,
        num_sub,
    )
    q_phi = np.ascontiguousarray(quantized.q_phi, dtype=_CODEWORD_DTYPE)
    q_psi = np.ascontiguousarray(quantized.q_psi, dtype=_CODEWORD_DTYPE)
    payload = subheader + q_phi.tobytes() + q_psi.tobytes()
    return _pack(RECORD_CODEWORDS, source, payload, sequence, timestamp_s)


def pack_model_swap_record(sequence: int, version: int, blob: bytes) -> bytes:
    """Encode a model-version install as one :data:`RECORD_MODEL_SWAP`.

    ``version`` must fit the subheader's ``u32``; the blob is carried
    verbatim and may span as many ring slots as it needs.
    """
    if not 0 < version <= 0xFFFFFFFF:
        raise TransportError(
            f"model version {version} does not fit the swap record subheader"
        )
    subheader = _SWAP_HEADER.pack(version, len(blob))
    return _pack(RECORD_MODEL_SWAP, "", subheader + bytes(blob), sequence, 0.0)


def pack_control_record(kind: int, sequence: int = 0) -> bytes:
    """Encode a flush/stop control token (``sequence`` echoes back in acks)."""
    if kind not in _CONTROL_KINDS:
        raise TransportError(f"not a control record kind: {kind}")
    return _pack(kind, "", b"", sequence, 0.0)


def _pack(
    kind: int, source: str, payload: bytes, sequence: int, timestamp_s: float
) -> bytes:
    source_bytes = source.encode("utf-8")
    if len(source_bytes) > 0xFFFF:
        raise TransportError("source address does not fit the record header")
    header = _HEADER.pack(
        kind, len(source_bytes), len(payload), sequence, timestamp_s
    )
    return header + source_bytes + payload


def unpack_record(data: bytes) -> Record:
    """Decode one record produced by the ``pack_*`` helpers."""
    kind, source_len, payload_len, sequence, timestamp_s = _HEADER.unpack_from(data)
    offset = _HEADER.size
    source = bytes(data[offset : offset + source_len]).decode("utf-8")
    offset += source_len
    payload = bytes(data[offset : offset + payload_len])
    if kind == RECORD_CODEWORDS:
        return Record(
            kind,
            sequence,
            source,
            timestamp_s,
            quantized=_unpack_codewords(payload),
        )
    if kind == RECORD_MODEL_SWAP:
        return Record(
            kind,
            sequence,
            source,
            timestamp_s,
            swap=_unpack_model_swap(payload),
        )
    return Record(kind, sequence, source, timestamp_s, payload=payload)


def _unpack_model_swap(payload: bytes) -> ModelSwap:
    if len(payload) < _SWAP_HEADER.size:
        raise TransportError("truncated model-swap record subheader")
    version, blob_len = _SWAP_HEADER.unpack_from(payload)
    blob = payload[_SWAP_HEADER.size :]
    if len(blob) != blob_len:
        raise TransportError(
            f"model-swap record blob has {len(blob)} bytes, expected {blob_len}"
        )
    return ModelSwap(version=version, blob=bytes(blob))


def _unpack_codewords(payload: bytes) -> QuantizedAngles:
    if len(payload) < _CODEWORD_HEADER.size:
        raise TransportError("truncated codeword record subheader")
    b_phi, b_psi, strict, num_tx, num_streams, num_sub = _CODEWORD_HEADER.unpack_from(
        payload
    )
    config = QuantizationConfig(b_phi=b_phi, b_psi=b_psi, strict=bool(strict))
    n_phi, n_psi = angle_counts(num_tx, num_streams)
    expected = _CODEWORD_HEADER.size + 2 * num_sub * (n_phi + n_psi)
    if len(payload) != expected:
        raise TransportError(
            f"codeword record payload has {len(payload)} bytes, expected "
            f"{expected} for (K, M, N_SS) = ({num_sub}, {num_tx}, {num_streams})"
        )
    offset = _CODEWORD_HEADER.size
    phi_bytes = 2 * num_sub * n_phi
    # bytearray copies keep the arrays writable and independent of the
    # transport buffer; astype normalises the wire byte order to native.
    q_phi = (
        np.frombuffer(bytearray(payload[offset : offset + phi_bytes]), dtype=_CODEWORD_DTYPE)
        .reshape(num_sub, n_phi)
        .astype(np.int16, copy=False)
    )
    offset += phi_bytes
    q_psi = (
        np.frombuffer(bytearray(payload[offset:]), dtype=_CODEWORD_DTYPE)
        .reshape(num_sub, n_psi)
        .astype(np.int16, copy=False)
    )
    return QuantizedAngles(
        q_phi=q_phi,
        q_psi=q_psi,
        config=config,
        num_tx=num_tx,
        num_streams=num_streams,
    )


class ShmRing:
    """Bounded SPSC ring of fixed-size slots in shared memory.

    Parameters
    ----------
    context:
        The ``multiprocessing`` context whose semaphores synchronise the two
        sides (must be the same context the worker process is spawned from).
    num_slots:
        Ring capacity in slots; doubles as the backpressure bound (the
        service's ``queue_depth``, which bounds a thread shard's inbox in
        records).
    slot_bytes:
        Slot size.  Records larger than one slot span consecutive slots; a
        record may use at most ``num_slots`` of them.

    Notes
    -----
    Exactly one producer (the service's router, serialised by a per-shard
    lock) and one consumer (the worker process) may use a ring.  The head
    and tail indices are private to their side; the semaphores carry all
    cross-process synchronisation, so no index ever needs to be shared.
    """

    def __init__(self, context: Any, num_slots: int, slot_bytes: int) -> None:
        if num_slots < 1:
            raise TransportError("num_slots must be >= 1")
        if slot_bytes < _HEADER.size:
            raise TransportError(
                f"slot_bytes must be >= the {_HEADER.size}-byte record header"
            )
        self.num_slots = num_slots
        self.slot_bytes = slot_bytes
        self._shm = shared_memory.SharedMemory(
            create=True, size=num_slots * slot_bytes
        )
        try:
            self._free_slots = context.Semaphore(num_slots)
            self._filled_records = context.Semaphore(0)
        except BaseException:
            # Semaphore construction can fail (e.g. the host's named-semaphore
            # quota); without this the freshly created segment would outlive
            # the process under /dev/shm.
            self._shm.close()
            self._shm.unlink()
            raise
        self._head = 0
        self._tail = 0
        self._closed = False
        self._owner = True

    @property
    def name(self) -> str:
        """Name of the underlying shared-memory segment."""
        return self._shm.name

    def slots_needed(self, record_bytes: int) -> int:
        return max(1, -(-record_bytes // self.slot_bytes))

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def put(
        self,
        record: bytes,
        on_wait: Optional[Callable[[], None]] = None,
        liveness: Optional[Callable[[], None]] = None,
    ) -> None:
        """Write one record, blocking while the ring is full (backpressure).

        ``on_wait`` fires once if the call had to block (the service counts
        these as ``queue_full_waits``); ``liveness`` is polled while blocked
        so a dead consumer raises instead of deadlocking the producer.
        """
        needed = self.slots_needed(len(record))
        if needed > self.num_slots:
            raise TransportError(
                f"a {len(record)}-byte record needs {needed} slots but the "
                f"ring only has {self.num_slots}; raise queue_depth or "
                f"slot_bytes"
            )
        blocked = False
        for _ in range(needed):
            if self._free_slots.acquire(block=False):
                continue
            if not blocked:
                blocked = True
                if on_wait is not None:
                    on_wait()
            while not self._free_slots.acquire(timeout=0.1):
                if liveness is not None:
                    liveness()
        view = self._shm.buf
        offset = 0
        for index in range(needed):
            slot = (self._head + index) % self.num_slots
            chunk = record[offset : offset + self.slot_bytes]
            start = slot * self.slot_bytes
            view[start : start + len(chunk)] = chunk
            offset += len(chunk)
        self._head = (self._head + needed) % self.num_slots
        self._filled_records.release()

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def get(self, block: bool = True) -> Optional[Record]:
        """Read the next record, blocking until one is available.

        With ``block=False`` an empty ring returns ``None`` at once and
        leaves the ring as it was.
        """
        if not self._filled_records.acquire(block=block):
            return None
        view = self._shm.buf
        start = self._tail * self.slot_bytes
        _, source_len, payload_len, _, _ = _HEADER.unpack_from(view, start)
        total = _HEADER.size + source_len + payload_len
        needed = self.slots_needed(total)
        data = bytearray(total)
        offset = 0
        for index in range(needed):
            slot = (self._tail + index) % self.num_slots
            take = min(self.slot_bytes, total - offset)
            begin = slot * self.slot_bytes
            data[offset : offset + take] = view[begin : begin + take]
            offset += take
        self._tail = (self._tail + needed) % self.num_slots
        for _ in range(needed):
            self._free_slots.release()
        return unpack_record(data)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Detach from the segment (either side; idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator side only; idempotent)."""
        self.close()
        if not self._owner:
            return
        self._owner = False
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    # ------------------------------------------------------------------ #
    # Pickling (spawn start-method fallback)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        return {
            "num_slots": self.num_slots,
            "slot_bytes": self.slot_bytes,
            "shm_name": self._shm.name,
            "free_slots": self._free_slots,
            "filled_records": self._filled_records,
        }

    def __setstate__(self, state: dict) -> None:
        self.num_slots = state["num_slots"]
        self.slot_bytes = state["slot_bytes"]
        self._shm = shared_memory.SharedMemory(name=state["shm_name"])
        self._free_slots = state["free_slots"]
        self._filled_records = state["filled_records"]
        self._head = 0
        self._tail = 0
        self._closed = False
        self._owner = False


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment with ``name`` still exists.

    Used by the leak tests: after :meth:`ShmRing.unlink` this must be
    ``False`` for every ring the service created.
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


__all__ = [
    "ModelSwap",
    "RECORD_CODEWORDS",
    "RECORD_FLUSH",
    "RECORD_FRAME",
    "RECORD_MODEL_SWAP",
    "RECORD_STOP",
    "Record",
    "ShmRing",
    "TransportError",
    "pack_codeword_record",
    "pack_control_record",
    "pack_frame_record",
    "pack_model_swap_record",
    "segment_exists",
    "unpack_record",
]
