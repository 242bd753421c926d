"""Execution backends of the sharded streaming service.

:class:`~repro.core.service.StreamingService` owns the public API (routing,
service-wide sequence stamping, aggregated stats) and delegates *where the
shard engines run* to an execution backend.  Both backends run the same
shard worker, :func:`_shard_worker_main`, the only loop that drives a shard
engine; they differ only in the channel that feeds it records and carries
its messages back:

* :class:`ThreadBackend` (``backend="threads"``) - each worker is a daemon
  **thread** with a private copy of the classifier.  Its inbox is a
  :class:`_RecordQueue`, a bounded in-process queue of
  :class:`~repro.core.transport.Record` objects that are never packed to
  bytes, and its outbox an in-process queue.  Cheap to start, but the
  Python shards only overlap during BLAS calls: on a single core, and for
  the non-GEMM parts of the hot path everywhere, the GIL serialises them.
* :class:`ProcessBackend` (``backend="processes"``) - each worker is a child
  **process** whose classifier is cloned exactly once at startup
  (copy-on-write under the ``fork`` start method, one pickled copy under
  ``spawn``).  The model's inference dtype (:mod:`repro.nn.compute`) rides
  along in that startup payload; its prepared weights and scratch are not
  pickled, and the child rebuilds them on its first forward.  Its inbox is
  a :class:`~repro.core.transport.ShmRing` shared-memory ring of packed
  records - raw frame or codeword bytes plus a compact header, never a
  pickled NumPy object per frame - and its outbox a ``multiprocessing``
  queue.

Everything above the channel is written once, in :class:`_ShardBackend`.
A worker ships its results per micro-batch as compact tuples, together with
its engine's consistent :class:`~repro.core.engine.EngineStats` snapshot;
it acks every barrier record (flush, model swap, stop) with a snapshot too,
and reports its first exception as an ``error`` message.  The parent keeps
each shard's latest snapshot, which the service adds up into its stats, and
replays each shard's result stream into
:class:`~repro.core.engine.SourceWindows` and
:class:`~repro.core.lifecycle.DriftMonitor` replicas, which answer verdicts,
sources and drift without a round trip to the worker.

Both backends therefore provide the same invariants the service documents:

* **routing stability** - the backend is handed a shard index computed from
  the stable source hash; one source never spans two shards;
* **verdict parity** - a shard processes its sub-stream in submission order.
  Its batch boundaries depend on load (an idle shard classifies what it
  holds), but the inference forward gives a frame the same bits in any batch
  (:mod:`repro.nn.compute`), so per-frame results, windowed verdicts and
  drift are bitwise identical to a single engine fed the routed sub-stream;
* **bounded-queue backpressure** - ``queue_depth`` bounds each inbox
  (records for threads, shared-memory ring slots for processes); a full
  inbox blocks the submitter, the stall is counted in ``queue_full_waits``
  and the worker's liveness is polled while it lasts;
* **failure visibility** - a worker that raises (or dies) surfaces as
  :class:`~repro.core.service.ServiceError` on the next
  ``submit``/``flush``/``collect`` instead of a hang.
"""

from __future__ import annotations

import copy
import multiprocessing
import queue
import threading
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from repro.core.engine import (
    MAX_SOURCES,
    EngineResult,
    EngineStats,
    InferenceEngine,
    MajorityVerdict,
    Observation,
    SourceWindows,
)
from repro.core.lifecycle import DriftMonitor, DriftStatus, ModelVersion
from repro.core.transport import (
    RECORD_CODEWORDS,
    RECORD_FLUSH,
    RECORD_FRAME,
    RECORD_MODEL_SWAP,
    RECORD_STOP,
    ModelSwap,
    Record,
    ShmRing,
    pack_codeword_record,
    pack_control_record,
    pack_frame_record,
    pack_model_swap_record,
)
from repro.feedback.frames import FeedbackFrame

if TYPE_CHECKING:
    from repro.core.classifier import DeepCsiClassifier

#: Names accepted by ``StreamingService(backend=...)`` / ``serve --backend``.
BACKEND_NAMES = ("threads", "processes")


class WorkerFailure(RuntimeError):
    """Internal: a shard worker failed (wrapped in ServiceError upstream)."""


# --------------------------------------------------------------------------- #
# The shard worker
# --------------------------------------------------------------------------- #
def _decode(record: Record) -> Observation:
    """Rebuild the observation a data record carries.

    The engine reads the same payload, source and timestamp from it as from
    the submitted original, so both backends classify identically.
    """
    if record.kind == RECORD_FRAME:
        return FeedbackFrame(record.source, "", record.timestamp_s, record.payload)
    assert record.kind == RECORD_CODEWORDS and record.quantized is not None
    return record.quantized


def _shard_worker_main(
    shard_index: int,
    classifier: "DeepCsiClassifier",
    engine_kwargs: dict,
    inbox: Union["_RecordQueue", ShmRing],
    outbox: "queue.SimpleQueue | multiprocessing.queues.Queue",
) -> None:
    """Run one shard: the only loop that drives a shard engine.

    A thread shard runs it in a thread, a process shard in a child process.
    It builds the private engine, then serves the inbox in order: data
    records feed ``engine.submit``, a swap record installs the new model at
    the batch boundary (everything buffered is classified under the old one
    first), flush and stop records flush.  A shard that finds its inbox
    empty flushes whatever its engine holds before it blocks for the next
    record, so ``batch_size`` and ``max_latency_frames`` only cap the batches
    of a busy shard and no frame waits for later traffic.  Results go back
    per micro-batch as compact :class:`~repro.core.engine.EngineResult` field
    tuples stamped with the service-wide sequence numbers, with the engine's
    consistent stats snapshot; every barrier record is acked with its barrier
    id and a snapshot.  The first exception fails the shard: it is reported
    as an ``error`` message, and from then on the worker only acks barriers,
    so a producer never blocks on a full inbox and no barrier hangs.
    """

    def report(exc: BaseException) -> None:
        outbox.put(("error", shard_index, f"{type(exc).__name__}: {exc}"))

    try:
        engine = InferenceEngine(classifier, **engine_kwargs)
    except BaseException as exc:  # noqa: BLE001 - reported upstream
        report(exc)
        return
    sequences: Deque[int] = deque()  # service-wide, of the frames the engine holds
    failed = False
    while True:
        record = inbox.get(block=False)
        if record is None and (failed or not sequences):
            record = inbox.get()
        if not failed:
            try:
                # No record: the inbox is empty while the engine holds frames,
                # so the idle shard classifies them now, an unacked flush.
                if record is None or record.kind in (RECORD_FLUSH, RECORD_STOP):
                    batch = engine.flush()
                elif record.kind == RECORD_MODEL_SWAP:
                    assert record.swap is not None
                    batch = engine.install_model(
                        ModelVersion(record.swap.version, record.swap.blob)
                    )
                else:
                    sequences.append(record.sequence)
                    batch = engine.submit(_decode(record), source=record.source)
                if batch:
                    compact = [
                        (
                            result.predicted_module_id,
                            result.confidence,
                            result.source,
                            sequences.popleft(),
                            result.timestamp_s,
                            result.score,
                            result.accepted,
                            result.model_version,
                        )
                        for result in batch
                    ]
                    outbox.put(("results", shard_index, compact, engine.stats))
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                failed = True
                report(exc)
        if record is not None and record.kind not in (RECORD_FRAME, RECORD_CODEWORDS):
            outbox.put(("ack", shard_index, record.sequence, engine.stats))
            if record.kind == RECORD_STOP:
                inbox.close()
                return


class _RecordQueue:
    """A thread shard's inbox: a bounded in-process queue of records.

    The in-process twin of :class:`~repro.core.transport.ShmRing`, with the
    same ``put``/``get`` contract: ``put`` blocks while ``depth`` records
    wait, calls ``on_wait`` once if it had to and polls ``liveness`` while
    it waits, and ``get(block=False)`` returns ``None`` when no record
    waits.  The :class:`~repro.core.transport.Record` objects travel as they
    are, never packed to bytes.
    """

    def __init__(self, depth: int) -> None:
        self._queue: "queue.Queue[Record]" = queue.Queue(maxsize=depth)

    def put(
        self,
        record: Record,
        on_wait: Callable[[], None],
        liveness: Callable[[], None],
    ) -> None:
        try:
            self._queue.put_nowait(record)
        except queue.Full:
            on_wait()
            while True:
                try:
                    self._queue.put(record, timeout=0.1)
                    return
                except queue.Full:
                    liveness()

    def get(self, block: bool = True) -> Optional[Record]:
        try:
            return self._queue.get(block=block)
        except queue.Empty:
            return None

    def close(self) -> None:
        """Nothing to detach (a ring unmaps its segment here)."""


class _Shard:
    """Parent-side handle of one shard: its inbox and its worker."""

    def __init__(
        self,
        index: int,
        inbox: Union[_RecordQueue, ShmRing],
        worker: Union[threading.Thread, multiprocessing.Process],
    ) -> None:
        self.index = index
        self.inbox = inbox
        self.worker = worker
        self.lock = threading.Lock()  # serialises producers on this inbox

    @property
    def process(self) -> multiprocessing.Process:
        """The worker of a process shard (what the crash tests kill)."""
        return self.worker


# --------------------------------------------------------------------------- #
# Everything above the channel
# --------------------------------------------------------------------------- #
class _ShardBackend:
    """Barriers, acks, failures and the parent-side replicas of both backends.

    A subclass starts one :func:`_shard_worker_main` per shard on its own
    channel and says how records enter an inbox (:meth:`_encode`,
    :meth:`_control`).
    """

    def __init__(
        self,
        num_workers: int,
        engine_kwargs: dict,
        outbox: "queue.SimpleQueue | multiprocessing.queues.Queue",
    ) -> None:
        self._outbox = outbox
        self._completed: Deque[EngineResult] = deque()
        self._failure: Optional[str] = None
        self._queue_full_waits = 0  # guarded-by: _counter_lock
        #: Shards that acked each in-flight barrier, by barrier id.
        self._acks: Dict[int, Set[int]] = {}
        self._barrier_id = 0
        self._drain_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        self._closed = False
        # Parent-side replicas of every shard's result windows, drift monitor
        # and stats, fed from its messages in arrival order, so they answer
        # exactly what the shard's engine would.
        drift = engine_kwargs["drift"]
        self._windows = [  # guarded-by: _drain_lock
            SourceWindows(engine_kwargs["vote_window"], MAX_SOURCES)
            for _ in range(num_workers)
        ]
        self._drift = [  # guarded-by: _drain_lock
            DriftMonitor(drift) if drift is not None else None
            for _ in range(num_workers)
        ]
        # Until each worker ships its first snapshot.  guarded-by: _drain_lock
        self._stats = [EngineStats()] * num_workers
        self.shards: List[_Shard] = []

    def _encode(
        self, sequence: int, observation: Observation, source: str
    ) -> Union[Record, bytes]:
        """The inbox record of one observation."""
        raise NotImplementedError

    def _control(
        self, kind: int, barrier: int, swap: Optional[ModelSwap]
    ) -> Union[Record, bytes]:
        """The inbox record of one barrier: flush, stop or model swap."""
        raise NotImplementedError

    # -- submission ---------------------------------------------------- #
    def submit(
        self,
        shard_index: int,
        sequence: int,
        observation: Observation,
        source: str,
    ) -> None:
        # No drain here: the service's failure check before every submit
        # (raise_if_failed) already polled the outbox for this call.
        self._put(self.shards[shard_index], self._encode(sequence, observation, source))

    def _put(self, shard: _Shard, record: Union[Record, bytes]) -> None:
        with shard.lock:
            shard.inbox.put(
                record,
                on_wait=self._count_backpressure,
                liveness=lambda: self._check_alive(shard),
            )

    def _count_backpressure(self) -> None:
        with self._counter_lock:
            self._queue_full_waits += 1

    def _check_alive(self, shard: _Shard) -> None:
        worker = shard.worker
        if worker.is_alive():
            return
        if self._failure is None:
            exitcode = getattr(worker, "exitcode", None)  # processes only
            self._failure = f"shard worker {shard.index} died" + (
                "" if exitcode is None else f" (exit code {exitcode})"
            )
        raise WorkerFailure(self._failure)

    def flush(self) -> None:
        self._barrier(RECORD_FLUSH)

    def swap(self, version: ModelVersion) -> None:
        """Install a model version into every shard at its batch boundary.

        The swap record rides each inbox behind the frames submitted before
        it, which gives every shard its epoch barrier for free: the worker
        classifies those under the old model first.  Blocks until every
        shard acks; a dead worker raises instead of hanging the barrier.
        """
        self._barrier(RECORD_MODEL_SWAP, ModelSwap(version.version, version.blob))
        self.raise_if_failed()

    def _barrier(
        self,
        kind: int,
        swap: Optional[ModelSwap] = None,
        patience: Optional[int] = None,
    ) -> None:
        """Send one barrier record to every shard and wait for every ack.

        A worker that dies before acking raises :class:`WorkerFailure`, and
        so does a barrier still unacked after ``patience`` quiet polls of
        0.1 s each.
        """
        with self._lifecycle_lock:
            self._barrier_id += 1
            barrier = self._barrier_id
            acks = self._acks[barrier] = set()
            try:
                record = self._control(kind, barrier, swap)
                for shard in self.shards:
                    self._put(shard, record)
                while len(acks) < len(self.shards):
                    # A worker's messages reach the outbox before it exits,
                    # so one dead before a quiet drain will never ack.
                    dead = [shard for shard in self.shards if not shard.worker.is_alive()]
                    if self._drain(block=True):
                        continue
                    for shard in dead:
                        if shard.index not in acks:
                            self._check_alive(shard)
                    if patience is not None:
                        patience -= 1
                        if patience == 0:
                            raise WorkerFailure("the shard workers did not ack in time")
            finally:
                del self._acks[barrier]

    def poll(self) -> List[EngineResult]:
        # The service's failure check before every collect (raise_if_failed)
        # already polled the outbox for this call.
        results: List[EngineResult] = []
        while True:
            try:
                results.append(self._completed.popleft())
            except IndexError:
                return results

    # -- result return path --------------------------------------------- #
    def _drain(self, block: bool) -> bool:
        """Dispatch the queued worker messages; returns True if any were seen.

        One thread drains at a time, so the replicas replay each shard's
        messages in arrival order; a non-blocking drain skips when another
        thread is draining, a blocking one waits up to 0.1 s for a message.
        """
        if self._closed or (not block and self._drain_lock.locked()):
            return False
        with self._drain_lock:
            seen = False
            while True:
                try:
                    if block and not seen:
                        message = self._outbox.get(timeout=0.1)
                    else:
                        message = self._outbox.get_nowait()
                except queue.Empty:
                    return seen
                seen = True
                kind, index = message[0], message[1]
                if kind == "results":
                    _, _, compact, self._stats[index] = message
                    windows, drift = self._windows[index], self._drift[index]
                    for fields in compact:
                        result = EngineResult(*fields)
                        self._completed.append(result)
                        windows.append(result)
                        if drift is not None:
                            drift.observe(result.source, result.score)
                elif kind == "ack":
                    _, _, barrier, self._stats[index] = message
                    acks = self._acks.get(barrier)
                    if acks is not None:
                        acks.add(index)
                elif self._failure is None:  # "error"
                    self._failure = f"shard worker {index} failed: {message[2]}"

    # -- introspection -------------------------------------------------- #
    def verdict(self, shard_index: int, source: str) -> MajorityVerdict:
        self._drain(block=False)
        with self._drain_lock:
            return self._windows[shard_index].verdict(source)

    def sources(self) -> List[str]:
        self._drain(block=False)
        with self._drain_lock:
            names = [name for windows in self._windows for name in windows.sources]
        return sorted(names)

    def worker_stats(self) -> Tuple[EngineStats, ...]:
        self._drain(block=False)
        with self._drain_lock:
            return tuple(self._stats)

    def drift_snapshot(self) -> Tuple[DriftStatus, ...]:
        """Per-source drift state across all shards, sorted by source.

        Routing pins every source to one shard, so the per-shard snapshots
        are disjoint and merging is a plain sorted concatenation.
        """
        self._drain(block=False)
        merged: List[DriftStatus] = []
        with self._drain_lock:
            for drift in self._drift:
                if drift is not None:
                    merged.extend(drift.snapshot())
        return tuple(sorted(merged, key=lambda status: status.source))

    @property
    def queue_full_waits(self) -> int:
        with self._counter_lock:
            waits = self._queue_full_waits
        return waits

    def raise_if_failed(self) -> None:
        """Poll the outbox once, then raise if a worker has failed.

        The service calls this first in every ``submit``, ``flush`` and
        ``collect``, so it is also the one opportunistic drain of those
        calls: the outbox never holds a whole run's results, and a failed
        worker's error message surfaces at the next call.
        """
        self._drain(block=False)
        if self._failure is not None:
            raise WorkerFailure(self._failure)

    # -- lifecycle ------------------------------------------------------ #
    def close(self) -> None:
        """Stop the workers (each flushes first), join them, free the channels.

        Best effort: a dead worker must not leave the parent hanging (or a
        shared-memory segment linked), so a failed stop barrier still ends
        in :meth:`_release` instead of raising.  Completed results, verdicts
        and stats stay readable afterwards.
        """
        if self._closed:
            return
        try:
            self._barrier(RECORD_STOP, patience=100)
        except Exception:  # noqa: BLE001 - a dead worker; still clean up
            pass
        finally:
            self._closed = True  # from here on, drains leave the outbox alone
            self._release()

    def _release(self) -> None:
        for shard in self.shards:
            shard.worker.join(timeout=5.0)


class ThreadBackend(_ShardBackend):
    """Shard workers as daemon threads fed through in-process record queues."""

    def __init__(
        self,
        classifier: "DeepCsiClassifier",
        num_workers: int,
        queue_depth: int,
        engine_kwargs: dict,
    ) -> None:
        super().__init__(num_workers, engine_kwargs, queue.SimpleQueue())
        for index in range(num_workers):
            inbox = _RecordQueue(queue_depth)
            worker = threading.Thread(
                target=_shard_worker_main,
                args=(index, copy.deepcopy(classifier), engine_kwargs, inbox, self._outbox),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            self.shards.append(_Shard(index, inbox, worker))
        for shard in self.shards:
            shard.worker.start()

    def _encode(self, sequence: int, observation: Observation, source: str) -> Record:
        if isinstance(observation, FeedbackFrame):
            return Record(
                RECORD_FRAME,
                sequence,
                source,
                observation.timestamp_s,
                payload=observation.payload,
            )
        return Record(RECORD_CODEWORDS, sequence, source, 0.0, quantized=observation)

    def _control(self, kind: int, barrier: int, swap: Optional[ModelSwap]) -> Record:
        return Record(kind, barrier, "", 0.0, swap=swap)


class ProcessBackend(_ShardBackend):
    """Shard workers as child processes fed through shared-memory rings."""

    #: Ring slot size.  A paper-geometry frame or codeword record (~3 KB)
    #: takes one slot; a model-swap blob spans consecutive slots, and since
    #: a record may use at most ``queue_depth`` of them, the slot size times
    #: the depth bounds the largest model a swap can ship.
    DEFAULT_SLOT_BYTES = 32768

    def __init__(
        self,
        classifier: "DeepCsiClassifier",
        num_workers: int,
        queue_depth: int,
        engine_kwargs: dict,
    ) -> None:
        # fork clones the trained classifier into each child copy-on-write
        # (the "weights cloned once at startup" contract); spawn is the
        # portable fallback and pickles it once per worker instead.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        super().__init__(num_workers, engine_kwargs, context.Queue())
        try:
            for index in range(num_workers):
                ring = ShmRing(context, queue_depth, self.DEFAULT_SLOT_BYTES)
                worker = context.Process(
                    target=_shard_worker_main,
                    args=(index, classifier, engine_kwargs, ring, self._outbox),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                self.shards.append(_Shard(index, ring, worker))
            for shard in self.shards:
                shard.worker.start()
        except BaseException:
            for shard in self.shards:
                shard.inbox.unlink()
            raise

    @property
    def segment_names(self) -> List[str]:
        """Shared-memory segment names (exposed for the leak tests)."""
        return [shard.inbox.name for shard in self.shards]

    def _encode(self, sequence: int, observation: Observation, source: str) -> bytes:
        if isinstance(observation, FeedbackFrame):
            return pack_frame_record(
                sequence, source, observation.timestamp_s, observation.payload
            )
        # Codewords ride the ring as compact int16 payloads; the worker-side
        # engine reconstructs on its own arena.
        return pack_codeword_record(sequence, source, 0.0, observation)

    def _control(self, kind: int, barrier: int, swap: Optional[ModelSwap]) -> bytes:
        if swap is not None:
            return pack_model_swap_record(barrier, swap.version, swap.blob)
        return pack_control_record(kind, barrier)

    def _release(self) -> None:
        """Join the children (terminating stragglers) and unlink every ring."""
        super()._release()
        for shard in self.shards:
            if shard.worker.is_alive():  # pragma: no cover - safety
                shard.worker.terminate()
                shard.worker.join(timeout=5.0)
            shard.inbox.unlink()
        self._outbox.close()
        self._outbox.join_thread()


def make_backend(
    backend: str,
    classifier: "DeepCsiClassifier",
    num_workers: int,
    queue_depth: int,
    engine_kwargs: dict,
) -> Union["ThreadBackend", "ProcessBackend"]:
    """Instantiate the named execution backend."""
    if backend == "threads":
        return ThreadBackend(classifier, num_workers, queue_depth, engine_kwargs)
    if backend == "processes":
        return ProcessBackend(classifier, num_workers, queue_depth, engine_kwargs)
    raise ValueError(
        f"unknown execution backend {backend!r}; expected one of {BACKEND_NAMES}"
    )


__all__ = [
    "BACKEND_NAMES",
    "ProcessBackend",
    "ThreadBackend",
    "WorkerFailure",
    "make_backend",
]
