"""Execution backends of the sharded streaming service.

:class:`~repro.core.service.StreamingService` owns the public API (routing,
service-wide sequence stamping, aggregated stats) and delegates *where the
shard engines run* to an :class:`ExecutionBackend`:

* :class:`ThreadBackend` (``backend="threads"``) - one worker **thread** per
  shard, each with a bounded ``queue.Queue``.  Cheap to start and shares the
  classifier clones in one address space, but the Python shards only overlap
  during BLAS calls: on a single core, and for the non-GEMM parts of the hot
  path everywhere, the GIL serialises them.
* :class:`ProcessBackend` (``backend="processes"``) - one worker **process**
  per shard.  Each child owns a private
  :class:`~repro.core.engine.InferenceEngine` whose classifier weights are
  cloned exactly once at startup (copy-on-write under the ``fork`` start
  method, one pickled copy under ``spawn``).  The classifier's compute
  backend (:mod:`repro.nn.compute`) rides along in that startup payload,
  while its scratch arenas are dropped on pickling and rebuilt lazily in
  the child.  Afterwards the hot path moves
  frames through a :class:`~repro.core.transport.ShmRing` shared-memory ring
  buffer - raw frame or codeword bytes plus a compact header, never a
  pickled NumPy object per frame.  Compact per-frame *results* (module id,
  confidence, source, sequence) return over a ``multiprocessing`` queue,
  batched per micro-batch, together with the worker engine's consistent
  :class:`~repro.core.engine.EngineStats` snapshot.

Both backends provide the same invariants the service documents:

* **routing stability** - the backend is handed a shard index computed from
  the stable source hash; one source never spans two shards;
* **verdict parity** - a shard processes its sub-stream in submission order
  with the same micro-batching as a standalone engine, so per-frame results
  and windowed verdicts are bitwise identical to a single engine fed the
  routed sub-stream.  The process backend replays each shard's result
  stream into a parent-side :class:`~repro.core.engine.SourceWindows`
  replica, which answers :meth:`verdict` without a cross-process round trip;
* **bounded-queue backpressure** - ``queue_depth`` bounds each shard's
  ingestion (queue slots for threads, shared-memory ring slots for
  processes); a full shard blocks the submitter and the stall is counted in
  ``queue_full_waits``;
* **failure visibility** - a worker that raises (or a child process that
  dies) surfaces as :class:`~repro.core.service.ServiceError` on the next
  ``submit``/``flush``/``collect`` instead of a hang.
"""

from __future__ import annotations

import copy
import multiprocessing
import queue
import threading
from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple, Union

from repro.core.engine import (
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
# Thread backend
# --------------------------------------------------------------------------- #
class _FlushRequest:
    """Control token: flush the shard engine, then signal ``done``."""

    def __init__(self, stop: bool = False) -> None:
        self.done = threading.Event()
        self.stop = stop


class _SwapRequest:
    """Control token: install a model version at the shard's batch boundary."""

    def __init__(self, version: ModelVersion) -> None:
        self.done = threading.Event()
        self.version = version


class _ThreadShard:
    """One worker thread: a private engine, its queue and its bookkeeping."""

    def __init__(self, index: int, engine: InferenceEngine, depth: int) -> None:
        self.index = index
        self.engine = engine
        self.queue: "queue.Queue" = queue.Queue(maxsize=depth)
        self.lock = threading.Lock()
        #: Global sequence numbers of the observations handed to the engine,
        #: in order; popped as the engine emits their results.
        self.sequences: Deque[int] = deque()
        self.thread: Optional[threading.Thread] = None


class ThreadBackend:
    """Shards as daemon threads over bounded queues (the PR-2 design)."""

    name = "threads"

    def __init__(
        self,
        classifier: "DeepCsiClassifier",
        num_workers: int,
        queue_depth: int,
        engine_kwargs: dict,
    ) -> None:
        self._completed: Deque[EngineResult] = deque()
        self._failure: Optional[BaseException] = None
        self._queue_full_waits = 0  # guarded-by: _counter_lock
        self._counter_lock = threading.Lock()
        self.shards: List[_ThreadShard] = []
        for index in range(num_workers):
            engine = InferenceEngine(copy.deepcopy(classifier), **engine_kwargs)
            shard = _ThreadShard(index, engine, queue_depth)
            shard.thread = threading.Thread(
                target=self._worker_loop,
                args=(shard,),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            self.shards.append(shard)
        for shard in self.shards:
            shard.thread.start()

    # -- submission ---------------------------------------------------- #
    def submit(
        self,
        shard_index: int,
        sequence: int,
        observation: Observation,
        source: str,
    ) -> None:
        shard = self.shards[shard_index]
        item = (sequence, observation, source)
        try:
            shard.queue.put_nowait(item)
        except queue.Full:
            with self._counter_lock:
                self._queue_full_waits += 1
            shard.queue.put(item)

    def flush(self) -> None:
        requests = []
        for shard in self.shards:
            request = _FlushRequest()
            shard.queue.put(request)
            requests.append(request)
        for request in requests:
            request.done.wait()

    def swap(self, version: ModelVersion) -> None:
        """Install a model version into every shard at a batch boundary.

        Each shard flushes its buffered frames under the old weights first
        (inside :meth:`InferenceEngine.install_model`), so no frame is
        dropped and none is split across versions.  The swap token rides the
        same queue as the frames, which orders it against in-flight
        submissions exactly like the process backend's ring record.
        """
        requests = []
        for shard in self.shards:
            request = _SwapRequest(version)
            shard.queue.put(request)
            requests.append(request)
        for request in requests:
            request.done.wait()
        self.raise_if_failed()

    def poll(self) -> List[EngineResult]:
        results: List[EngineResult] = []
        while True:
            try:
                results.append(self._completed.popleft())
            except IndexError:
                return results

    # -- introspection -------------------------------------------------- #
    def verdict(self, shard_index: int, source: str) -> MajorityVerdict:
        shard = self.shards[shard_index]
        with shard.lock:
            return shard.engine.verdict(source)

    def sources(self) -> List[str]:
        names: List[str] = []
        for shard in self.shards:
            with shard.lock:
                names.extend(shard.engine.sources)
        return sorted(names)

    def worker_stats(self) -> Tuple[EngineStats, ...]:
        # engine.stats is already a consistent snapshot (single writer,
        # published under the engine's stats lock).
        return tuple(shard.engine.stats for shard in self.shards)

    def drift_snapshot(self) -> Tuple[DriftStatus, ...]:
        """Per-source drift state across all shards, sorted by source.

        Routing pins every source to one shard, so the per-shard snapshots
        are disjoint and merging is a plain sorted concatenation.
        """
        merged: List[DriftStatus] = []
        for shard in self.shards:
            merged.extend(shard.engine.drift_snapshot())
        return tuple(sorted(merged, key=lambda status: status.source))

    @property
    def queue_full_waits(self) -> int:
        with self._counter_lock:
            waits = self._queue_full_waits
        return waits

    def raise_if_failed(self) -> None:
        if self._failure is not None:
            raise WorkerFailure(str(self._failure)) from self._failure

    # -- lifecycle ------------------------------------------------------ #
    def close(self) -> None:
        requests = []
        for shard in self.shards:
            request = _FlushRequest(stop=True)
            shard.queue.put(request)
            requests.append(request)
        for request in requests:
            request.done.wait()
        for shard in self.shards:
            shard.thread.join()

    # -- worker side ----------------------------------------------------- #
    def _worker_loop(self, shard: _ThreadShard) -> None:
        while True:
            # Drain greedily: after the blocking get, grab everything already
            # queued so one thread wake-up handles a whole run of items (far
            # fewer queue handshakes and context switches per frame).
            items = [shard.queue.get()]
            while True:
                try:
                    items.append(shard.queue.get_nowait())
                except queue.Empty:
                    break
            for item in items:
                if self._handle(shard, item):
                    return

    def _handle(self, shard: _ThreadShard, item: object) -> bool:
        """Process one queued item; returns True when the worker must stop."""
        if isinstance(item, _FlushRequest):
            try:
                if self._failure is None:
                    with shard.lock:
                        results = shard.engine.flush()
                    self._emit(shard, results)
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                self._failure = exc
                shard.sequences.clear()
            finally:
                item.done.set()
            return item.stop
        if isinstance(item, _SwapRequest):
            try:
                if self._failure is None:
                    with shard.lock:
                        results = shard.engine.install_model(item.version)
                    self._emit(shard, results)
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                self._failure = exc
                shard.sequences.clear()
            finally:
                item.done.set()
            return False
        if self._failure is not None:
            # A shard already failed: keep draining so submitters never
            # deadlock on a full queue, but stop doing work.
            return False
        sequence, observation, source = item
        try:
            shard.sequences.append(sequence)
            with shard.lock:
                results = shard.engine.submit(observation, source=source)
            self._emit(shard, results)
        except BaseException as exc:  # noqa: BLE001 - reported upstream
            self._failure = exc
            shard.sequences.clear()
        return False

    def _emit(self, shard: _ThreadShard, results: List[EngineResult]) -> None:
        """Re-stamp engine-local sequences with the service-wide ones."""
        for result in results:
            self._completed.append(
                replace(result, sequence=shard.sequences.popleft())
            )


# --------------------------------------------------------------------------- #
# Process backend
# --------------------------------------------------------------------------- #
def _shard_worker_main(
    shard_index: int,
    classifier: "DeepCsiClassifier",
    engine_kwargs: dict,
    ring: ShmRing,
    results: "multiprocessing.queues.Queue",
) -> None:
    """Entry point of one shard worker process.

    Builds the private engine (the one-time weight clone), then loops over
    the shared-memory ring: observation records feed the engine through the
    same submission path as the thread backend, control records flush/stop.
    Results are re-stamped with the service-wide sequence numbers and shipped
    back per micro-batch, together with the engine's consistent
    :attr:`~repro.core.engine.InferenceEngine.stats` snapshot.
    """
    engine = InferenceEngine(classifier, **engine_kwargs)
    sequences: Deque[int] = deque()
    failed = False

    def ship(batch: List[EngineResult]) -> None:
        if not batch:
            return
        compact = [
            (
                sequences.popleft(),
                result.predicted_module_id,
                result.confidence,
                result.source,
                result.timestamp_s,
                result.score,
                result.accepted,
                result.model_version,
            )
            for result in batch
        ]
        results.put(("results", shard_index, compact, engine.stats))

    while True:
        record = ring.get()
        if record.kind == RECORD_MODEL_SWAP:
            # A swap is an epoch barrier exactly like a flush: everything
            # buffered is classified under the old weights (and shipped),
            # then the new version is installed.  The ack goes back even on
            # a failed shard so the parent's swap barrier never hangs.
            swap = record.swap
            assert swap is not None
            if not failed:
                try:
                    version = ModelVersion.from_bytes(
                        swap.blob, expected_version=swap.version
                    )
                    ship(engine.install_model(version))
                except BaseException as exc:  # noqa: BLE001 - reported upstream
                    failed = True
                    sequences.clear()
                    results.put(
                        ("error", shard_index, f"{type(exc).__name__}: {exc}")
                    )
            results.put(("swapped", shard_index, swap.version, engine.stats))
            continue
        if record.kind in (RECORD_FLUSH, RECORD_STOP):
            if not failed:
                try:
                    ship(engine.flush())
                except BaseException as exc:  # noqa: BLE001 - reported upstream
                    failed = True
                    sequences.clear()
                    results.put(
                        ("error", shard_index, f"{type(exc).__name__}: {exc}")
                    )
            if record.kind == RECORD_STOP:
                results.put(("stopped", shard_index, engine.stats))
                ring.close()
                return
            results.put(("flushed", shard_index, record.sequence, engine.stats))
            continue
        if failed:
            # Keep consuming so the producer never deadlocks on a full ring.
            continue
        try:
            sequences.append(record.sequence)
            observation = ProcessBackend._decode(record)
            ship(engine.submit(observation, source=record.source))
        except BaseException as exc:  # noqa: BLE001 - reported upstream
            failed = True
            sequences.clear()
            results.put(("error", shard_index, f"{type(exc).__name__}: {exc}"))


class _ProcessShard:
    """Parent-side handle of one worker process."""

    def __init__(
        self,
        index: int,
        ring: ShmRing,
        windows: SourceWindows,
        drift: Optional[DriftMonitor] = None,
    ) -> None:
        self.index = index
        self.ring = ring
        self.windows = windows
        #: Parent-side drift replica, fed from the replayed result stream in
        #: arrival order -- identical trajectories to the worker's monitor.
        self.drift = drift
        self.process: Optional[multiprocessing.Process] = None
        self.stats = EngineStats()
        self.lock = threading.Lock()  # serialises producers on this ring
        self.stopped = False


class ProcessBackend:
    """Shards as child processes fed through shared-memory ring buffers."""

    name = "processes"

    #: Default ring slot size.  A paper-geometry frame or codeword record
    #: (~3 KB) takes one slot; a model-swap blob spans consecutive slots,
    #: and since a record may use at most ``queue_depth`` of them, the slot
    #: size times the depth bounds the largest model a swap can ship.
    DEFAULT_SLOT_BYTES = 32768

    def __init__(
        self,
        classifier: "DeepCsiClassifier",
        num_workers: int,
        queue_depth: int,
        engine_kwargs: dict,
        slot_bytes: Optional[int] = None,
    ) -> None:
        # fork clones the trained classifier into each child copy-on-write
        # (the "weights cloned once at startup" contract); spawn is the
        # portable fallback and pickles it once per worker instead.
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._results_queue = self._context.Queue()
        self._completed: Deque[EngineResult] = deque()
        self._failure: Optional[str] = None
        self._queue_full_waits = 0  # guarded-by: _counter_lock
        self._flush_acks: Dict[int, set] = {}
        self._swap_acks: Dict[int, set] = {}
        self._stopped_shards: set = set()
        self._flush_id = 0
        self._drain_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        self._closed = False
        vote_window = engine_kwargs.get("vote_window", 16)
        max_sources = engine_kwargs.get("max_sources", 1024)
        reject_streak = engine_kwargs.get("reject_streak", 3)
        drift_config = engine_kwargs.get("drift")
        slot_bytes = self.DEFAULT_SLOT_BYTES if slot_bytes is None else slot_bytes
        self.shards: List[_ProcessShard] = []
        try:
            for index in range(num_workers):
                ring = ShmRing(self._context, queue_depth, slot_bytes)
                shard = _ProcessShard(
                    index,
                    ring,
                    SourceWindows(vote_window, max_sources, reject_streak),
                    drift=(
                        DriftMonitor(drift_config)
                        if drift_config is not None
                        else None
                    ),
                )
                # Until the worker ships its first snapshot.
                shard.stats = EngineStats(
                    compute=classifier.compute_name,
                    precision=engine_kwargs.get("precision", "exact"),
                )
                shard.process = self._context.Process(
                    target=_shard_worker_main,
                    args=(
                        index,
                        classifier,
                        engine_kwargs,
                        ring,
                        self._results_queue,
                    ),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                self.shards.append(shard)
            for shard in self.shards:
                shard.process.start()
        except BaseException:
            for shard in self.shards:
                shard.ring.unlink()
            raise

    @property
    def segment_names(self) -> List[str]:
        """Shared-memory segment names (exposed for the leak tests)."""
        return [shard.ring.name for shard in self.shards]

    # -- submission ---------------------------------------------------- #
    def submit(
        self,
        shard_index: int,
        sequence: int,
        observation: Observation,
        source: str,
    ) -> None:
        record = self._encode(sequence, observation, source)
        shard = self.shards[shard_index]
        with shard.lock:
            shard.ring.put(
                record,
                on_wait=self._count_backpressure,
                liveness=lambda: self._check_worker_alive(shard),
            )
        # Opportunistically drain finished results so the return queue never
        # accumulates a whole run's worth of messages.
        self._drain(block=False)

    def _encode(self, sequence: int, observation: Observation, source: str) -> bytes:
        if isinstance(observation, FeedbackFrame):
            return pack_frame_record(
                sequence, source, observation.timestamp_s, observation.payload
            )
        # Codewords ride the ring as compact int16 payloads; the worker-side
        # engine reconstructs on its own arena.
        return pack_codeword_record(sequence, source, 0.0, observation)

    @staticmethod
    def _decode(record: Record) -> Observation:
        """Worker side: rebuild an observation :meth:`_encode` packed.

        The engine reads the same payload, source and timestamp from it as
        from the submitted original, so both backends classify identically.
        """
        if record.kind == RECORD_FRAME:
            return FeedbackFrame(record.source, "", record.timestamp_s, record.payload)
        assert record.kind == RECORD_CODEWORDS and record.quantized is not None
        return record.quantized

    def _count_backpressure(self) -> None:
        with self._counter_lock:
            self._queue_full_waits += 1

    def _check_worker_alive(self, shard: _ProcessShard) -> None:
        process = shard.process
        if process is not None and not process.is_alive():
            self._failure = (
                f"worker process {shard.index} died "
                f"(exit code {process.exitcode})"
            )
            raise WorkerFailure(self._failure)

    def _check_all_alive(self) -> None:
        for shard in self.shards:
            if not shard.stopped:
                self._check_worker_alive(shard)

    def flush(self) -> None:
        with self._lifecycle_lock:
            self._flush_id += 1
            flush_id = self._flush_id
            self._flush_acks[flush_id] = set()
            for shard in self.shards:
                with shard.lock:
                    shard.ring.put(
                        pack_control_record(RECORD_FLUSH, flush_id),
                        on_wait=self._count_backpressure,
                        liveness=lambda shard=shard: self._check_worker_alive(
                            shard
                        ),
                    )
            while len(self._flush_acks[flush_id]) < len(self.shards):
                if not self._drain(block=True):
                    self._check_all_alive()
            del self._flush_acks[flush_id]

    def swap(self, version: ModelVersion) -> None:
        """Install a model version into every worker process.

        The version is serialised once and enqueued on every shard's ring as
        a :data:`RECORD_MODEL_SWAP` record; FIFO ordering against in-flight
        frame records gives each shard its epoch barrier for free.  Blocks
        until every live shard acks the install (a dead worker raises
        instead of hanging the barrier).
        """
        record = pack_model_swap_record(
            0, version.version, version.to_bytes(), version.open_set_threshold
        )
        with self._lifecycle_lock:
            acks = self._swap_acks.setdefault(version.version, set())
            try:
                for shard in self.shards:
                    with shard.lock:
                        shard.ring.put(
                            record,
                            on_wait=self._count_backpressure,
                            liveness=lambda shard=shard: self._check_worker_alive(
                                shard
                            ),
                        )
                while len(acks) < len(self.shards):
                    if not self._drain(block=True):
                        self._check_all_alive()
            finally:
                self._swap_acks.pop(version.version, None)
        self.raise_if_failed()

    def poll(self) -> List[EngineResult]:
        self._drain(block=False)
        results: List[EngineResult] = []
        while True:
            try:
                results.append(self._completed.popleft())
            except IndexError:
                return results

    # -- result return path --------------------------------------------- #
    def _drain(self, block: bool) -> bool:
        """Process queued worker messages; returns True if any were seen.

        Only one thread drains at a time; opportunistic (non-blocking)
        drains simply skip when another thread already holds the lock.
        """
        if block:
            self._drain_lock.acquire()
        elif not self._drain_lock.acquire(blocking=False):
            return False
        seen = False
        try:
            while True:
                try:
                    if block and not seen:
                        message = self._results_queue.get(timeout=0.1)
                    else:
                        message = self._results_queue.get_nowait()
                except queue.Empty:
                    return seen
                seen = True
                self._dispatch(message)
        finally:
            self._drain_lock.release()

    def _dispatch(self, message: tuple) -> None:
        kind, shard_index = message[0], message[1]
        shard = self.shards[shard_index]
        if kind == "results":
            _, _, compact, shard.stats = message
            for (
                sequence,
                module_id,
                confidence,
                source,
                timestamp_s,
                score,
                accepted,
                model_version,
            ) in compact:
                result = EngineResult(
                    predicted_module_id=module_id,
                    confidence=confidence,
                    source=source,
                    sequence=sequence,
                    timestamp_s=timestamp_s,
                    score=score,
                    accepted=accepted,
                    model_version=model_version,
                )
                self._completed.append(result)
                # Replay into the parent-side window replica so verdicts are
                # answered locally with the exact shard-engine semantics.
                shard.windows.append(result)
                if shard.drift is not None:
                    shard.drift.observe(source, score)
        elif kind == "flushed":
            _, _, flush_id, shard.stats = message
            acks = self._flush_acks.get(flush_id)
            if acks is not None:
                acks.add(shard_index)
        elif kind == "swapped":
            _, _, swap_version, shard.stats = message
            acks = self._swap_acks.get(swap_version)
            if acks is not None:
                acks.add(shard_index)
        elif kind == "stopped":
            _, _, shard.stats = message
            shard.stopped = True
            self._stopped_shards.add(shard_index)
        elif kind == "error":
            _, _, text = message
            if self._failure is None:
                self._failure = f"worker process {shard_index} failed: {text}"

    # -- introspection -------------------------------------------------- #
    def verdict(self, shard_index: int, source: str) -> MajorityVerdict:
        self._drain(block=False)
        return self.shards[shard_index].windows.verdict(source)

    def sources(self) -> List[str]:
        self._drain(block=False)
        names: List[str] = []
        for shard in self.shards:
            names.extend(shard.windows.sources)
        return sorted(names)

    def worker_stats(self) -> Tuple[EngineStats, ...]:
        self._drain(block=False)
        return tuple(replace(shard.stats) for shard in self.shards)

    def drift_snapshot(self) -> Tuple[DriftStatus, ...]:
        """Per-source drift state from the parent-side replicas."""
        self._drain(block=False)
        merged: List[DriftStatus] = []
        for shard in self.shards:
            if shard.drift is not None:
                merged.extend(shard.drift.snapshot())
        return tuple(sorted(merged, key=lambda status: status.source))

    @property
    def queue_full_waits(self) -> int:
        with self._counter_lock:
            waits = self._queue_full_waits
        return waits

    def raise_if_failed(self) -> None:
        self._drain(block=False)
        if self._failure is not None:
            raise WorkerFailure(self._failure)

    # -- lifecycle ------------------------------------------------------ #
    def close(self) -> None:
        """Stop the workers, join them and release every shm segment.

        Best effort: a crashed worker must not leave the parent hanging or
        the shared-memory segments linked, so every step degrades to
        terminate + unlink instead of raising.
        """
        if self._closed:
            return
        self._closed = True
        try:
            for shard in self.shards:
                try:
                    with shard.lock:
                        shard.ring.put(
                            pack_control_record(RECORD_STOP),
                            liveness=lambda shard=shard: self._check_worker_alive(
                                shard
                            ),
                        )
                except Exception:  # noqa: BLE001 - dead worker; still clean up
                    continue
            deadline = 100  # x 0.1s drain timeout = 10s overall bound
            while len(self._stopped_shards) < len(self.shards) and deadline > 0:
                if not self._drain(block=True):
                    deadline -= 1
                    if any(
                        not shard.stopped and not shard.process.is_alive()
                        for shard in self.shards
                    ):
                        break
        finally:
            for shard in self.shards:
                if shard.process is not None:
                    shard.process.join(timeout=5.0)
                    if shard.process.is_alive():  # pragma: no cover - safety
                        shard.process.terminate()
                        shard.process.join(timeout=5.0)
            for shard in self.shards:
                shard.ring.unlink()
            self._results_queue.close()
            self._results_queue.join_thread()


def make_backend(
    backend: str,
    classifier: "DeepCsiClassifier",
    num_workers: int,
    queue_depth: int,
    engine_kwargs: dict,
    slot_bytes: Optional[int] = None,
) -> Union["ThreadBackend", "ProcessBackend"]:
    """Instantiate the named execution backend."""
    if backend == "threads":
        return ThreadBackend(classifier, num_workers, queue_depth, engine_kwargs)
    if backend == "processes":
        return ProcessBackend(
            classifier, num_workers, queue_depth, engine_kwargs, slot_bytes
        )
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
