"""Sharded multi-worker streaming service on top of the inference engine.

One :class:`~repro.core.engine.InferenceEngine` is a single-threaded hot
path.  The deployment scenario of the paper (an always-on monitor-mode
observer in a dense network) has to fingerprint the beamforming feedback of
*many* concurrent beamformees, so :class:`StreamingService` scales the engine
out:

* the service owns a pool of ``num_workers`` shards, each with its own
  private :class:`~repro.core.engine.InferenceEngine` (and its own copy of
  the classifier, so forward-pass activation caches are never shared between
  workers);
* every observation is routed to a shard by a *stable hash* of its source
  address (:func:`shard_for_source`).  One source never spans two shards,
  which preserves the per-source ring-buffer and majority-verdict semantics
  of the single engine exactly;
* **where the shards run is pluggable** (:mod:`repro.core.backends`): every
  shard runs the same worker loop, and only its channel differs.
  ``backend="threads"`` runs it in a worker thread fed through a bounded
  in-process queue of records; ``backend="processes"`` runs it in a child
  process fed through a shared-memory ring buffer
  (:mod:`repro.core.transport`), which breaks the GIL ceiling on multi-core
  hosts;
* ingestion is asynchronous: :meth:`StreamingService.submit` enqueues the
  observation into the shard's bounded queue/ring and returns immediately.
  When a shard is full the submitter blocks (backpressure) instead of
  growing memory without bound; the number of such stalls is counted in
  :attr:`ServiceStats.queue_full_waits`;
* frame parsing, Givens reconstruction, feature extraction and the CNN
  forward all run on the workers, in micro-batches, exactly as in the
  single engine;
* :attr:`StreamingService.stats` adds up the per-shard
  :class:`~repro.core.engine.EngineStats` (the consistent snapshots the
  shard workers ship with their results and barrier acks) into one
  :class:`ServiceStats`, which is an ``EngineStats`` plus the counters only
  a service has.

Because each shard batches the traffic of *all* the sources hashed to it,
the service amortises the per-batch cost across sources: many low-rate
beamformees together still produce full micro-batches.  With thread shards
the workers additionally overlap their BLAS-heavy CNN forwards on multi-core
hardware; with process shards the whole hot path (parsing, feature
extraction, NumPy dispatch) runs in parallel.

Typical usage::

    with StreamingService(classifier, num_workers=4, backend="processes") as service:
        for frame in sniffer:
            service.submit(frame)          # returns immediately; workers batch
        service.flush()                    # barrier: classify partial batches
        for result in service.collect():   # completed EngineResults
            ...
        print(service.verdict(source))     # same semantics as the engine
        print(service.stats.wall_frames_per_second)
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from dataclasses import dataclass
from types import TracebackType
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.backends import BACKEND_NAMES, WorkerFailure, make_backend
from repro.core.classifier import DeepCsiClassifier
from repro.core.engine import (
    ANONYMOUS_SOURCE,
    EngineError,
    EngineResult,
    EngineStats,
    MajorityVerdict,
    Observation,
    check_engine_settings,
    check_observation,
    open_set_after_swap,
)
from repro.core.lifecycle import DriftConfig, DriftStatus, LifecycleError, ModelVersion
from repro.core.openset import OpenSetPolicy
from repro.core.transport import TransportError
from repro.feedback.frames import FeedbackFrame


class ServiceError(RuntimeError):
    """Raised for invalid service usage or when a worker shard failed."""


#: Worker-pool size used when the heuristic has more cores than it needs.
DEFAULT_MAX_WORKERS = 4


def resolve_num_workers(
    num_workers: Optional[int],
    backend: str = "threads",
    cpu_count: Optional[int] = None,
) -> int:
    """Pick a worker count when the caller did not force one.

    An explicit ``num_workers`` is always honoured.  ``None`` applies a
    heuristic that must never pick a configuration slower than one worker:

    * On a **single core** every backend collapses to 1 shard.  Measured on
      the scaling bench, 4 *thread* shards are slower than 1 on one core
      (~8.9k vs ~10.5k frames/s): the GIL already serialises the shards, so
      extra shards only add queue handshakes and splinter the cross-source
      micro-batches; extra *process* shards likewise just time-slice one
      core while paying the transport copies.  1 shard keeps the full
      batch-amortisation win and nothing contends.
    * On multi-core hosts the pool grows with the cores (capped at
      :data:`DEFAULT_MAX_WORKERS`): thread shards overlap their BLAS calls,
      process shards parallelise the whole hot path.

    >>> resolve_num_workers(None, "threads", cpu_count=1)
    1
    >>> resolve_num_workers(None, "processes", cpu_count=8)
    4
    >>> resolve_num_workers(2, "threads", cpu_count=1)  # explicit wins
    2
    """
    if num_workers is not None:
        return num_workers
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if cores <= 1:
        return 1
    return min(DEFAULT_MAX_WORKERS, cores)


def shard_for_source(source: str, num_shards: int) -> int:
    """Stable shard index of a source address.

    The index is ``crc32(source) % num_shards``: deterministic across runs,
    processes and platforms, so a given source address is always handled by
    the same shard (the sharding invariant the per-source ring buffers rely
    on).

    >>> shard_for_source("02:00:00:00:00:01", 4) == shard_for_source("02:00:00:00:00:01", 4)
    True
    >>> all(0 <= shard_for_source(f"02:00:00:00:00:{i:02x}", 4) < 4 for i in range(256))
    True
    """
    if num_shards < 1:
        raise ServiceError("num_shards must be >= 1")
    return zlib.crc32(source.encode("utf-8")) % num_shards


@dataclass(frozen=True)
class ServiceStats(EngineStats):
    """The stats of one :class:`StreamingService`: its shards' stats added up.

    A snapshot.  Every counter inherited from
    :class:`~repro.core.engine.EngineStats` is the sum of the latest
    per-shard snapshots the workers shipped, except ``frames_in``, which
    counts the observations :meth:`StreamingService.submit` accepted.  On
    multi-core hardware the summed ``inference_seconds`` exceeds the
    wall-clock time because shards overlap.

    Attributes
    ----------
    queue_full_waits:
        Number of times a submitter blocked on a full shard queue/ring
        (backpressure events).
    wall_seconds:
        Wall-clock seconds since the service started.
    worker_stats:
        Per-shard :class:`~repro.core.engine.EngineStats` snapshots.
    """

    queue_full_waits: int = 0
    wall_seconds: float = 0.0
    worker_stats: Tuple[EngineStats, ...] = ()

    @property
    def wall_frames_per_second(self) -> float:
        """Classified frames per wall-clock second of service uptime."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.frames_out / self.wall_seconds


class StreamingService:
    """Sharded multi-worker streaming classification service.

    Parameters
    ----------
    classifier:
        A trained (or loaded) :class:`~repro.core.classifier.DeepCsiClassifier`.
        Each shard works on a private copy, so results are bitwise identical
        to the single-engine path while the workers never share mutable
        model state.
    num_workers:
        Number of worker shards.  ``None`` (the default) applies
        :func:`resolve_num_workers`: 1 shard on a single core (where more
        shards are measurably *slower*), up to 4 on multi-core hosts.
    backend:
        ``"threads"`` (shards as worker threads, the default) or
        ``"processes"`` (shards as child processes fed through shared-memory
        ring buffers; see :mod:`repro.core.backends`).
    queue_depth:
        Bound of each shard's inbox: records in its in-process queue
        (thread backend) or slots of its shared-memory ring (process
        backend).  A full shard blocks the submitter (backpressure) instead
        of buffering without limit.
    batch_size / max_latency_frames / vote_window:
        Forwarded to every shard's :class:`~repro.core.engine.InferenceEngine`
        and checked once here, before any shard starts
        (:func:`~repro.core.engine.check_engine_settings`).  Each shard keeps
        at most :data:`~repro.core.engine.MAX_SOURCES` source windows alive.
    open_set:
        Optional :class:`~repro.core.openset.OpenSetPolicy` forwarded to
        every shard engine: frames below the threshold are rejected and
        verdicts can resolve to
        :data:`~repro.core.engine.UNKNOWN_MODULE_ID`.
    drift:
        Optional :class:`~repro.core.lifecycle.DriftConfig` enabling
        per-source drift monitoring on every shard (read through
        :meth:`drift_snapshot`).
    compute:
        Optional compute backend name (``"fp32"``) attached to the
        classifier *before* the shards copy it, so every shard inherits the
        same prepared backend (the process backend ships it to its workers
        inside the classifier startup payload).  ``None`` keeps whatever
        the classifier already uses.
    precision:
        Preprocessing precision of every shard engine: ``"exact"`` (the
        default float64/complex128 LUT path, bitwise identical to the
        legacy dequantise+reconstruct pipeline) or ``"fast"``
        (float32/complex64 tables; pairs naturally with ``compute="fp32"``).

    Notes
    -----
    The service starts its workers on construction and is also a context
    manager; leaving the ``with`` block calls :meth:`close`.

    Results become available asynchronously: :meth:`collect` pops whatever
    completed, :meth:`drain` is the synchronous convenience wrapper, and
    :meth:`flush` is the barrier that forces partial batches through.
    Completed results preserve the submission order *per source* (one source
    never spans two shards); results of different sources may interleave in
    any order.  :attr:`EngineResult.sequence` carries the service-wide
    submission index, so a caller that needs the global order can sort on it
    (:meth:`drain` already does).
    """

    def __init__(
        self,
        classifier: DeepCsiClassifier,
        num_workers: Optional[int] = None,
        queue_depth: int = 256,
        batch_size: int = 64,
        max_latency_frames: Optional[int] = None,
        vote_window: int = 16,
        open_set: Optional[OpenSetPolicy] = None,
        drift: Optional[DriftConfig] = None,
        backend: str = "threads",
        compute: Optional[str] = None,
        precision: str = "exact",
    ) -> None:
        if backend not in BACKEND_NAMES:
            raise ServiceError(
                f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
            )
        try:
            check_engine_settings(classifier, batch_size, max_latency_frames, open_set, precision)
        except EngineError as error:
            raise ServiceError(str(error)) from error
        if compute is not None:
            # Attach before the backend copies the classifier so every shard
            # inherits the dtype.
            classifier.set_compute(compute)
        self.precision = precision
        num_workers = resolve_num_workers(num_workers, backend)
        if num_workers < 1:
            raise ServiceError("num_workers must be >= 1")
        if queue_depth < 1:
            raise ServiceError("queue_depth must be >= 1")
        self.num_workers = num_workers
        self.queue_depth = queue_depth
        self.backend_name = backend
        self._closed = False
        self._frames_in = 0  # guarded-by: _submit_lock
        self._model_version = 0  # guarded-by: _swap_lock
        # The policy the shards run, which a swap's policy replaces.
        self._open_set = open_set  # guarded-by: _swap_lock
        self._submit_lock = threading.Lock()
        self._swap_lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        engine_kwargs = dict(
            batch_size=batch_size,
            max_latency_frames=max_latency_frames,
            vote_window=vote_window,
            open_set=open_set,
            drift=drift,
            precision=precision,
        )
        try:
            self._backend = make_backend(
                backend, classifier, num_workers, queue_depth, engine_kwargs
            )
        except ValueError as error:
            raise ServiceError(str(error)) from error

    @property
    def _shards(self) -> list:
        """Shard handles of the underlying backend (tests/introspection)."""
        return self._backend.shards

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    @staticmethod
    def _source_key(observation: Observation, source: Optional[str]) -> str:
        """Resolve the routing key exactly like the engine resolves sources."""
        if source is not None:
            return source
        if isinstance(observation, FeedbackFrame):
            return observation.source_address
        return ANONYMOUS_SOURCE

    def submit(self, observation: Observation, source: Optional[str] = None) -> None:
        """Enqueue one observation for asynchronous classification.

        Routes by the stable hash of the source address (frames carry their
        own, ``source`` overrides it) and returns as soon as the observation
        sits in the shard's queue/ring.  Blocks only when that shard is full
        (backpressure).  Anything but a
        :class:`~repro.feedback.frames.FeedbackFrame` or
        :class:`~repro.feedback.quantization.QuantizedAngles` raises
        :class:`ServiceError` here, before it takes a sequence number.

        Safe to call from several producer threads at once (the service-wide
        sequence stamp is taken under a lock, and sources on the same shard
        still serialise through that shard's queue).  :meth:`flush` and
        :meth:`close` are barriers over *prior* submissions only, so don't
        race them against in-flight :meth:`submit` calls.
        """
        self._check_usable()
        try:
            check_observation(observation)
        except EngineError as error:
            raise ServiceError(str(error)) from error
        key = self._source_key(observation, source)
        shard_index = shard_for_source(key, self.num_workers)
        with self._submit_lock:
            sequence = self._frames_in
            self._frames_in += 1
        try:
            self._backend.submit(shard_index, sequence, observation, key)
        except WorkerFailure as failure:
            raise ServiceError(f"a worker shard failed: {failure}") from failure

    def flush(self) -> None:
        """Barrier: classify every queued observation, partial batches included.

        Returns once every shard has processed everything submitted before
        the call; the results are then available through :meth:`collect`.
        """
        self._check_usable()
        try:
            self._backend.flush()
        except WorkerFailure as failure:
            raise ServiceError(f"a worker shard failed: {failure}") from failure
        self._check_failure()

    def collect(self) -> List[EngineResult]:
        """Pop every result completed so far (per-source submission order)."""
        self._check_failure()
        return self._backend.poll()

    # ------------------------------------------------------------------ #
    # Model lifecycle
    # ------------------------------------------------------------------ #
    def swap_model(
        self,
        replacement: Union[DeepCsiClassifier, ModelVersion],
        open_set: Optional[OpenSetPolicy] = None,
    ) -> int:
        """Install a new classifier into every running shard, zero-downtime.

        Accepts either a trained classifier (snapshotted here as the next
        :class:`~repro.core.lifecycle.ModelVersion`) or a pre-built version
        whose number must be exactly the service's current version + 1.  The
        whole classifier is swapped: weights, normalisation statistics,
        feature selection and compute backend.  The version's blob is decoded
        once here first, so a corrupt version, or one whose classifier the
        shards' open-set policy after the swap cannot score
        (:func:`~repro.core.engine.open_set_after_swap`), is refused with
        :class:`ServiceError` before any shard sees it and the service keeps
        serving the old one.

        The swap is an epoch barrier per shard, not service-wide: each shard
        flushes its buffered frames under the old classifier at its own batch
        boundary, via a :data:`~repro.core.transport.RECORD_MODEL_SWAP`
        record that its inbox orders FIFO against in-flight frames on either
        backend.  No frame is dropped,
        every frame is classified entirely by one version, and the
        ``model_version`` stamped on results/verdicts never decreases.

        ``open_set`` (an :class:`~repro.core.openset.OpenSetPolicy`) replaces
        the shards' open-set policy together with the classifier; ``None``
        keeps the current one, and closed-set shards ignore it.  A pre-built
        version carries its own policy
        (:meth:`~repro.core.lifecycle.ModelVersion.from_classifier`).
        Returns the installed version number.  Concurrent :meth:`submit`
        calls are safe; concurrent :meth:`swap_model` calls serialise.
        """
        self._check_usable()
        with self._swap_lock:
            next_version = self._model_version + 1
            if isinstance(replacement, ModelVersion):
                if replacement.version != next_version:
                    raise ServiceError(
                        f"model version must be {next_version} (current + 1), "
                        f"got {replacement.version}"
                    )
                if open_set is not None:
                    raise ServiceError(
                        "a ModelVersion carries its own open-set policy; pass "
                        "it to ModelVersion.from_classifier"
                    )
            try:
                version = (
                    replacement
                    if isinstance(replacement, ModelVersion)
                    else ModelVersion.from_classifier(replacement, next_version, open_set)
                )
                classifier, policy = version.decode()
                policy = open_set_after_swap(self._open_set, policy, classifier)
            except (LifecycleError, EngineError) as error:
                raise ServiceError(f"model swap failed: {error}") from error
            try:
                self._backend.swap(version)
            except (WorkerFailure, TransportError, LifecycleError) as error:
                raise ServiceError(f"model swap failed: {error}") from error
            self._check_failure()
            self._model_version = version.version
            self._open_set = policy
            return version.version

    def stream(
        self,
        observations: Iterable[Observation],
        source: Optional[str] = None,
    ) -> Iterator[EngineResult]:
        """Submit an iterable, yielding results as the workers complete them.

        The final partial batches are flushed when the iterable is
        exhausted, so every submitted observation yields a result.  Results
        arrive in per-shard completion order; sort on
        :attr:`EngineResult.sequence` for the global submission order.
        """
        for observation in observations:
            self.submit(observation, source=source)
            yield from self.collect()
        self.flush()
        yield from self.collect()

    def drain(
        self,
        observations: Iterable[Observation],
        source: Optional[str] = None,
    ) -> List[EngineResult]:
        """Classify a whole iterable and return results in submission order."""
        results = list(self.stream(observations, source=source))
        results.sort(key=lambda result: result.sequence)
        return results

    # ------------------------------------------------------------------ #
    # Verdicts and introspection
    # ------------------------------------------------------------------ #
    def verdict(self, source: Optional[str] = None) -> MajorityVerdict:
        """Windowed majority vote for one source (see the engine method).

        The vote runs over the single shard that owns the source, so it is
        identical to the verdict a single shared engine would produce for
        the same per-source result stream.  It is answered from a
        parent-side replica of the shard's result windows, which holds the
        results received so far.
        """
        key = ANONYMOUS_SOURCE if source is None else source
        shard_index = shard_for_source(key, self.num_workers)
        return self._backend.verdict(shard_index, key)

    @property
    def sources(self) -> List[str]:
        """Sources with at least one classified observation, across shards."""
        return self._backend.sources()

    @property
    def model_version(self) -> int:
        """Version of the last successfully installed model snapshot."""
        with self._swap_lock:
            return int(self._model_version)

    def drift_snapshot(self) -> Tuple[DriftStatus, ...]:
        """Per-source drift state across shards, sorted by source address."""
        return self._backend.drift_snapshot()

    @property
    def stats(self) -> ServiceStats:
        """The shards' stats added up (a point-in-time snapshot).

        Every shard worker ships its engine's stats with each micro-batch of
        results and with every barrier ack.  After a barrier
        (:meth:`flush`, :meth:`swap_model` or :meth:`close`) the per-shard
        counters are therefore exact; between barriers they may lag by the
        results not yet received, on either backend.  ``frames_in`` is the
        service's own count of accepted submits.
        """
        worker_stats = self._backend.worker_stats()
        with self._submit_lock:
            frames_in = self._frames_in
        total = sum(worker_stats, EngineStats())
        return ServiceStats(
            **dict(vars(total), frames_in=frames_in),
            queue_full_waits=self._backend.queue_full_waits,
            wall_seconds=time.monotonic() - self._started_monotonic,
            worker_stats=worker_stats,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush every shard, stop the workers and release their resources.

        Idempotent; after closing, :meth:`submit` and :meth:`flush` raise
        :class:`ServiceError`.  Completed results remain available through
        :meth:`collect`.  The process backend additionally joins its child
        processes and unlinks every shared-memory segment, crash or not.
        """
        if self._closed:
            return
        self._closed = True
        self._backend.close()

    def __enter__(self) -> "StreamingService":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _check_usable(self) -> None:
        if self._closed:
            raise ServiceError("the service is closed")
        self._check_failure()

    def _check_failure(self) -> None:
        try:
            self._backend.raise_if_failed()
        except WorkerFailure as failure:
            raise ServiceError(f"a worker shard failed: {failure}") from failure
