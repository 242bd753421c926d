"""Batched streaming inference engine (the observer's always-on hot path).

The deployment scenario of Fig. 1/Fig. 3 is an always-on monitor-mode
observer that authenticates *every* VHT compressed-beamforming frame it
sniffs.  Classifying frames one at a time wastes almost all of the hardware:
feature extraction, normalisation and the CNN forward are vectorised, so
running them with batch size 1 pays the full Python/numpy dispatch overhead
per frame.

:class:`InferenceEngine` turns the per-frame API into a micro-batched
streaming one:

* observations -- raw frames or their quantised angle codewords -- are
  buffered and classified in micro-batches of ``batch_size``;
* ``max_latency_frames`` bounds how many frames may sit in the buffer
  before a partial batch is forced out, trading throughput for latency;
* raw :class:`~repro.feedback.frames.FeedbackFrame` payloads are parsed to
  codewords at submit; a micro-batch's codewords are grouped by
  geometry/quantisation, and only the sub-carriers the classifier reads are
  rebuilt (:func:`repro.feedback.givens.reconstruct_accumulator_quantized`)
  and turned into features
  (:meth:`~repro.datasets.features.FeatureExtractor.transform_accumulator`);
* every result is appended to a per-source ring buffer so a windowed
  majority vote (:meth:`InferenceEngine.verdict`) is available at any time;
* an optional open-set policy (:class:`~repro.core.openset.OpenSetPolicy`)
  scores every frame's *known-ness* on the same forward pass; frames below
  the calibrated threshold are rejected and windowed verdicts can resolve
  to :data:`UNKNOWN_MODULE_ID` instead of the nearest enrolled identity;
* per-source score trajectories feed an optional
  :class:`~repro.core.lifecycle.DriftMonitor` that flags sources whose
  recent known-ness degrades below their own baseline;
* :meth:`InferenceEngine.install_model` swaps in a versioned model
  (:class:`~repro.core.lifecycle.ModelVersion`) at a batch boundary --
  buffered frames are flushed under the old classifier first, so every
  result carries the version that actually classified it and the per-source
  version stamps are monotonically non-decreasing;
* counters (:class:`EngineStats`) expose frames/sec, rejections, a score
  histogram and stage timings for the benchmarks and the CLI; they add with
  ``+``, so a sharded service reports its shards' stats summed.

This engine, bare or sharded, is the only code that turns sniffed traffic
into accept/reject decisions, and :meth:`InferenceEngine.verdict` the only
vote: the CLI's ``authenticate`` and ``serve``, the examples and the
throughput benchmarks all classify through it.  The engine itself is
single-threaded;
:class:`repro.core.service.StreamingService` scales it out to a sharded
multi-worker pool with asynchronous ingestion while preserving the
per-source semantics defined here.
"""

from __future__ import annotations

import operator
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.annotations import hot_path
from repro.arena import ArenaPool
from repro.core.classifier import DeepCsiClassifier
from repro.datasets.features import FeatureExtractor
from repro.feedback.frames import FeedbackFrame, parse_feedback_frame
from repro.feedback.givens import reconstruct_accumulator_quantized
from repro.feedback.quantization import QuantizedAngles
from repro.core.lifecycle import DriftConfig, DriftMonitor, DriftStatus, ModelVersion
from repro.core.openset import OpenSetPolicy
from repro.nn.model import LayerProfile


class EngineError(ValueError):
    """Raised for invalid engine configurations or inputs."""


#: The two observation forms the streaming path classifies: the bytes of a
#: sniffed frame, or the quantised angle codewords such a frame carries.
OBSERVATION_TYPES = (FeedbackFrame, QuantizedAngles)
Observation = Union[FeedbackFrame, QuantizedAngles]

#: Names of the engine's preprocessing precisions.
PRECISION_NAMES = ("exact", "fast")

#: Ring-buffer key used for observations without a source address.
ANONYMOUS_SOURCE = ""

#: Module id of a rejected (not-any-enrolled-transmitter) decision.
UNKNOWN_MODULE_ID = -1

#: Number of equal-width [0, 1] bins in the open-set score histogram.
SCORE_HISTOGRAM_BINS = 16

#: Consecutive most-recent rejections that turn a source's verdict UNKNOWN.
REJECT_STREAK = 3

#: Per-source result windows one engine (one service shard) keeps alive.
MAX_SOURCES = 1024


def check_observation(observation: object) -> None:
    """Raise :class:`EngineError` unless ``observation`` is an :data:`Observation`.

    A ready ``V~`` (bare or in a sample or capture) is refused: quantise it
    at the edge with ``quantize_angles(compress_v_matrix(v), config)``, as a
    beamformee does before it sends the frame.
    """
    if not isinstance(observation, OBSERVATION_TYPES):
        raise EngineError(
            "expected a FeedbackFrame or QuantizedAngles, got "
            f"{type(observation).__name__}; quantise a V~ with "
            "quantize_angles(compress_v_matrix(v), config) first"
        )


def check_open_set(
    open_set: Optional[OpenSetPolicy], classifier: DeepCsiClassifier
) -> None:
    """Raise :class:`EngineError` unless ``open_set`` can score ``classifier``.

    A ``centroid_distance`` policy measures each frame's logits against its
    centroids, so it needs one centroid column per class of the classifier.
    The softmax rules score any class count.
    """
    if open_set is None or open_set.scoring != "centroid_distance":
        return
    num_classes = classifier.config.num_classes
    shape = np.shape(open_set.centroids)
    if len(shape) != 2 or shape[1] != num_classes:
        raise EngineError(
            f"the open-set policy's centroids have shape {shape}, but the "
            f"{num_classes}-class classifier needs one column per logit"
        )


def check_engine_settings(
    classifier: DeepCsiClassifier,
    batch_size: int,
    max_latency_frames: Optional[int],
    open_set: Optional[OpenSetPolicy],
    precision: str,
) -> None:
    """Raise :class:`EngineError` unless an engine can run these settings.

    :class:`InferenceEngine` runs it on construction, and
    :class:`~repro.core.service.StreamingService` once before it starts any
    shard, so a bad setting fails where it is given, not at the first batch.
    """
    if batch_size < 1:
        raise EngineError("batch_size must be >= 1")
    if max_latency_frames is not None and max_latency_frames < 1:
        raise EngineError("max_latency_frames must be >= 1 or None")
    if precision not in PRECISION_NAMES:
        raise EngineError(
            f"unknown precision {precision!r}; expected one of {PRECISION_NAMES}"
        )
    check_open_set(open_set, classifier)


def open_set_after_swap(
    current: Optional[OpenSetPolicy],
    incoming: Optional[OpenSetPolicy],
    classifier: DeepCsiClassifier,
) -> Optional[OpenSetPolicy]:
    """The policy an engine runs after installing ``classifier``.

    An open-set engine takes the ``incoming`` version's policy when it brings
    one and keeps its ``current`` one otherwise; a closed-set engine stays
    closed-set.  Raises :class:`EngineError` when that policy cannot score
    ``classifier`` (:func:`check_open_set`).
    """
    policy = incoming if incoming is not None and current is not None else current
    check_open_set(policy, classifier)
    return policy


@dataclass(frozen=True)
class EngineResult:
    """Classification outcome for one streamed observation.

    Attributes
    ----------
    predicted_module_id:
        Module the classifier believes produced the transmission.
    confidence:
        Softmax probability of the predicted module.
    source:
        Source address the observation was attributed to
        (:data:`ANONYMOUS_SOURCE` when unknown).
    sequence:
        Position of the observation in the engine's input order.
    timestamp_s:
        Capture timestamp when the observation carried one, else 0.
    score:
        Open-set known-ness score of the frame (the winner's confidence on
        a closed-set engine).
    accepted:
        Whether the frame's score cleared the open-set threshold (always
        true on a closed-set engine).  Rejected frames keep the nearest
        enrolled module in ``predicted_module_id`` for diagnostics but do
        not vote for it.
    model_version:
        Version of the model snapshot that classified this frame (0 until
        the first :meth:`InferenceEngine.install_model`).
    """

    predicted_module_id: int
    confidence: float
    source: str = ANONYMOUS_SOURCE
    sequence: int = 0
    timestamp_s: float = 0.0
    score: float = 1.0
    accepted: bool = True
    model_version: int = 0


@dataclass(frozen=True)
class MajorityVerdict:
    """Windowed majority vote over one source's recent results.

    Attributes
    ----------
    module_id:
        The most frequent module in the window (ties broken by mean
        confidence), or :data:`UNKNOWN_MODULE_ID` when the window's
        rejections outweigh the best enrolled identity.
    confidence:
        Mean confidence of the frames voting for the winner (mean rejection
        strength, ``1 - score``, for an UNKNOWN verdict).
    num_votes:
        Number of frames voting for the winner (rejected frames for an
        UNKNOWN verdict).
    window_size:
        Number of results currently in the window.
    num_rejected:
        Number of open-set-rejected frames in the window.
    model_version:
        Highest model version among the window's results (non-decreasing
        per source because the engine flushes before installing a version).
    """

    module_id: int
    confidence: float
    num_votes: int
    window_size: int
    num_rejected: int = 0
    model_version: int = 0


#: Stage names reported in :attr:`EngineStats.stage_profile`, in order.
STAGE_NAMES = ("reconstruct", "features", "inference")


def _add_timings(
    first: Tuple[LayerProfile, ...], second: Tuple[LayerProfile, ...]
) -> Tuple[LayerProfile, ...]:
    """Position-by-position sum of two timing records (either may be empty)."""
    if not first:
        return second
    if not second:
        return first
    return tuple(
        LayerProfile(
            mine.index, mine.name, mine.calls + theirs.calls, mine.total_ns + theirs.total_ns
        )
        for mine, theirs in zip(first, second)
    )


@dataclass(frozen=True)
class EngineStats:
    """Counters of one engine, or of several engines added up.

    A frozen snapshot.  ``a + b`` adds the counters, the score histogram bin
    by bin and the timing entries position by position, so the stats of a
    sharded service are its shards' stats summed
    (``sum(worker_stats, EngineStats())``):

    >>> total = EngineStats(frames_out=3, batches=1) + EngineStats(frames_out=5, batches=1)
    >>> total.frames_out, total.mean_batch_size
    (8, 4.0)

    ``inference_seconds`` only accounts for time spent inside batch
    processing (decode + feature extraction + CNN forward), not for the time
    frames spent waiting in the buffer.  The derived rates return ``0.0``
    instead of dividing by zero before the first batch.
    """

    frames_in: int = 0
    frames_out: int = 0
    batches: int = 0
    inference_seconds: float = 0.0
    #: Frames whose open-set score fell below the threshold (0 closed-set).
    frames_rejected: int = 0
    #: Open-set scores counted in ``SCORE_HISTOGRAM_BINS`` equal [0, 1] bins
    #: (all zero on a closed-set engine).
    score_histogram: Tuple[int, ...] = (0,) * SCORE_HISTOGRAM_BINS
    #: Batch-processing timings per stage (:data:`STAGE_NAMES`), one call
    #: each per processed group: ``reconstruct`` covers staging + Givens
    #: reconstruction, ``features`` the feature extraction and ``inference``
    #: the normalisation + CNN forward.  Empty before the first batch.
    stage_profile: Tuple[LayerProfile, ...] = ()
    #: Per-layer forward timings, populated when the engine profiles.
    layer_profile: Tuple[LayerProfile, ...] = ()

    def __add__(self, other: "EngineStats") -> "EngineStats":
        if not isinstance(other, EngineStats):
            return NotImplemented
        return EngineStats(
            self.frames_in + other.frames_in,
            self.frames_out + other.frames_out,
            self.batches + other.batches,
            self.inference_seconds + other.inference_seconds,
            self.frames_rejected + other.frames_rejected,
            tuple(map(operator.add, self.score_histogram, other.score_histogram)),
            _add_timings(self.stage_profile, other.stage_profile),
            _add_timings(self.layer_profile, other.layer_profile),
        )

    @property
    def frames_per_second(self) -> float:
        """Classified frames per second of inference time."""
        if self.inference_seconds <= 0.0:
            return 0.0
        return self.frames_out / self.inference_seconds

    @property
    def mean_batch_size(self) -> float:
        """Average number of frames per processed micro-batch."""
        if self.batches == 0:
            return 0.0
        return self.frames_out / self.batches

    @property
    def rejection_rate(self) -> float:
        """Fraction of classified frames the open-set policy rejected."""
        if self.frames_out == 0:
            return 0.0
        return self.frames_rejected / self.frames_out


class SourceWindows:
    """Bounded per-source ring buffers feeding the windowed majority vote.

    The book keeps one ``deque(maxlen=vote_window)`` per source and at most
    ``max_sources`` of them alive, evicting the least-recently-updated
    source beyond that.  It is factored out of the engine so the streaming
    service's *process* backend can replay the per-shard result streams into
    an identical book on the parent side: verdicts answered from the replica
    are exactly the verdicts the worker's engine would produce, without a
    cross-process round trip per :meth:`verdict` call.
    """

    def __init__(self, vote_window: int, max_sources: int) -> None:
        if vote_window < 1:
            raise EngineError("vote_window must be >= 1")
        if max_sources < 1:
            raise EngineError("max_sources must be >= 1")
        self.vote_window = vote_window
        self.max_sources = max_sources
        self._windows: Dict[str, Deque[EngineResult]] = {}

    def append(self, result: EngineResult) -> None:
        """Record one classified result in its source's window."""
        window = self._windows.pop(result.source, None)
        if window is None:
            window = deque(maxlen=self.vote_window)
            while len(self._windows) >= self.max_sources:
                # Evict the least-recently-updated source (dicts keep
                # insertion order; updated windows are re-inserted last).
                self._windows.pop(next(iter(self._windows)))
        # Re-insert so this source becomes the most recently updated.
        self._windows[result.source] = window
        window.append(result)

    def verdict(self, source: Optional[str] = None) -> MajorityVerdict:
        """Majority vote over the ring buffer of one source.

        Only *accepted* results vote: an enrolled identity wins when it is
        the most frequent accepted module (ties broken by mean confidence).
        The verdict is :data:`UNKNOWN_MODULE_ID` when

        * no accepted result is in the window, or
        * rejections match/outnumber the winner's votes, or
        * the :data:`REJECT_STREAK` most recent results (at most the whole
          window) were all rejected.

        The streak rule is what keeps an always-on verdict current: a source
        that was enrolled-looking for most of the window but whose *latest*
        frames are all rejected (an address takeover, a departed device)
        must not be outvoted back into the stale identity by old entries.
        """
        key = ANONYMOUS_SOURCE if source is None else source
        window = self._windows.get(key)
        if not window:
            raise EngineError(f"no results recorded for source {key!r} yet")
        votes: Dict[int, List[float]] = {}
        rejected_scores: List[float] = []
        trailing_rejected = 0
        trailing_live = True
        model_version = 0
        for result in reversed(window):
            if result.model_version > model_version:
                model_version = result.model_version
            if result.accepted:
                trailing_live = False
                votes.setdefault(result.predicted_module_id, []).append(
                    result.confidence
                )
            else:
                rejected_scores.append(result.score)
                if trailing_live:
                    trailing_rejected += 1
        num_rejected = len(rejected_scores)
        winner: Optional[int] = None
        if votes:
            winner = max(
                votes, key=lambda module: (len(votes[module]), np.mean(votes[module]))
            )
        streak = min(REJECT_STREAK, self.vote_window)
        if (
            winner is None
            or num_rejected >= len(votes[winner])
            or trailing_rejected >= streak
        ):
            rejection_strength = float(
                np.mean([1.0 - score for score in rejected_scores])
                if rejected_scores
                else 0.0
            )
            return MajorityVerdict(
                module_id=UNKNOWN_MODULE_ID,
                confidence=rejection_strength,
                num_votes=num_rejected,
                window_size=len(window),
                num_rejected=num_rejected,
                model_version=model_version,
            )
        return MajorityVerdict(
            module_id=winner,
            confidence=float(np.mean(votes[winner])),
            num_votes=len(votes[winner]),
            window_size=len(window),
            num_rejected=num_rejected,
            model_version=model_version,
        )

    @property
    def sources(self) -> List[str]:
        """Sources with at least one recorded result."""
        return sorted(self._windows)

    def clear(self) -> None:
        self._windows.clear()


@dataclass
class _PendingObservation:
    """One buffered observation, normalised for batch processing."""

    sequence: int
    source: str
    timestamp_s: float
    quantized: QuantizedAngles


class InferenceEngine:
    """Micro-batched streaming classification of beamforming feedback.

    Parameters
    ----------
    classifier:
        A trained (or loaded) :class:`~repro.core.classifier.DeepCsiClassifier`.
    batch_size:
        Target micro-batch size; a full buffer is classified immediately.
    max_latency_frames:
        Maximum number of frames allowed to sit in the buffer before a
        partial batch is forced out (``None`` means only :meth:`flush` or a
        full batch triggers processing).  Effectively caps the per-frame
        queueing delay of a live stream at ``max_latency_frames`` arrivals.
    vote_window:
        Length of the per-source ring buffers used by :meth:`verdict`.  An
        always-on observer sees an unbounded set of source addresses
        (spoofed MACs included), so at most :data:`MAX_SOURCES` windows stay
        alive; beyond that the least-recently-seen source's window is
        evicted.
    open_set:
        Optional :class:`~repro.core.openset.OpenSetPolicy`.  When set, every
        frame's known-ness is scored on the classification forward pass;
        frames below the threshold are rejected and verdicts can resolve to
        :data:`UNKNOWN_MODULE_ID`.  A policy that cannot score the
        classifier raises :class:`EngineError` (see :func:`check_open_set`).
    drift:
        Optional :class:`~repro.core.lifecycle.DriftConfig`; when set the
        engine feeds every frame's score into a per-source
        :class:`~repro.core.lifecycle.DriftMonitor`
        (see :meth:`drift_snapshot`).
    compute:
        Optional compute backend name (``"fp32"``) routed to
        :meth:`DeepCsiClassifier.set_compute`.  ``None`` keeps whatever the
        classifier already uses.
    precision:
        Preprocessing precision of the codeword-native path every
        observation takes:

        * ``"exact"`` (default) gathers the float64/complex128 trig LUTs --
          bit-identical features and verdicts to the historical
          dequantize+reconstruct path;
        * ``"fast"`` gathers the complex64/float32 LUTs, halving the
          preprocessing memory traffic; pairs naturally with the ``fp32``
          compute backend.
    profile:
        When true, per-layer forward timings are accumulated and surfaced
        through :attr:`EngineStats.layer_profile`.  The coarser per-stage
        preprocessing timings (:attr:`EngineStats.stage_profile`) are always
        accumulated.

    Example
    -------
    ::

        engine = InferenceEngine(classifier, batch_size=64)
        for frame in sniffer:                    # FeedbackFrame or QuantizedAngles
            for result in engine.submit(frame):  # [] until a batch is due
                handle(result)
        engine.flush()                           # classify the partial batch
        verdict = engine.verdict(source)         # windowed majority vote
        print(engine.stats.frames_per_second)
    """

    def __init__(
        self,
        classifier: DeepCsiClassifier,
        batch_size: int = 64,
        max_latency_frames: Optional[int] = None,
        vote_window: int = 16,
        open_set: Optional[OpenSetPolicy] = None,
        drift: Optional[DriftConfig] = None,
        compute: Optional[str] = None,
        precision: str = "exact",
        profile: bool = False,
    ) -> None:
        check_engine_settings(classifier, batch_size, max_latency_frames, open_set, precision)
        self.classifier = classifier
        self.batch_size = batch_size
        self.max_latency_frames = max_latency_frames
        self.vote_window = vote_window
        self.precision = precision
        self._open_set = open_set
        self._drift = DriftMonitor(drift) if drift is not None else None
        if compute is not None:
            classifier.set_compute(compute)
        self._profile = bool(profile)
        if self._profile and classifier.model is not None:
            classifier.model.enable_profiling()
        self._model_version = 0
        self._frames_in = 0  # guarded-by: _stats_lock
        # The processed batches' counters, summed.  guarded-by: _stats_lock
        self._processed = EngineStats()
        self._stats_lock = threading.Lock()
        self._pending: List[_PendingObservation] = []
        self._windows = SourceWindows(vote_window, MAX_SOURCES)
        self._sequence = 0
        # Arena backing the codeword-native preprocessing path (codeword
        # staging, Givens accumulator + scratch, feature gathers/output).
        self._arena = ArenaPool()

    @property
    def stats(self) -> EngineStats:
        """A consistent point-in-time snapshot of the engine's counters.

        All counters of one processed batch are published together under
        one lock, so a reader in another thread (a monitoring loop, or the
        shard worker that ships the snapshot to the service) never observes
        a half-updated batch.
        """
        layer_profile: Tuple[LayerProfile, ...] = ()
        if self._profile and self.classifier.model is not None:
            layer_profile = self.classifier.model.profile()
        with self._stats_lock:
            return replace(
                self._processed, frames_in=self._frames_in, layer_profile=layer_profile
            )

    @property
    def compute(self) -> str:
        """Name of the classifier's active compute backend."""
        return self.classifier.compute_name

    @property
    def open_set(self) -> Optional[OpenSetPolicy]:
        """The active open-set policy (``None`` = closed-set)."""
        return self._open_set

    @property
    def model_version(self) -> int:
        """Version of the currently-installed model snapshot."""
        return self._model_version

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def install_model(self, version: ModelVersion) -> List[EngineResult]:
        """Swap in a versioned model at a batch boundary.

        The epoch barrier of the zero-downtime swap: the version's blob is
        decoded first, everything buffered is flushed through the *old*
        classifier, then the decoded classifier replaces it wholesale --
        weights, normalisation, feature selection and compute backend -- and
        the engine's version stamp is bumped.  An open-set engine also takes
        the version's open-set policy when it carries one; a closed-set engine
        ignores it.  A frame is therefore always classified entirely by one
        version, and the ``model_version`` stamped on results never decreases.
        A version whose classifier the resulting policy cannot score is
        refused with :class:`EngineError` before the flush, and the engine
        keeps its buffer and the old version.

        Returns the results of the barrier flush (classified by the old
        version) so callers can hand them to their consumers -- nothing is
        dropped by a swap.
        """
        if version.version <= self._model_version:
            raise EngineError(
                f"model version must increase: engine is at "
                f"{self._model_version}, got {version.version}"
            )
        classifier, open_set = version.decode()
        open_set = open_set_after_swap(self._open_set, open_set, classifier)
        flushed = self._process_pending()
        self.classifier = classifier
        if self._profile:
            classifier.model.enable_profiling()
        self._open_set = open_set
        self._model_version = version.version
        return flushed

    def drift_snapshot(self) -> Tuple[DriftStatus, ...]:
        """Per-source drift state (empty when no drift monitor is active)."""
        if self._drift is None:
            return ()
        return self._drift.snapshot()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        observation: Observation,
        source: Optional[str] = None,
    ) -> List[EngineResult]:
        """Buffer one observation; classify the buffer when it is due.

        Frames carry their own source address and timestamp; the address is
        used unless ``source`` overrides it.

        Returns
        -------
        list of EngineResult
            The results that became available because of this submission
            (usually empty, or one full micro-batch).

        Raises
        ------
        FrameError
            When a frame's payload does not parse.
        EngineError
            When the observation is neither a ``FeedbackFrame`` nor
            ``QuantizedAngles`` (see :func:`check_observation`).  A rejected
            observation is not buffered or counted and takes no sequence
            number.
        """
        return self._enqueue(self._normalise(observation, source))

    def _enqueue(self, entry: _PendingObservation) -> List[EngineResult]:
        self._pending.append(entry)
        with self._stats_lock:
            self._frames_in += 1
        threshold = self.batch_size
        if self.max_latency_frames is not None:
            threshold = min(threshold, self.max_latency_frames)
        if len(self._pending) >= threshold:
            return self._process_pending()
        return []

    def flush(self) -> List[EngineResult]:
        """Classify whatever is buffered, regardless of the batch size."""
        return self._process_pending()

    def stream(
        self,
        observations: Iterable[Observation],
        source: Optional[str] = None,
    ) -> Iterator[EngineResult]:
        """Drain an iterable of observations, yielding results as batches fill.

        The final partial batch is flushed automatically when the iterable
        is exhausted, so every submitted observation yields a result.
        """
        for observation in observations:
            yield from self.submit(observation, source=source)
        yield from self.flush()

    def drain(
        self,
        observations: Iterable[Observation],
        source: Optional[str] = None,
    ) -> List[EngineResult]:
        """Classify a whole iterable and return the results in input order."""
        return list(self.stream(observations, source=source))

    # ------------------------------------------------------------------ #
    # Windowed majority voting
    # ------------------------------------------------------------------ #
    def verdict(self, source: Optional[str] = None) -> MajorityVerdict:
        """Majority vote over the ring buffer of one source.

        The predicted module is the most frequent one in the window; its
        confidence is the mean confidence of the frames voting for it.
        """
        return self._windows.verdict(source)

    @property
    def sources(self) -> List[str]:
        """Sources with at least one classified observation."""
        return self._windows.sources

    def reset(self) -> None:
        """Drop buffered observations, ring buffers and counters.

        The installed model version survives a reset: the weights stay
        swapped in, so results classified after the reset are still stamped
        with the version that produces them.
        """
        self._pending.clear()
        self._windows.clear()
        if self._drift is not None:
            self._drift.clear()
        self._sequence = 0
        with self._stats_lock:
            self._frames_in = 0
            self._processed = EngineStats()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _normalise(
        self, observation: Observation, source: Optional[str]
    ) -> _PendingObservation:
        """Parse and validate one observation; take its sequence number last."""
        check_observation(observation)
        if isinstance(observation, FeedbackFrame):
            _, quantized = parse_feedback_frame(observation.payload)
            own_source = observation.source_address
            timestamp_s = observation.timestamp_s
        else:
            quantized = observation
            own_source = ANONYMOUS_SOURCE
            timestamp_s = 0.0
        sequence = self._sequence
        self._sequence += 1
        return _PendingObservation(
            sequence=sequence,
            source=source if source is not None else own_source,
            timestamp_s=timestamp_s,
            quantized=quantized,
        )

    @hot_path
    def _stage_codewords(
        self, entries: List[_PendingObservation], subcarriers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stage the selected sub-carriers' codewords in int16 arena buffers."""
        first = entries[0].quantized
        batch = len(entries)
        arena = self._arena
        full_phi = arena.get(("stage", "q_phi"), (batch,) + first.q_phi.shape, dtype=np.int16)
        full_psi = arena.get(("stage", "q_psi"), (batch,) + first.q_psi.shape, dtype=np.int16)
        for position, entry in enumerate(entries):
            full_phi[position] = entry.quantized.q_phi
            full_psi[position] = entry.quantized.q_psi
        # Whole-frame copies and one batched take beat a take per frame.
        rows = (batch, len(subcarriers))
        q_phi = arena.get(("stage", "phi_rows"), rows + first.q_phi.shape[1:], dtype=np.int16)
        q_psi = arena.get(("stage", "psi_rows"), rows + first.q_psi.shape[1:], dtype=np.int16)
        np.take(full_phi, subcarriers, axis=1, out=q_phi)
        np.take(full_psi, subcarriers, axis=1, out=q_psi)
        return q_phi, q_psi

    @hot_path
    def _classify_features(
        self, features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Classify one feature batch, scoring known-ness when open-set.

        Returns ``(module_ids, confidences, scores, accepted)``.  Closed-set
        engines take the historical :meth:`DeepCsiClassifier.predict_features`
        path (bitwise-identical results); open-set engines reuse the same
        forward pass's logits/probabilities for the policy's scoring rule,
        so rejection costs no second inference.
        """
        policy = self._open_set
        if policy is None:
            ids, confidences = self.classifier.predict_features(features)
            return ids, confidences, confidences, np.ones(len(ids), dtype=bool)
        logits, probabilities = self.classifier.predict_features_outputs(features)
        winners = np.argmax(probabilities, axis=1)
        confidences = probabilities[np.arange(probabilities.shape[0]), winners]
        scores = policy.score_outputs(probabilities, logits)
        accepted = scores >= policy.threshold
        return (
            winners.astype(int),
            confidences.astype(float),
            scores,
            accepted,
        )

    def _emit_results(
        self,
        entries: List[_PendingObservation],
        module_ids: np.ndarray,
        confidences: np.ndarray,
        scores: np.ndarray,
        accepted: np.ndarray,
        results: List[Optional[EngineResult]],
        index_of: Dict[int, int],
    ) -> None:
        model_version = self._model_version
        for position, entry in enumerate(entries):
            results[index_of[id(entry)]] = EngineResult(
                predicted_module_id=int(module_ids[position]),
                confidence=float(confidences[position]),
                source=entry.source,
                sequence=entry.sequence,
                timestamp_s=entry.timestamp_s,
                score=float(scores[position]),
                accepted=bool(accepted[position]),
                model_version=model_version,
            )

    @hot_path
    def _process_pending(self) -> List[EngineResult]:
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        started = time.perf_counter()
        stage_ns = [0] * len(STAGE_NAMES)

        results: List[Optional[EngineResult]] = [None] * len(pending)
        index_of = {id(entry): idx for idx, entry in enumerate(pending)}
        fast = self.precision == "fast"
        extractor = self.classifier.extractor
        # Reads a staged accumulator whose rows already are the selection.
        staged_extractor = FeatureExtractor(replace(extractor.config, subcarrier_positions=None))

        # Group by (config, geometry), stage only the K_sel sub-carriers the
        # features read, gather the trig LUTs straight from those codewords
        # and extract features from the (B, K_sel, M, M) Givens accumulator
        # without materialising V~ (each row is bit-identical to a full-K
        # rebuild's).  Mixed batches are classified per group but reported in
        # input order; the inference forward gives a sample the same bits in
        # any batch (fixed-shape GEMM blocks, ``repro.nn.compute``), so the
        # split changes no result.
        quantized_groups: Dict[tuple, List[_PendingObservation]] = {}
        for entry in pending:
            quantized = entry.quantized
            key = (
                quantized.config,
                quantized.num_tx,
                quantized.num_streams,
                quantized.num_subcarriers,
            )
            quantized_groups.setdefault(key, []).append(entry)

        open_set = self._open_set is not None
        rejected = 0
        hist = np.zeros(SCORE_HISTOGRAM_BINS, dtype=np.int64)

        for (config, num_tx, num_streams, num_sub), entries in quantized_groups.items():
            tick = time.perf_counter_ns()
            resolved = extractor.config.resolve(num_sub, num_tx, num_streams)
            subcarriers = np.asarray(resolved.subcarriers)
            q_phi, q_psi = self._stage_codewords(entries, subcarriers)
            accumulator = reconstruct_accumulator_quantized(
                q_phi,
                q_psi,
                config,
                num_tx,
                num_streams,
                fast=fast,
                arena=self._arena,
            )
            tock = time.perf_counter_ns()
            stage_ns[0] += tock - tick
            features = staged_extractor.transform_accumulator(
                accumulator, num_streams, arena=self._arena
            )
            tick = time.perf_counter_ns()
            stage_ns[1] += tick - tock
            ids, confidences, scores, accepted = self._classify_features(features)
            tock = time.perf_counter_ns()
            stage_ns[2] += tock - tick
            if open_set:
                rejected += int(len(accepted) - np.count_nonzero(accepted))
                hist += self._histogram(scores)
            self._emit_results(
                entries, ids, confidences, scores, accepted, results, index_of
            )

        elapsed = time.perf_counter() - started
        groups = len(quantized_groups)
        batch = EngineStats(
            frames_out=len(pending),
            batches=1,
            inference_seconds=elapsed,
            frames_rejected=rejected,
            score_histogram=tuple(hist.tolist()),
            stage_profile=tuple(
                LayerProfile(index, name, groups, stage_ns[index])
                for index, name in enumerate(STAGE_NAMES)
            ),
        )
        # Publish the whole batch at once so concurrent stats snapshots never
        # see frames_out without the matching batches / inference_seconds.
        with self._stats_lock:
            self._processed = self._processed + batch

        ordered = [result for result in results if result is not None]
        drift = self._drift
        for result in ordered:
            self._windows.append(result)
            if drift is not None:
                drift.observe(result.source, result.score)
        return ordered

    @staticmethod
    @hot_path
    def _histogram(scores: np.ndarray) -> np.ndarray:
        """Bin a batch of [0, 1] scores into the score histogram."""
        bins = np.clip(scores, 0.0, 1.0) * SCORE_HISTOGRAM_BINS
        bins = np.minimum(bins.astype(np.int64), SCORE_HISTOGRAM_BINS - 1)
        return np.bincount(bins, minlength=SCORE_HISTOGRAM_BINS)
