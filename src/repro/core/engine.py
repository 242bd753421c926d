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
* :meth:`InferenceEngine.install_model` swaps in a versioned model snapshot
  (:class:`~repro.core.lifecycle.ModelVersion`) at a batch boundary --
  buffered frames are flushed under the old weights first, so every result
  carries the version that actually classified it and the per-source
  version stamps are monotonically non-decreasing;
* throughput counters (:class:`EngineStats`) expose frames/sec, rejections
  and a score histogram for the benchmarks and the CLI.

Every consumer of per-frame classification (the authentication pipeline,
the CLI, the throughput benchmark) routes through this engine.  The engine
itself is single-threaded; :class:`repro.core.service.StreamingService`
scales it out to a sharded multi-worker pool with asynchronous ingestion
while preserving the per-source semantics defined here.
"""

from __future__ import annotations

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
from repro.core.openset import OpenSetAuthenticator, OpenSetPolicy
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


@dataclass(frozen=True)
class StageProfile:
    """Accumulated wall-clock of one batch-processing stage.

    The preprocessing analogue of :class:`repro.nn.model.LayerProfile`:
    ``reconstruct`` covers staging + Givens reconstruction of a quantised
    micro-batch, ``features`` the feature-tensor extraction, and
    ``inference`` the normalisation + CNN forward (one call each per
    processed group).
    """

    name: str
    calls: int
    total_ns: int

    @property
    def mean_ms(self) -> float:
        """Mean milliseconds per processed group."""
        if self.calls == 0:
            return 0.0
        return self.total_ns / self.calls / 1e6


#: Stage names reported in :attr:`EngineStats.stage_profile`, in order.
STAGE_NAMES = ("reconstruct", "features", "inference")


@dataclass
class EngineStats:
    """Throughput counters of one engine instance.

    ``inference_seconds`` only accounts for time spent inside batch
    processing (decode + feature extraction + CNN forward), not for the time
    frames spent waiting in the buffer.

    The derived :attr:`frames_per_second` and :attr:`mean_batch_size` are
    safe to read at any time: on a fresh or freshly-reset engine (no batch
    processed yet) they return ``0.0`` instead of dividing by zero.

    :attr:`InferenceEngine.stats` returns a private *consistent* snapshot:
    the engine updates every counter of a processed batch under one lock, so
    a snapshot taken mid-drain (from a monitoring thread, or shipped to the
    service from a worker process) never shows a batch's ``frames_out``
    without its ``batches`` and ``inference_seconds``.
    """

    frames_in: int = 0
    frames_out: int = 0
    batches: int = 0
    inference_seconds: float = 0.0
    #: Frames whose open-set score fell below the threshold (0 closed-set).
    frames_rejected: int = 0
    #: Histogram of open-set scores over ``SCORE_HISTOGRAM_BINS`` equal
    #: [0, 1] bins; empty when the engine runs closed-set.
    score_histogram: Tuple[int, ...] = ()
    #: Version of the currently-installed model snapshot (0 = as-built).
    model_version: int = 0
    #: Name of the active compute backend ("fp64" = default path).
    compute: str = "fp64"
    #: Preprocessing precision ("exact" = bit-identical float64 LUT path,
    #: "fast" = complex64/float32 codeword path).
    precision: str = "exact"
    #: Per-layer forward timings, populated when the engine profiles.
    layer_profile: Tuple[LayerProfile, ...] = ()
    #: Per-stage batch-processing timings (reconstruct / features /
    #: inference), always accumulated -- see :class:`StageProfile`.
    stage_profile: Tuple[StageProfile, ...] = ()

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

    def __init__(
        self, vote_window: int, max_sources: int, reject_streak: int = 3
    ) -> None:
        if vote_window < 1:
            raise EngineError("vote_window must be >= 1")
        if max_sources < 1:
            raise EngineError("max_sources must be >= 1")
        if reject_streak < 1:
            raise EngineError("reject_streak must be >= 1")
        self.vote_window = vote_window
        self.max_sources = max_sources
        self.reject_streak = reject_streak
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
        * the ``reject_streak`` most recent results were all rejected.

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
        streak = min(self.reject_streak, self.vote_window)
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
        Length of the per-source ring buffers used by :meth:`verdict`.
    max_sources:
        Maximum number of per-source ring buffers kept alive.  An always-on
        observer sees an unbounded set of source addresses (spoofed MACs
        included); beyond this many the least-recently-seen source's window
        is evicted so memory stays bounded.
    open_set:
        Optional open-set policy (an :class:`~repro.core.openset.OpenSetPolicy`
        or a calibrated :class:`~repro.core.openset.OpenSetAuthenticator`,
        converted via its :meth:`~repro.core.openset.OpenSetAuthenticator.policy`).
        When set, every frame's known-ness is scored on the classification
        forward pass; frames below the threshold are rejected and verdicts
        can resolve to :data:`UNKNOWN_MODULE_ID`.
    drift:
        Optional :class:`~repro.core.lifecycle.DriftConfig`; when set the
        engine feeds every frame's score into a per-source
        :class:`~repro.core.lifecycle.DriftMonitor`
        (see :meth:`drift_snapshot`).
    reject_streak:
        Number of *consecutive* most-recent rejections that force a
        source's verdict to UNKNOWN regardless of older accepted votes.
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
        max_sources: int = 1024,
        open_set: Optional[Union[OpenSetPolicy, OpenSetAuthenticator]] = None,
        drift: Optional[DriftConfig] = None,
        reject_streak: int = 3,
        compute: Optional[str] = None,
        precision: str = "exact",
        profile: bool = False,
    ) -> None:
        if batch_size < 1:
            raise EngineError("batch_size must be >= 1")
        if max_latency_frames is not None and max_latency_frames < 1:
            raise EngineError("max_latency_frames must be >= 1 or None")
        if precision not in PRECISION_NAMES:
            raise EngineError(
                f"unknown precision {precision!r}; expected one of "
                f"{PRECISION_NAMES}"
            )
        self.classifier = classifier
        self.batch_size = batch_size
        self.max_latency_frames = max_latency_frames
        self.vote_window = vote_window
        self.max_sources = max_sources
        self.precision = precision
        if isinstance(open_set, OpenSetAuthenticator):
            open_set = open_set.policy()
        self._open_set = open_set
        self._drift = DriftMonitor(drift) if drift is not None else None
        if compute is not None:
            classifier.set_compute(compute)
        self._profile = bool(profile)
        if self._profile and classifier.model is not None:
            classifier.model.enable_profiling()
        self._model_version = 0
        self._stats = EngineStats()  # guarded-by: _stats_lock
        # Per-stage [calls, total_ns] accumulators.  guarded-by: _stats_lock
        self._stage_totals: Dict[str, List[int]] = {
            name: [0, 0] for name in STAGE_NAMES
        }
        # Open-set score histogram bin counts.  guarded-by: _stats_lock
        self._score_hist: List[int] = [0] * SCORE_HISTOGRAM_BINS
        self._stats_lock = threading.Lock()
        self._pending: List[_PendingObservation] = []
        self._windows = SourceWindows(vote_window, max_sources, reject_streak)
        self._sequence = 0
        # Arena backing the codeword-native preprocessing path (codeword
        # staging, Givens accumulator + scratch, feature gathers/output).
        self._arena = ArenaPool()

    @property
    def stats(self) -> EngineStats:
        """A consistent point-in-time snapshot of the throughput counters.

        All counters of one processed batch are published atomically, so a
        reader in another thread (the service's stats aggregation, a
        monitoring loop) never observes a half-updated batch.
        """
        with self._stats_lock:
            stage_profile = tuple(
                StageProfile(name=name, calls=calls, total_ns=total_ns)
                for name, (calls, total_ns) in self._stage_totals.items()
                if calls
            )
            snapshot = replace(
                self._stats,
                compute=self.compute,
                precision=self.precision,
                stage_profile=stage_profile,
                score_histogram=(
                    tuple(self._score_hist) if self._open_set is not None else ()
                ),
            )
        if self._profile and self.classifier.model is not None:
            snapshot.layer_profile = self.classifier.model.profile()
        return snapshot

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
        """Swap in a versioned model snapshot at a batch boundary.

        The epoch barrier of the zero-downtime swap: everything buffered is
        flushed through the *old* weights first, then the snapshot's weights
        + compute state (and open-set threshold, when it carries one) are
        installed and the engine's version stamp is bumped.  A frame is
        therefore always classified entirely by one version, and the
        ``model_version`` stamped on results never decreases.

        Returns the results of the barrier flush (classified by the old
        version) so callers can hand them to their consumers -- nothing is
        dropped by a swap.
        """
        if version.version <= self._model_version:
            raise EngineError(
                f"model version must increase: engine is at "
                f"{self._model_version}, got {version.version}"
            )
        flushed = self._process_pending()
        version.apply(self.classifier)
        if version.open_set_threshold is not None and self._open_set is not None:
            self._open_set = replace(
                self._open_set, threshold=float(version.open_set_threshold)
            )
        self._model_version = version.version
        with self._stats_lock:
            self._stats.model_version = version.version
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
            self._stats.frames_in += 1
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
            self._stats = EngineStats(model_version=self._model_version)
            self._stage_totals = {name: [0, 0] for name in STAGE_NAMES}
            self._score_hist = [0] * SCORE_HISTOGRAM_BINS

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
        stage_ns = {name: 0 for name in STAGE_NAMES}
        stage_calls = {name: 0 for name in STAGE_NAMES}

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
        # input order; the fp64 forward gives a sample the same bits in any
        # batch (``batch_invariant_matmul``), so the split changes no result.
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
            stage_ns["reconstruct"] += tock - tick
            stage_calls["reconstruct"] += 1
            features = staged_extractor.transform_accumulator(
                accumulator, num_streams, arena=self._arena
            )
            tick = time.perf_counter_ns()
            stage_ns["features"] += tick - tock
            stage_calls["features"] += 1
            ids, confidences, scores, accepted = self._classify_features(features)
            tock = time.perf_counter_ns()
            stage_ns["inference"] += tock - tick
            stage_calls["inference"] += 1
            if open_set:
                rejected += int(len(accepted) - np.count_nonzero(accepted))
                hist += self._histogram(scores)
            self._emit_results(
                entries, ids, confidences, scores, accepted, results, index_of
            )

        elapsed = time.perf_counter() - started
        # Publish the whole batch's counters atomically so concurrent stats
        # snapshots never see frames_out without the matching batches /
        # inference_seconds update.
        with self._stats_lock:
            self._stats.frames_out += len(pending)
            self._stats.batches += 1
            self._stats.inference_seconds += elapsed
            self._stats.frames_rejected += rejected
            if open_set:
                for bin_index in range(SCORE_HISTOGRAM_BINS):
                    self._score_hist[bin_index] += int(hist[bin_index])
            for name in STAGE_NAMES:
                totals = self._stage_totals[name]
                totals[0] += stage_calls[name]
                totals[1] += stage_ns[name]

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
