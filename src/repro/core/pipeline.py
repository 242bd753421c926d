"""End-to-end authentication pipeline on top of the monitor-mode capture.

The pipeline reproduces the deployment scenario of Fig. 1/Fig. 3: an observer
sniffs VHT compressed-beamforming frames, reconstructs ``V~`` and runs the
trained DeepCSI classifier to authenticate the beamformer, without ever being
associated to the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.classifier import DeepCsiClassifier
from repro.core.engine import UNKNOWN_MODULE_ID, InferenceEngine, Observation
from repro.core.service import StreamingService
from repro.datasets.containers import FeedbackSample
from repro.feedback.capture import CapturedFeedback, MonitorCapture
from repro.feedback.frames import FeedbackFrame, parse_feedback_frame
from repro.feedback.givens import reconstruct_v_matrix
from repro.feedback.quantization import dequantize_angles


class PipelineError(ValueError):
    """Raised for invalid pipeline usage."""


@dataclass(frozen=True)
class AuthenticationResult:
    """Outcome of authenticating one captured feedback.

    Attributes
    ----------
    predicted_module_id:
        Module the classifier believes produced the transmission.
    confidence:
        Softmax probability of the predicted module.
    accepted:
        Whether the prediction matches the claimed identity (when one was
        provided) and the confidence exceeds the acceptance threshold.
    claimed_module_id:
        The identity the transmitter claims (``None`` for open-set queries).
    """

    predicted_module_id: int
    confidence: float
    accepted: bool
    claimed_module_id: Optional[int] = None


class AuthenticationPipeline:
    """Authenticates beamformers from sniffed beamforming feedback."""

    def __init__(
        self,
        classifier: DeepCsiClassifier,
        confidence_threshold: float = 0.5,
    ) -> None:
        if not 0.0 <= confidence_threshold <= 1.0:
            raise PipelineError("confidence_threshold must be in [0, 1]")
        self.classifier = classifier
        self.confidence_threshold = confidence_threshold

    # ------------------------------------------------------------------ #
    # Enrollment
    # ------------------------------------------------------------------ #
    def enroll(
        self,
        samples: Sequence[FeedbackSample],
        validation_samples: Optional[Sequence[FeedbackSample]] = None,
    ):
        """Train the classifier on labelled feedback samples."""
        return self.classifier.fit(samples, validation_samples)

    # ------------------------------------------------------------------ #
    # Authentication
    # ------------------------------------------------------------------ #
    def _to_v_tilde(
        self, observation: Union[FeedbackFrame, CapturedFeedback, FeedbackSample, np.ndarray]
    ) -> np.ndarray:
        if isinstance(observation, FeedbackFrame):
            _, quantized = parse_feedback_frame(observation.payload)
            return reconstruct_v_matrix(dequantize_angles(quantized))
        if isinstance(observation, CapturedFeedback):
            return observation.v_tilde
        if isinstance(observation, FeedbackSample):
            return observation.v_tilde
        array = np.asarray(observation)
        if array.ndim != 3:
            raise PipelineError(
                "expected a FeedbackFrame, CapturedFeedback, FeedbackSample or a "
                "(K, M, N_SS) array"
            )
        return array

    def authenticate(
        self,
        observation: Union[FeedbackFrame, CapturedFeedback, FeedbackSample, np.ndarray],
        claimed_module_id: Optional[int] = None,
    ) -> AuthenticationResult:
        """Authenticate a single captured feedback.

        When ``claimed_module_id`` is given the result is *accepted* only if
        the classifier agrees with the claim with sufficient confidence;
        otherwise acceptance only requires the confidence threshold.
        """
        v_tilde = self._to_v_tilde(observation)
        predicted, confidence = self.classifier.predict_matrix(v_tilde)
        return self._decide(predicted, confidence, claimed_module_id)

    def _decide(
        self,
        predicted: int,
        confidence: float,
        claimed_module_id: Optional[int],
    ) -> AuthenticationResult:
        """Turn one classification into an accept/reject decision."""
        confident = confidence >= self.confidence_threshold
        if claimed_module_id is None:
            accepted = confident
        else:
            accepted = confident and predicted == claimed_module_id
        return AuthenticationResult(
            predicted_module_id=predicted,
            confidence=confidence,
            accepted=accepted,
            claimed_module_id=claimed_module_id,
        )

    def authenticate_batch(
        self,
        observations: Sequence[Observation],
        claimed_module_id: Optional[int] = None,
        batch_size: int = 64,
        workers: int = 1,
        backend: str = "threads",
    ) -> List[AuthenticationResult]:
        """Authenticate many observations through the batched engine.

        The observations are frames or their
        :class:`~repro.feedback.quantization.QuantizedAngles`, the two forms
        the streaming path takes; anything else raises at its submit
        (:class:`~repro.core.engine.EngineError`, or
        :class:`~repro.core.service.ServiceError` with ``workers > 1``).
        With ``workers > 1`` the observations are routed through a sharded
        :class:`~repro.core.service.StreamingService` (one engine per worker,
        sources assigned to shards by stable hash); the per-frame decisions
        are identical to the single-engine path and returned in input order.
        ``backend`` picks where those shards run: worker threads
        (``"threads"``) or worker processes fed through shared-memory ring
        buffers (``"processes"``, the multi-core option).
        """
        if not observations:
            raise PipelineError("cannot authenticate an empty observation list")
        if workers > 1:
            with StreamingService(
                self.classifier,
                num_workers=workers,
                batch_size=batch_size,
                backend=backend,
            ) as service:
                results = service.drain(observations)
        else:
            engine = InferenceEngine(self.classifier, batch_size=batch_size)
            results = engine.drain(observations)
        return [
            self._decide(
                result.predicted_module_id, result.confidence, claimed_module_id
            )
            for result in results
        ]

    def authenticate_capture(
        self,
        capture: MonitorCapture,
        source_address: Optional[str] = None,
        claimed_module_id: Optional[int] = None,
        batch_size: int = 64,
        workers: int = 1,
        backend: str = "threads",
    ) -> List[AuthenticationResult]:
        """Authenticate every matching frame stored in a monitor capture.

        The frames are decoded and classified in micro-batches of
        ``batch_size`` through the :class:`~repro.core.engine.InferenceEngine`
        hot path instead of one CNN forward per frame.  ``workers > 1``
        spreads the capture's sources over a sharded
        :class:`~repro.core.service.StreamingService` worker pool running on
        the chosen execution ``backend`` (``"threads"`` or ``"processes"``).
        """
        frames = capture.filter(source_address=source_address)
        if not frames:
            raise PipelineError("the capture contains no matching feedback frames")
        return self.authenticate_batch(
            frames,
            claimed_module_id=claimed_module_id,
            batch_size=batch_size,
            workers=workers,
            backend=backend,
        )

    def majority_vote(
        self, results: Sequence[AuthenticationResult]
    ) -> AuthenticationResult:
        """Fuse several per-frame decisions into a single verdict.

        The predicted module is the most frequent one; the confidence is the
        mean confidence of the frames voting for it.  A fused
        :data:`~repro.core.engine.UNKNOWN_MODULE_ID` winner is never
        *accepted*: a majority of open-set rejections means the traffic
        matches no enrolled transmitter, so it must not authenticate as one
        -- however confident the rejections are.
        """
        if not results:
            raise PipelineError("cannot vote over an empty result list")
        claims = {result.claimed_module_id for result in results}
        if len(claims) > 1:
            raise PipelineError(
                "cannot fuse results with inconsistent claimed identities: "
                f"{sorted(claims, key=repr)}"
            )
        votes: dict = {}
        for result in results:
            votes.setdefault(result.predicted_module_id, []).append(result.confidence)
        winner = max(votes, key=lambda module: (len(votes[module]), np.mean(votes[module])))
        confidence = float(np.mean(votes[winner]))
        claimed = claims.pop()
        confident = confidence >= self.confidence_threshold
        accepted = (
            confident
            and winner != UNKNOWN_MODULE_ID
            and (claimed is None or winner == claimed)
        )
        return AuthenticationResult(
            predicted_module_id=winner,
            confidence=confidence,
            accepted=accepted,
            claimed_module_id=claimed,
        )
