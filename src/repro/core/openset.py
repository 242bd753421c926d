"""Open-set authentication: rejecting transmitters outside the enrolled set.

The paper's motivating scenario (spectrum-access enforcement) needs more than
closed-set classification: a monitor must also flag transmissions from radios
it has *never* seen.  This module adds that capability on top of the trained
:class:`~repro.core.classifier.DeepCsiClassifier`:

* :class:`OpenSetAuthenticator` scores each feedback sample with either the
  maximum softmax probability or the distance to the nearest enrolled-class
  centroid in penultimate feature space (here: the softmax input logits), and
  rejects samples whose score falls below a threshold.
* :func:`calibrate_threshold` picks the threshold from enrolled-device data
  for a target false-rejection rate (:func:`calibrate_threshold_far` is the
  impostor-side dual for a target false-accept rate).
* :func:`evaluate_open_set` sweeps the threshold and reports the detection
  metrics (false-accept and false-reject rates, AUROC).
* :class:`OpenSetPolicy` is the engine-facing form of an authenticator: a
  picklable bundle of (scoring rule, threshold, centroid statistics) whose
  :meth:`~OpenSetPolicy.score_outputs` scores a whole micro-batch from the
  classifier outputs the streaming hot path already computes, so the
  :class:`~repro.core.engine.InferenceEngine` can reject without a second
  forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.annotations import hot_path
from repro.datasets.containers import FeedbackSample

if TYPE_CHECKING:
    from repro.core.classifier import DeepCsiClassifier


class OpenSetError(ValueError):
    """Raised for invalid open-set-authentication usage."""


#: Supported scoring rules.
SCORING_RULES = ("max_softmax", "negative_entropy", "centroid_distance")


@dataclass(frozen=True)
class OpenSetDecision:
    """Decision for one sample.

    Attributes
    ----------
    predicted_module_id:
        The closed-set prediction (most likely enrolled module).
    score:
        Known-ness score (higher means more likely to be an enrolled module).
    accepted:
        ``True`` when the score reaches the authenticator threshold.
    """

    predicted_module_id: int
    score: float
    accepted: bool


@dataclass(frozen=True)
class OpenSetMetrics:
    """Detection metrics of an open-set evaluation.

    Attributes
    ----------
    false_accept_rate:
        Fraction of unknown-device samples accepted as enrolled.
    false_reject_rate:
        Fraction of enrolled-device samples rejected as unknown.
    known_accuracy:
        Closed-set accuracy on the accepted enrolled-device samples.
    auroc:
        Area under the ROC curve of the known-ness score (1.0 = perfect
        separation between enrolled and unknown devices).
    threshold:
        The threshold the rates were computed at.
    """

    false_accept_rate: float
    false_reject_rate: float
    known_accuracy: float
    auroc: float
    threshold: float


@dataclass(frozen=True)
class OpenSetPolicy:
    """Engine-facing open-set decision rule (scoring + threshold).

    A plain-data snapshot of an :class:`OpenSetAuthenticator`: no classifier
    reference, so it is cheap to copy into every service shard and picklable
    for the process backend's worker startup payload.  The streaming engine
    evaluates it per micro-batch via :meth:`score_outputs`, which works on
    the logits/probabilities the closed-set prediction already produced.

    Attributes
    ----------
    scoring:
        One of :data:`SCORING_RULES`.
    threshold:
        Known-ness score below which a sample is rejected as ``UNKNOWN``.
    centroids:
        Enrolled-class logit centroids (``centroid_distance`` only).
    centroid_scale:
        Median enrolled distance used to normalise the centroid score.
    """

    scoring: str = "max_softmax"
    threshold: float = 0.5
    centroids: Optional[np.ndarray] = None
    centroid_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scoring not in SCORING_RULES:
            raise OpenSetError(
                f"scoring must be one of {SCORING_RULES}, got {self.scoring!r}"
            )
        if self.scoring == "centroid_distance" and self.centroids is None:
            raise OpenSetError(
                "centroid_distance scoring requires enrolled centroids "
                "(build the policy from an enrolled authenticator)"
            )

    @classmethod
    def from_authenticator(cls, authenticator: "OpenSetAuthenticator") -> "OpenSetPolicy":
        """Snapshot an authenticator's decision rule (see also its ``policy()``)."""
        return cls(
            scoring=authenticator.scoring,
            threshold=authenticator.threshold,
            centroids=authenticator._centroids,
            centroid_scale=authenticator._centroid_scale,
        )

    @hot_path
    def score_outputs(
        self,
        probabilities: Optional[np.ndarray],
        logits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Known-ness scores of one batch from the classifier outputs.

        ``probabilities`` is the ``(B, C)`` softmax batch (softmax-based
        rules); ``logits`` the matching raw outputs (only consulted by
        ``centroid_distance``).  Applies exactly the formulas of
        :meth:`OpenSetAuthenticator.scores`, so engine-side decisions match
        the sample-based API bit for bit.
        """
        if self.scoring != "centroid_distance" and probabilities is None:
            raise OpenSetError(f"{self.scoring} scoring needs the softmax batch")
        if self.scoring == "max_softmax":
            return probabilities.max(axis=1)
        if self.scoring == "negative_entropy":
            entropy = -np.sum(
                probabilities * np.log(np.clip(probabilities, 1e-12, None)), axis=1
            )
            max_entropy = np.log(probabilities.shape[1])
            return 1.0 - entropy / max_entropy
        if logits is None:
            raise OpenSetError("centroid_distance scoring needs the logits batch")
        distances = np.linalg.norm(
            logits[:, np.newaxis, :] - self.centroids[np.newaxis, :, :], axis=2
        )
        nearest = distances.min(axis=1)
        return 1.0 / (1.0 + nearest / self.centroid_scale)


class OpenSetAuthenticator:
    """Open-set wrapper around a trained closed-set classifier."""

    def __init__(
        self,
        classifier: DeepCsiClassifier,
        scoring: str = "max_softmax",
        threshold: float = 0.5,
    ) -> None:
        if scoring not in SCORING_RULES:
            raise OpenSetError(
                f"scoring must be one of {SCORING_RULES}, got {scoring!r}"
            )
        self.classifier = classifier
        self.scoring = scoring
        self.threshold = float(threshold)
        self._centroids: Optional[np.ndarray] = None
        self._centroid_scale: float = 1.0

    # ------------------------------------------------------------------ #
    # Enrolment
    # ------------------------------------------------------------------ #
    def enroll(self, samples: Sequence[FeedbackSample]) -> "OpenSetAuthenticator":
        """Fit the centroid statistics used by the distance-based score.

        Only needed for ``scoring="centroid_distance"``; the softmax-based
        scores use the classifier output directly.
        """
        if not samples:
            raise OpenSetError("cannot enroll an empty sample list")
        logits = self.classifier.predict_logits(samples)
        labels = np.array([sample.module_id for sample in samples])
        num_classes = logits.shape[1]
        centroids = np.zeros((num_classes, logits.shape[1]))
        for cls in range(num_classes):
            members = logits[labels == cls]
            if len(members):
                centroids[cls] = members.mean(axis=0)
        self._centroids = centroids
        distances = np.linalg.norm(logits - centroids[labels], axis=1)
        self._centroid_scale = float(np.median(distances) + 1e-9)
        return self

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def policy(self) -> OpenSetPolicy:
        """The engine-facing :class:`OpenSetPolicy` of this authenticator.

        ``centroid_distance`` authenticators must be enrolled first.
        """
        if self.scoring == "centroid_distance" and self._centroids is None:
            raise OpenSetError(
                "centroid_distance scoring requires calling enroll() first"
            )
        return OpenSetPolicy.from_authenticator(self)

    def scores(self, samples: Sequence[FeedbackSample]) -> np.ndarray:
        """Known-ness score of every sample (higher = more likely enrolled)."""
        if not samples:
            raise OpenSetError("the sample list is empty")
        policy = self.policy()
        if self.scoring == "centroid_distance":
            return policy.score_outputs(None, self.classifier.predict_logits(samples))
        return policy.score_outputs(self.classifier.predict_proba(samples))

    def decide(self, samples: Sequence[FeedbackSample]) -> List[OpenSetDecision]:
        """Accept/reject decision (plus closed-set prediction) per sample."""
        scores = self.scores(samples)
        predictions = self.classifier.predict(samples)
        return [
            OpenSetDecision(
                predicted_module_id=int(prediction),
                score=float(score),
                accepted=bool(score >= self.threshold),
            )
            for prediction, score in zip(predictions, scores)
        ]


def calibrate_threshold(
    authenticator: OpenSetAuthenticator,
    enrolled_samples: Sequence[FeedbackSample],
    target_false_reject_rate: float = 0.05,
) -> float:
    """Pick the threshold that rejects at most the target fraction of enrolled data.

    The threshold is set to the ``target_false_reject_rate`` quantile of the
    enrolled-device scores and stored on the authenticator.
    """
    if not 0.0 <= target_false_reject_rate < 1.0:
        raise OpenSetError("target_false_reject_rate must be in [0, 1)")
    scores = authenticator.scores(enrolled_samples)
    threshold = float(np.quantile(scores, target_false_reject_rate))
    authenticator.threshold = threshold
    return threshold


def calibrate_threshold_far(
    authenticator: OpenSetAuthenticator,
    impostor_samples: Sequence[FeedbackSample],
    target_false_accept_rate: float = 0.05,
) -> float:
    """Pick the threshold that accepts at most the target fraction of impostors.

    The impostor-side dual of :func:`calibrate_threshold`: the threshold is
    set to the ``1 - target_false_accept_rate`` quantile of the impostor
    scores (nudged just above the maximum for a target of exactly 0, since
    acceptance is ``score >= threshold``) and stored on the authenticator.
    The CLI's ``serve --open-set --far`` path calibrates this way against a
    synthetic spoofed-feedback population when no real impostor captures are
    available.
    """
    if not 0.0 <= target_false_accept_rate < 1.0:
        raise OpenSetError("target_false_accept_rate must be in [0, 1)")
    scores = authenticator.scores(impostor_samples)
    if target_false_accept_rate == 0.0:
        threshold = float(np.nextafter(scores.max(), np.inf))
    else:
        threshold = float(np.quantile(scores, 1.0 - target_false_accept_rate))
    authenticator.threshold = threshold
    return threshold


def _auroc(known_scores: np.ndarray, unknown_scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum (Mann-Whitney) statistic."""
    combined = np.concatenate([known_scores, unknown_scores])
    ranks = np.empty_like(combined)
    order = np.argsort(combined, kind="mergesort")
    sorted_scores = combined[order]
    ranks[order] = np.arange(1, len(combined) + 1, dtype=float)
    # Average ranks for ties.
    unique, inverse, counts = np.unique(
        sorted_scores, return_inverse=True, return_counts=True
    )
    if len(unique) != len(sorted_scores):
        cumulative = np.cumsum(counts)
        start = cumulative - counts + 1
        average = (start + cumulative) / 2.0
        ranks[order] = average[inverse]
    known_rank_sum = float(np.sum(ranks[: len(known_scores)]))
    n_known = len(known_scores)
    n_unknown = len(unknown_scores)
    u_statistic = known_rank_sum - n_known * (n_known + 1) / 2.0
    return float(u_statistic / (n_known * n_unknown))


def evaluate_open_set(
    authenticator: OpenSetAuthenticator,
    known_samples: Sequence[FeedbackSample],
    unknown_samples: Sequence[FeedbackSample],
    threshold: Optional[float] = None,
) -> OpenSetMetrics:
    """Evaluate the authenticator on enrolled-device and unknown-device data."""
    if not known_samples or not unknown_samples:
        raise OpenSetError("both known and unknown sample lists must be non-empty")
    threshold = authenticator.threshold if threshold is None else float(threshold)
    known_scores = authenticator.scores(known_samples)
    unknown_scores = authenticator.scores(unknown_samples)
    accepted_known = known_scores >= threshold
    accepted_unknown = unknown_scores >= threshold

    predictions = authenticator.classifier.predict(known_samples)
    truth = np.array([sample.module_id for sample in known_samples])
    if np.any(accepted_known):
        known_accuracy = float(
            np.mean(predictions[accepted_known] == truth[accepted_known])
        )
    else:
        known_accuracy = 0.0

    return OpenSetMetrics(
        false_accept_rate=float(np.mean(accepted_unknown)),
        false_reject_rate=float(np.mean(~accepted_known)),
        known_accuracy=known_accuracy,
        auroc=_auroc(known_scores, unknown_scores),
        threshold=threshold,
    )


def threshold_sweep(
    authenticator: OpenSetAuthenticator,
    known_samples: Sequence[FeedbackSample],
    unknown_samples: Sequence[FeedbackSample],
    num_points: int = 21,
) -> Dict[float, Tuple[float, float]]:
    """False-accept / false-reject rates over a grid of thresholds.

    Returns a mapping ``threshold -> (false_accept_rate, false_reject_rate)``
    suitable for plotting a DET-style trade-off curve.
    """
    if num_points < 2:
        raise OpenSetError("num_points must be >= 2")
    known_scores = authenticator.scores(known_samples)
    unknown_scores = authenticator.scores(unknown_samples)
    low = float(min(known_scores.min(), unknown_scores.min()))
    high = float(max(known_scores.max(), unknown_scores.max()))
    thresholds = np.linspace(low, high, num_points)
    sweep: Dict[float, Tuple[float, float]] = {}
    for threshold in thresholds:
        far = float(np.mean(unknown_scores >= threshold))
        frr = float(np.mean(known_scores < threshold))
        sweep[float(threshold)] = (far, frr)
    return sweep
