"""Open-set authentication: rejecting transmitters outside the enrolled set.

The paper's motivating scenario (spectrum-access enforcement) needs more than
closed-set classification: a monitor must also flag transmissions from radios
it has *never* seen.  This module holds that decision rule and the plain
functions that fit, calibrate and evaluate it for a trained
:class:`~repro.core.classifier.DeepCsiClassifier`:

* :class:`OpenSetPolicy` is the rule: a scoring rule (maximum softmax
  probability, normalised negative entropy, or the distance to the nearest
  enrolled-class centroid in logit space) and the threshold below which a
  frame is rejected.  Its :meth:`~OpenSetPolicy.score_outputs` scores a
  whole micro-batch from the outputs the streaming hot path already
  computes, so the :class:`~repro.core.engine.InferenceEngine` (bare, or
  sharded by the :class:`~repro.core.service.StreamingService`) rejects
  without a second forward pass.  The engine is the only code that turns
  traffic into accept/reject decisions, and its windowed
  :meth:`~repro.core.engine.InferenceEngine.verdict` the only vote.
* :func:`enroll_centroids` fits a ``centroid_distance`` policy from enrolled
  samples; :func:`score_samples` scores samples under a policy.
* :func:`calibrate_threshold` picks the threshold from enrolled-device
  scores for a target false-rejection rate (:func:`calibrate_threshold_far`
  is the impostor-side dual for a target false-accept rate); a calibrated
  policy is ``dataclasses.replace(policy, threshold=threshold)``.
* :func:`evaluate_open_set` reports a policy's detection metrics
  (false-accept and false-reject rates, AUROC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.analysis.annotations import hot_path
from repro.datasets.containers import FeedbackSample
from repro.nn.losses import SoftmaxCrossEntropy

if TYPE_CHECKING:
    from repro.core.classifier import DeepCsiClassifier


class OpenSetError(ValueError):
    """Raised for invalid open-set-authentication usage."""


#: Supported scoring rules.
SCORING_RULES = ("max_softmax", "negative_entropy", "centroid_distance")


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
    """The open-set decision rule: a scoring rule and its threshold.

    Plain data with no classifier reference, so it is cheap to copy into
    every service shard and picklable for the process backend's worker
    startup payload.  The streaming engine evaluates it per micro-batch via
    :meth:`score_outputs`, on the logits and probabilities the closed-set
    prediction already produced.

    Attributes
    ----------
    scoring:
        One of :data:`SCORING_RULES`.
    threshold:
        Known-ness score below which a sample is rejected as ``UNKNOWN``.
    centroids:
        Enrolled-class logit centroids, one row per class and one column per
        logit (``centroid_distance`` only; fit them with
        :func:`enroll_centroids`).
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
                "(fit the policy with enroll_centroids)"
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
        ``centroid_distance``).  :func:`score_samples` scores samples with
        the same call, so engine-side decisions match the sample-based API
        bit for bit.
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


def enroll_centroids(
    classifier: "DeepCsiClassifier", samples: Sequence[FeedbackSample]
) -> OpenSetPolicy:
    """Fit a ``centroid_distance`` policy from enrolled, labelled samples.

    The centroids are the per-class mean logits; the scale is the median
    distance of a sample to its own class centroid.  The threshold keeps its
    default until a calibration replaces it.
    """
    if not samples:
        raise OpenSetError("cannot enroll an empty sample list")
    logits = classifier.predict_logits(samples)
    labels = np.array([sample.module_id for sample in samples])
    num_classes = logits.shape[1]
    centroids = np.zeros((num_classes, logits.shape[1]))
    for cls in range(num_classes):
        members = logits[labels == cls]
        if len(members):
            centroids[cls] = members.mean(axis=0)
    distances = np.linalg.norm(logits - centroids[labels], axis=1)
    return OpenSetPolicy(
        scoring="centroid_distance",
        centroids=centroids,
        centroid_scale=float(np.median(distances) + 1e-9),
    )


def score_samples(
    classifier: "DeepCsiClassifier",
    policy: OpenSetPolicy,
    samples: Sequence[FeedbackSample],
) -> np.ndarray:
    """Known-ness score of every sample under ``policy`` (higher = enrolled)."""
    if not samples:
        raise OpenSetError("the sample list is empty")
    logits = classifier.predict_logits(samples)
    return policy.score_outputs(SoftmaxCrossEntropy.softmax(logits), logits)


def calibrate_threshold(
    scores: np.ndarray, target_false_reject_rate: float = 0.05
) -> float:
    """The threshold that rejects at most the target fraction of enrolled scores.

    ``scores`` are enrolled-device known-ness scores (:func:`score_samples`);
    the threshold is their ``target_false_reject_rate`` quantile.
    """
    if not 0.0 <= target_false_reject_rate < 1.0:
        raise OpenSetError("target_false_reject_rate must be in [0, 1)")
    return float(np.quantile(scores, target_false_reject_rate))


def calibrate_threshold_far(
    scores: np.ndarray, target_false_accept_rate: float = 0.05
) -> float:
    """The threshold that accepts at most the target fraction of impostor scores.

    The impostor-side dual of :func:`calibrate_threshold`: the
    ``1 - target_false_accept_rate`` quantile of the impostor scores, nudged
    just above their maximum for a target of exactly 0, since acceptance is
    ``score >= threshold``.  The CLI's ``serve --open-set --far`` path
    calibrates this way against a synthetic spoofed-feedback population when
    no real impostor captures are available.
    """
    if not 0.0 <= target_false_accept_rate < 1.0:
        raise OpenSetError("target_false_accept_rate must be in [0, 1)")
    if target_false_accept_rate == 0.0:
        return float(np.nextafter(np.max(scores), np.inf))
    return float(np.quantile(scores, 1.0 - target_false_accept_rate))


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
    classifier: "DeepCsiClassifier",
    policy: OpenSetPolicy,
    known_samples: Sequence[FeedbackSample],
    unknown_samples: Sequence[FeedbackSample],
) -> OpenSetMetrics:
    """Detection metrics of ``policy`` on enrolled- and unknown-device data."""
    if not known_samples or not unknown_samples:
        raise OpenSetError("both known and unknown sample lists must be non-empty")
    known_scores = score_samples(classifier, policy, known_samples)
    unknown_scores = score_samples(classifier, policy, unknown_samples)
    accepted_known = known_scores >= policy.threshold
    accepted_unknown = unknown_scores >= policy.threshold

    predictions = classifier.predict(known_samples)
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
        threshold=float(policy.threshold),
    )
