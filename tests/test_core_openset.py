"""Tests for open-set authentication."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.model import DeepCsiModelConfig
from repro.core.openset import (
    OpenSetError,
    OpenSetPolicy,
    _auroc,
    calibrate_threshold,
    calibrate_threshold_far,
    enroll_centroids,
    evaluate_open_set,
    score_samples,
)
from repro.datasets.containers import FeedbackSample
from repro.datasets.features import FeatureConfig
from repro.nn.training import TrainingConfig


def _make_samples(module_ids, num_per_module=25, seed=0, shift=0.0, centres_seed=42):
    """Small, well-separated synthetic samples (fast to train on).

    The class centres depend only on ``centres_seed`` and the module id, so
    sample sets generated with different ``seed`` values (train / test / new
    condition) share the same class structure.
    """
    rng = np.random.default_rng(seed)
    centres = {
        module_id: (
            lambda class_rng: class_rng.standard_normal((12, 2, 1))
            + 1j * class_rng.standard_normal((12, 2, 1))
        )(np.random.default_rng(centres_seed + module_id))
        for module_id in module_ids
    }
    samples = []
    for module_id in module_ids:
        for _ in range(num_per_module):
            noise = 0.15 * (
                rng.standard_normal((12, 2, 1)) + 1j * rng.standard_normal((12, 2, 1))
            )
            samples.append(
                FeedbackSample(
                    v_tilde=centres[module_id] + noise + shift,
                    module_id=module_id,
                    beamformee_id=1,
                )
            )
    rng.shuffle(samples)
    return samples


def _tiny_classifier(num_classes):
    config = ClassifierConfig(
        num_classes=num_classes,
        feature=FeatureConfig(stream_indices=(0,)),
        model=DeepCsiModelConfig(
            num_filters=8,
            kernel_widths=(3,),
            pool_width=2,
            dense_units=(16,),
            dropout_retain=(1.0,),
            use_attention=False,
        ),
        training=TrainingConfig(epochs=25, batch_size=16, validation_split=0.0,
                                early_stopping_patience=None),
        learning_rate=5e-3,
        seed=0,
    )
    return DeepCsiClassifier(config)


@pytest.fixture(scope="module")
def trained_setup():
    """A classifier trained on modules 0-2 plus held-out and unknown samples."""
    known_train = _make_samples([0, 1, 2], num_per_module=30, seed=1)
    known_test = _make_samples([0, 1, 2], num_per_module=10, seed=2)
    unknown = _make_samples([3, 4], num_per_module=10, seed=3, shift=1.5)
    classifier = _tiny_classifier(num_classes=3)
    classifier.fit(known_train)
    return classifier, known_train, known_test, unknown


class TestOpenSetPolicy:
    def test_invalid_scoring_rejected(self):
        with pytest.raises(OpenSetError):
            OpenSetPolicy(scoring="bogus")

    def test_scores(self, trained_setup):
        classifier, _, known_test, _ = trained_setup
        scores = score_samples(classifier, OpenSetPolicy(), known_test)
        assert scores.shape == (len(known_test),)
        assert np.all((scores > 0.0) & (scores <= 1.0))

    def test_scores_match_the_engine_formula(self, trained_setup):
        """score_samples is score_outputs on one forward's softmax and logits."""
        classifier, known_train, known_test, _ = trained_setup
        logits = classifier.predict_logits(known_test)
        probabilities = classifier.predict_proba(known_test)
        for policy in (
            OpenSetPolicy(scoring="max_softmax"),
            OpenSetPolicy(scoring="negative_entropy"),
            enroll_centroids(classifier, known_train),
        ):
            np.testing.assert_array_equal(
                score_samples(classifier, policy, known_test),
                policy.score_outputs(probabilities, logits),
            )

    def test_empty_sample_list_rejected(self, trained_setup):
        with pytest.raises(OpenSetError):
            score_samples(trained_setup[0], OpenSetPolicy(), [])
        with pytest.raises(OpenSetError):
            enroll_centroids(trained_setup[0], [])

    def test_centroid_scoring_requires_enrolment(self, trained_setup):
        classifier, known_train, known_test, _ = trained_setup
        with pytest.raises(OpenSetError, match="enroll_centroids"):
            OpenSetPolicy(scoring="centroid_distance")
        policy = enroll_centroids(classifier, known_train)
        assert policy.scoring == "centroid_distance"
        assert policy.centroids.shape == (3, 3)
        assert score_samples(classifier, policy, known_test).shape == (len(known_test),)

    def test_known_devices_score_higher_than_unknown(self, trained_setup):
        classifier, known_train, known_test, unknown = trained_setup
        for policy in (
            OpenSetPolicy(scoring="max_softmax"),
            OpenSetPolicy(scoring="negative_entropy"),
            enroll_centroids(classifier, known_train),
        ):
            known_scores = score_samples(classifier, policy, known_test)
            unknown_scores = score_samples(classifier, policy, unknown)
            assert known_scores.mean() > unknown_scores.mean(), policy.scoring

    def test_calibrated_threshold_bounds_false_rejections(self, trained_setup):
        classifier, known_train, known_test, unknown = trained_setup
        policy = OpenSetPolicy()
        threshold = calibrate_threshold(
            score_samples(classifier, policy, known_train), target_false_reject_rate=0.1
        )
        metrics = evaluate_open_set(
            classifier, replace(policy, threshold=threshold), known_test, unknown
        )
        assert metrics.threshold == threshold
        assert metrics.false_reject_rate <= 0.35
        assert 0.0 <= metrics.auroc <= 1.0
        assert metrics.auroc > 0.6

    def test_enrolled_centroids_are_the_class_mean_logits(self, trained_setup):
        classifier, known_train, _, _ = trained_setup
        policy = enroll_centroids(classifier, known_train)
        logits = classifier.predict_logits(known_train)
        labels = np.array([sample.module_id for sample in known_train])
        for cls in range(3):
            np.testing.assert_array_equal(
                policy.centroids[cls], logits[labels == cls].mean(axis=0)
            )
        own_distances = np.linalg.norm(logits - policy.centroids[labels], axis=1)
        assert policy.centroid_scale == np.median(own_distances) + 1e-9
        assert policy.threshold == OpenSetPolicy().threshold

    def test_rates_are_monotone_in_the_threshold(self, trained_setup):
        """Raising the threshold never accepts more impostors or fewer
        enrolled samples' rejections, and leaves the AUROC alone."""
        classifier, _, known_test, unknown = trained_setup
        policy = OpenSetPolicy()
        sweep = [
            evaluate_open_set(
                classifier, replace(policy, threshold=threshold), known_test, unknown
            )
            for threshold in np.linspace(0.3, 1.0, 11)
        ]
        fars = [metrics.false_accept_rate for metrics in sweep]
        frrs = [metrics.false_reject_rate for metrics in sweep]
        assert all(a >= b for a, b in zip(fars[:-1], fars[1:]))
        assert all(a <= b for a, b in zip(frrs[:-1], frrs[1:]))
        assert fars[0] > fars[-1] or frrs[0] < frrs[-1]
        assert len({metrics.auroc for metrics in sweep}) == 1

    def test_far_calibration_bounds_false_accepts(self, trained_setup):
        classifier, known_train, known_test, unknown = trained_setup
        policy = enroll_centroids(classifier, known_train)
        threshold = calibrate_threshold_far(
            score_samples(classifier, policy, unknown), target_false_accept_rate=0.1
        )
        metrics = evaluate_open_set(
            classifier, replace(policy, threshold=threshold), known_test, unknown
        )
        assert metrics.threshold == threshold
        assert metrics.false_accept_rate <= 0.1

    def test_evaluation_requires_both_populations(self, trained_setup):
        classifier, _, known_test, unknown = trained_setup
        policy = OpenSetPolicy()
        with pytest.raises(OpenSetError):
            evaluate_open_set(classifier, policy, [], unknown)
        with pytest.raises(OpenSetError):
            evaluate_open_set(classifier, policy, known_test, [])


class TestCalibrationEdgeCases:
    def test_all_equal_scores_keep_everything_accepted(self):
        """A degenerate single-value score distribution must calibrate to
        that value (acceptance is >=, so nothing enrolled is rejected)."""
        scores = np.full(10, 0.7)
        for target in (0.0, 0.05, 0.5, 0.99):
            threshold = calibrate_threshold(scores, target_false_reject_rate=target)
            assert threshold == pytest.approx(0.7)
            assert np.all(scores >= threshold)

    def test_target_frr_zero_rejects_nothing(self):
        scores = np.array([0.2, 0.5, 0.9, 0.95])
        threshold = calibrate_threshold(scores, target_false_reject_rate=0.0)
        assert threshold == pytest.approx(0.2)
        assert np.all(scores >= threshold)

    def test_target_frr_one_rejected(self):
        for bad_target in (1.0, -0.1, 1.5):
            with pytest.raises(OpenSetError, match="target_false_reject_rate"):
                calibrate_threshold(
                    np.array([0.2, 0.9]), target_false_reject_rate=bad_target
                )

    def test_far_zero_rejects_every_impostor(self):
        scores = np.array([0.3, 0.8, 0.9999])
        threshold = calibrate_threshold_far(scores, target_false_accept_rate=0.0)
        assert threshold > 0.9999
        assert not np.any(scores >= threshold)

    def test_single_enrolled_class_calibration_bounds_rejections(self):
        """Calibrating against one enrolled class (every label identical --
        the degenerate single-population case) must still produce a valid
        threshold that bounds the false rejections."""
        train = _make_samples([0], num_per_module=20, seed=4)
        classifier = _tiny_classifier(num_classes=2)
        classifier.fit(train)
        scores = score_samples(classifier, OpenSetPolicy(), train)
        threshold = calibrate_threshold(scores, target_false_reject_rate=0.1)
        assert 0.0 <= threshold <= 1.0
        assert np.count_nonzero(scores < threshold) <= int(0.1 * len(train))


class TestAurocProperties:
    def test_perfect_separation_scores_one(self):
        assert _auroc(np.array([0.8, 0.9, 0.95]), np.array([0.1, 0.2, 0.3])) == (
            pytest.approx(1.0)
        )

    def test_inverted_separation_scores_zero(self):
        assert _auroc(np.array([0.1, 0.2]), np.array([0.8, 0.9])) == pytest.approx(0.0)

    def test_indistinguishable_populations_score_half(self):
        """All-tied scores must give chance-level AUROC, not 0 or 1."""
        assert _auroc(np.full(3, 0.6), np.full(3, 0.6)) == pytest.approx(0.5)

    def test_auroc_stays_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            assert 0.0 <= _auroc(rng.random(7), rng.random(5)) <= 1.0

    def test_auroc_of_trained_policy_in_bounds(self, trained_setup):
        classifier, _, known_test, unknown = trained_setup
        metrics = evaluate_open_set(classifier, OpenSetPolicy(), known_test, unknown)
        assert 0.0 <= metrics.auroc <= 1.0
