"""Tests for open-set authentication."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.model import DeepCsiModelConfig
from repro.core.openset import (
    OpenSetAuthenticator,
    OpenSetError,
    calibrate_threshold,
    calibrate_threshold_far,
    evaluate_open_set,
    threshold_sweep,
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


class TestOpenSetAuthenticator:
    def test_invalid_scoring_rejected(self, trained_setup):
        classifier = trained_setup[0]
        with pytest.raises(OpenSetError):
            OpenSetAuthenticator(classifier, scoring="bogus")

    def test_scores_and_decisions(self, trained_setup):
        classifier, _, known_test, _ = trained_setup
        authenticator = OpenSetAuthenticator(classifier, threshold=0.0)
        scores = authenticator.scores(known_test)
        assert scores.shape == (len(known_test),)
        decisions = authenticator.decide(known_test)
        assert all(decision.accepted for decision in decisions)
        assert all(0 <= decision.predicted_module_id < 3 for decision in decisions)

    def test_empty_sample_list_rejected(self, trained_setup):
        authenticator = OpenSetAuthenticator(trained_setup[0])
        with pytest.raises(OpenSetError):
            authenticator.scores([])

    def test_centroid_scoring_requires_enrolment(self, trained_setup):
        classifier, known_train, known_test, _ = trained_setup
        authenticator = OpenSetAuthenticator(classifier, scoring="centroid_distance")
        with pytest.raises(OpenSetError):
            authenticator.scores(known_test)
        authenticator.enroll(known_train)
        assert authenticator.scores(known_test).shape == (len(known_test),)

    def test_known_devices_score_higher_than_unknown(self, trained_setup):
        classifier, known_train, known_test, unknown = trained_setup
        for scoring in ("max_softmax", "negative_entropy", "centroid_distance"):
            authenticator = OpenSetAuthenticator(classifier, scoring=scoring)
            if scoring == "centroid_distance":
                authenticator.enroll(known_train)
            known_scores = authenticator.scores(known_test)
            unknown_scores = authenticator.scores(unknown)
            assert known_scores.mean() > unknown_scores.mean(), scoring

    def test_calibrated_threshold_bounds_false_rejections(self, trained_setup):
        classifier, known_train, known_test, unknown = trained_setup
        authenticator = OpenSetAuthenticator(classifier)
        threshold = calibrate_threshold(
            authenticator, known_train, target_false_reject_rate=0.1
        )
        assert authenticator.threshold == threshold
        metrics = evaluate_open_set(authenticator, known_test, unknown)
        assert metrics.false_reject_rate <= 0.35
        assert 0.0 <= metrics.auroc <= 1.0
        assert metrics.auroc > 0.6

    def test_threshold_sweep_is_monotone(self, trained_setup):
        classifier, _, known_test, unknown = trained_setup
        authenticator = OpenSetAuthenticator(classifier)
        sweep = threshold_sweep(authenticator, known_test, unknown, num_points=11)
        thresholds = sorted(sweep)
        fars = [sweep[t][0] for t in thresholds]
        frrs = [sweep[t][1] for t in thresholds]
        assert all(a >= b for a, b in zip(fars[:-1], fars[1:]))
        assert all(a <= b for a, b in zip(frrs[:-1], frrs[1:]))

    def test_evaluation_requires_both_populations(self, trained_setup):
        classifier, _, known_test, unknown = trained_setup
        authenticator = OpenSetAuthenticator(classifier)
        with pytest.raises(OpenSetError):
            evaluate_open_set(authenticator, [], unknown)
        with pytest.raises(OpenSetError):
            evaluate_open_set(authenticator, known_test, [])


class _StubAuthenticator:
    """Duck-typed authenticator with fully controlled scores.

    ``calibrate_threshold`` / ``evaluate_open_set`` only touch ``scores()``,
    ``threshold`` and (for evaluation) ``classifier.predict``, so a stub lets
    the edge-case tests pin exact score distributions no trained network
    would produce on demand.
    """

    class _StubClassifier:
        def predict(self, samples):
            return np.zeros(len(samples), dtype=np.int64)

    def __init__(self, known_scores, unknown_scores=()):
        self._known = np.asarray(known_scores, dtype=np.float64)
        self._unknown = np.asarray(unknown_scores, dtype=np.float64)
        self.threshold = 0.5
        self.classifier = self._StubClassifier()

    @staticmethod
    def samples(population, count):
        """Marker samples carrying only the module_id the evaluation reads."""
        return [
            SimpleNamespace(module_id=0, population=population)
            for _ in range(count)
        ]

    def scores(self, samples):
        if samples and samples[0].population == "unknown":
            return self._unknown
        return self._known


class TestCalibrationEdgeCases:
    def test_all_equal_scores_keep_everything_accepted(self):
        """A degenerate single-value score distribution must calibrate to
        that value (acceptance is >=, so nothing enrolled is rejected)."""
        stub = _StubAuthenticator([0.7] * 10)
        for target in (0.0, 0.05, 0.5, 0.99):
            threshold = calibrate_threshold(
                stub,
                stub.samples("known", 10),
                target_false_reject_rate=target,
            )
            assert threshold == pytest.approx(0.7)
            assert np.all(stub.scores(stub.samples("known", 10)) >= threshold)

    def test_target_frr_zero_rejects_nothing(self):
        stub = _StubAuthenticator([0.2, 0.5, 0.9, 0.95])
        threshold = calibrate_threshold(
            stub, stub.samples("known", 4), target_false_reject_rate=0.0
        )
        assert threshold == pytest.approx(0.2)
        assert np.all(stub.scores(stub.samples("known", 4)) >= threshold)

    def test_target_frr_one_rejected(self):
        stub = _StubAuthenticator([0.2, 0.9])
        for bad_target in (1.0, -0.1, 1.5):
            with pytest.raises(OpenSetError, match="target_false_reject_rate"):
                calibrate_threshold(
                    stub,
                    stub.samples("known", 2),
                    target_false_reject_rate=bad_target,
                )

    def test_far_zero_rejects_every_impostor(self):
        stub = _StubAuthenticator([0.3, 0.8, 0.9999])
        threshold = calibrate_threshold_far(
            stub, stub.samples("known", 3), target_false_accept_rate=0.0
        )
        assert threshold > 0.9999
        assert not np.any(stub.scores(stub.samples("known", 3)) >= threshold)

    def test_single_enrolled_class_calibration_bounds_rejections(self):
        """Calibrating against one enrolled class (every label identical --
        the degenerate single-population case) must still produce a valid
        threshold that bounds the false rejections."""
        train = _make_samples([0], num_per_module=20, seed=4)
        classifier = _tiny_classifier(num_classes=2)
        classifier.fit(train)
        authenticator = OpenSetAuthenticator(classifier, scoring="max_softmax")
        threshold = calibrate_threshold(
            authenticator, train, target_false_reject_rate=0.1
        )
        assert 0.0 <= threshold <= 1.0
        rejected = sum(
            1 for decision in authenticator.decide(train) if not decision.accepted
        )
        assert rejected <= int(0.1 * len(train))


class TestAurocProperties:
    def test_perfect_separation_scores_one(self):
        stub = _StubAuthenticator([0.8, 0.9, 0.95], [0.1, 0.2, 0.3])
        metrics = evaluate_open_set(
            stub, stub.samples("known", 3), stub.samples("unknown", 3)
        )
        assert metrics.auroc == pytest.approx(1.0)

    def test_inverted_separation_scores_zero(self):
        stub = _StubAuthenticator([0.1, 0.2], [0.8, 0.9])
        metrics = evaluate_open_set(
            stub, stub.samples("known", 2), stub.samples("unknown", 2)
        )
        assert metrics.auroc == pytest.approx(0.0)

    def test_indistinguishable_populations_score_half(self):
        """All-tied scores must give chance-level AUROC, not 0 or 1."""
        stub = _StubAuthenticator([0.6, 0.6, 0.6], [0.6, 0.6, 0.6])
        metrics = evaluate_open_set(
            stub, stub.samples("known", 3), stub.samples("unknown", 3)
        )
        assert metrics.auroc == pytest.approx(0.5)

    def test_auroc_stays_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            stub = _StubAuthenticator(rng.random(7), rng.random(5))
            metrics = evaluate_open_set(
                stub, stub.samples("known", 7), stub.samples("unknown", 5)
            )
            assert 0.0 <= metrics.auroc <= 1.0

    def test_auroc_of_trained_authenticator_in_bounds(self, trained_setup):
        classifier, _, known_test, unknown = trained_setup
        authenticator = OpenSetAuthenticator(classifier, scoring="max_softmax")
        metrics = evaluate_open_set(authenticator, known_test, unknown)
        assert 0.0 <= metrics.auroc <= 1.0
