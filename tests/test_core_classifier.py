"""Tests for the high-level DeepCSI classifier and the evaluation helpers."""

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, ClassifierError, DeepCsiClassifier
from repro.core.evaluation import (
    ClassificationReport,
    EvaluationError,
    accuracy_score,
    confusion_matrix,
    evaluate_predictions,
    format_confusion_matrix,
    normalize_confusion,
    per_class_accuracy,
)
from repro.core.model import DeepCsiModelConfig
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.datasets.splits import D1_SPLITS, d1_split
from repro.nn.training import TrainingConfig

#: Minimal architecture / training setup shared by the classifier tests.
TINY_MODEL = DeepCsiModelConfig(
    num_filters=8,
    kernel_widths=(5, 3),
    pool_width=2,
    dense_units=(16,),
    dropout_retain=(0.8,),
    attention_kernel_width=3,
)


def tiny_classifier(num_classes=3, epochs=6, seed=0):
    feature = FeatureConfig(
        stream_indices=(0,), subcarrier_positions=strided_subcarriers(234, 8)
    )
    training = TrainingConfig(
        epochs=epochs, batch_size=16, validation_split=0.2,
        early_stopping_patience=None, seed=seed,
    )
    config = ClassifierConfig(
        num_classes=num_classes,
        feature=feature,
        model=TINY_MODEL,
        training=training,
        learning_rate=3e-3,
        seed=seed,
    )
    return DeepCsiClassifier(config)


@pytest.fixture(scope="module")
def d1_train_test(tiny_d1):
    return d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)


class TestDeepCsiClassifier:
    def test_fit_learns_the_tiny_dataset(self, d1_train_test):
        train, test = d1_train_test
        classifier = tiny_classifier()
        history = classifier.fit(train)
        assert history.num_epochs >= 1
        report = classifier.evaluate(test)
        # Three classes, chance level 1/3: the tiny model must do clearly
        # better than chance on the easy S1 split.
        assert report.accuracy > 0.6

    def test_predictions_have_expected_shapes(self, d1_train_test):
        train, test = d1_train_test
        classifier = tiny_classifier()
        classifier.fit(train)
        subset = test[:10]
        labels = classifier.predict(subset)
        probabilities = classifier.predict_proba(subset)
        assert labels.shape == (10,)
        assert probabilities.shape == (10, 3)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-6)

    def test_predict_matrix_returns_confidence(self, d1_train_test):
        train, test = d1_train_test
        classifier = tiny_classifier()
        classifier.fit(train)
        module_id, confidence = classifier.predict_matrix(test[0].v_tilde)
        assert 0 <= module_id < 3
        assert 0.0 <= confidence <= 1.0

    def test_save_and_load_preserve_predictions(self, d1_train_test, tmp_path):
        train, test = d1_train_test
        classifier = tiny_classifier()
        classifier.fit(train)
        expected = classifier.predict(test[:8])
        classifier.save(tmp_path / "model")

        restored = tiny_classifier()
        restored.load(tmp_path / "model")
        np.testing.assert_array_equal(restored.predict(test[:8]), expected)

    def test_load_with_wrong_class_count_rejected(self, d1_train_test, tmp_path):
        train, _ = d1_train_test
        classifier = tiny_classifier()
        classifier.fit(train)
        classifier.save(tmp_path / "model")
        wrong = tiny_classifier(num_classes=4)
        with pytest.raises(ClassifierError):
            wrong.load(tmp_path / "model")

    def test_save_persists_the_full_configuration(self, d1_train_test, tmp_path):
        import json

        train, _ = d1_train_test
        classifier = tiny_classifier()
        classifier.fit(train)
        classifier.save(tmp_path / "model")
        metadata = json.loads((tmp_path / "model" / "metadata.json").read_text())
        assert metadata["model"]["num_filters"] == TINY_MODEL.num_filters
        assert tuple(metadata["model"]["kernel_widths"]) == TINY_MODEL.kernel_widths
        assert metadata["feature"]["stream_indices"] == [0]
        assert metadata["training"]["batch_size"] == 16

    def test_load_with_wrong_architecture_rejected(self, d1_train_test, tmp_path):
        train, _ = d1_train_test
        classifier = tiny_classifier()
        classifier.fit(train)
        classifier.save(tmp_path / "model")

        other_model = DeepCsiModelConfig(
            num_filters=4,
            kernel_widths=(3,),
            pool_width=2,
            dense_units=(8,),
            dropout_retain=(0.9,),
            attention_kernel_width=3,
        )
        wrong = DeepCsiClassifier(
            ClassifierConfig(
                num_classes=3,
                feature=classifier.config.feature,
                model=other_model,
                training=classifier.config.training,
            )
        )
        with pytest.raises(ClassifierError, match="model"):
            wrong.load(tmp_path / "model")

    def test_load_with_wrong_feature_selection_rejected(
        self, d1_train_test, tmp_path
    ):
        train, _ = d1_train_test
        classifier = tiny_classifier()
        classifier.fit(train)
        classifier.save(tmp_path / "model")

        wrong = DeepCsiClassifier(
            ClassifierConfig(
                num_classes=3,
                feature=FeatureConfig(
                    stream_indices=(1,),
                    subcarrier_positions=strided_subcarriers(234, 8),
                ),
                model=TINY_MODEL,
                training=classifier.config.training,
            )
        )
        with pytest.raises(ClassifierError, match="feature"):
            wrong.load(tmp_path / "model")

    def test_untrained_classifier_refuses_to_predict(self, d1_train_test):
        _, test = d1_train_test
        classifier = tiny_classifier()
        with pytest.raises(ClassifierError):
            classifier.predict(test[:2])

    def test_empty_training_set_rejected(self):
        with pytest.raises(ClassifierError):
            tiny_classifier().fit([])

    def test_out_of_range_labels_rejected(self, d1_train_test):
        train, _ = d1_train_test
        classifier = tiny_classifier(num_classes=2)  # dataset has 3 modules
        with pytest.raises(ClassifierError):
            classifier.fit(train)

    def test_invalid_config_rejected(self):
        with pytest.raises(ClassifierError):
            ClassifierConfig(num_classes=1)
        with pytest.raises(ClassifierError):
            ClassifierConfig(learning_rate=0.0)


class TestEvaluation:
    def test_confusion_matrix_counts(self):
        matrix = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2], num_classes=3)
        expected = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        np.testing.assert_array_equal(matrix, expected)

    def test_confusion_matrix_infers_class_count(self):
        matrix = confusion_matrix([0, 3], [3, 0])
        assert matrix.shape == (4, 4)

    def test_normalised_rows_sum_to_one(self):
        matrix = confusion_matrix([0, 0, 1], [0, 1, 1], num_classes=3)
        normalised = normalize_confusion(matrix)
        np.testing.assert_allclose(normalised[:2].sum(axis=1), 1.0)
        np.testing.assert_allclose(normalised[2], 0.0)

    def test_accuracy_and_per_class_accuracy(self):
        true = [0, 0, 1, 1, 2]
        pred = [0, 1, 1, 1, 0]
        assert accuracy_score(true, pred) == pytest.approx(3 / 5)
        matrix = confusion_matrix(true, pred, num_classes=3)
        np.testing.assert_allclose(per_class_accuracy(matrix), [0.5, 1.0, 0.0])

    def test_evaluate_predictions_builds_report(self):
        report = evaluate_predictions([0, 1, 1], [0, 1, 0], num_classes=2, label="unit")
        assert isinstance(report, ClassificationReport)
        assert report.num_samples == 3
        assert "unit" in str(report)

    def test_format_confusion_matrix_mentions_every_class(self):
        matrix = confusion_matrix([0, 1, 2], [0, 1, 2], num_classes=3)
        text = format_confusion_matrix(matrix)
        assert text.count("1.00") == 3

    def test_invalid_inputs_rejected(self):
        with pytest.raises(EvaluationError):
            confusion_matrix([0, 1], [0], num_classes=2)
        with pytest.raises(EvaluationError):
            confusion_matrix([0, 5], [0, 1], num_classes=2)
        with pytest.raises(EvaluationError):
            accuracy_score([], [])

    @pytest.mark.parametrize(
        "true, pred",
        [([], []), ([-1, 0], [0, 0]), ([0, 1], [0, -1]), ([0, 1], [0, 2])],
    )
    def test_confusion_matrix_rejects_empty_negative_and_out_of_range_labels(
        self, true, pred
    ):
        with pytest.raises(EvaluationError):
            confusion_matrix(true, pred, num_classes=2)

    def test_accuracy_rejects_mismatched_shapes(self):
        with pytest.raises(EvaluationError):
            accuracy_score([0, 1, 2], [0, 1])

    def test_perfect_predictions_give_a_diagonal_matrix(self):
        labels = [2, 0, 1, 1, 2, 2]
        matrix = confusion_matrix(labels, labels)
        np.testing.assert_array_equal(matrix, np.diag([1, 2, 3]))
        assert accuracy_score(labels, labels) == 1.0
        np.testing.assert_array_equal(per_class_accuracy(matrix), [1.0, 1.0, 1.0])

    def test_confusion_counts_sum_to_the_number_of_samples(self, rng):
        true = rng.integers(0, 5, size=200)
        pred = rng.integers(0, 5, size=200)
        matrix = confusion_matrix(true, pred, num_classes=5)
        assert matrix.sum() == 200
        np.testing.assert_array_equal(matrix.sum(axis=1), np.bincount(true, minlength=5))
        np.testing.assert_array_equal(matrix.sum(axis=0), np.bincount(pred, minlength=5))
        assert np.trace(matrix) / 200 == pytest.approx(accuracy_score(true, pred))

    def test_normalising_an_empty_matrix_gives_zeros_silently(self):
        with np.errstate(all="raise"):
            normalised = normalize_confusion(np.zeros((3, 3), dtype=int))
        np.testing.assert_array_equal(normalised, 0.0)

    def test_report_per_class_accuracy_and_unlabelled_header(self):
        report = evaluate_predictions([0, 0, 1, 1], [0, 1, 1, 1], num_classes=2)
        assert report.accuracy == pytest.approx(0.75)
        np.testing.assert_allclose(report.per_class_accuracy, [0.5, 1.0])
        assert str(report).startswith("accuracy 75.00% over 4 samples\n")

    def test_format_raw_counts_without_normalising(self):
        matrix = confusion_matrix([0, 0, 0, 1], [0, 0, 1, 1], num_classes=2)
        lines = format_confusion_matrix(matrix, normalise=False).splitlines()
        assert len(lines) == 4
        assert lines[2].split("|")[1].split() == ["2.00", "1.00"]
        assert lines[3].split("|")[1].split() == ["0.00", "1.00"]
