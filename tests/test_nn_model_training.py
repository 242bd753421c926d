"""Tests for the Sequential container and the training loop."""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, Relu, Selu
from repro.nn.model import ModelError, Sequential
from repro.nn.optimizers import Adam, SGD
from repro.nn.training import History, Trainer, TrainingConfig, TrainingError


def make_mlp(seed=0, in_features=8, num_classes=3):
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Dense(in_features, 16, rng=rng, name="hidden"),
            Selu(),
            Dense(16, num_classes, rng=rng, name="out"),
        ]
    )


def make_blobs(rng, num_samples=300, num_classes=3, num_features=8, separation=3.0):
    """Linearly separable Gaussian blobs."""
    centers = rng.standard_normal((num_classes, num_features)) * separation
    labels = rng.integers(0, num_classes, size=num_samples)
    features = centers[labels] + rng.standard_normal((num_samples, num_features))
    return features, labels


class TestSequential:
    def test_forward_chains_layers(self, rng):
        model = make_mlp()
        x = rng.standard_normal((5, 8))
        out = model.forward(x)
        assert out.shape == (5, 3)

    def test_parameters_have_unique_names(self):
        model = make_mlp()
        names = [name for name, _, _ in model.parameters()]
        assert len(names) == len(set(names)) == 4  # two Dense layers x (w, b)

    def test_num_parameters(self):
        model = make_mlp()
        assert model.num_parameters == (8 * 16 + 16) + (16 * 3 + 3)

    def test_get_set_weights_roundtrip(self, rng):
        model = make_mlp(seed=0)
        other = make_mlp(seed=1)
        x = rng.standard_normal((4, 8))
        assert not np.allclose(model.forward(x), other.forward(x))
        other.set_weights(model.get_weights())
        np.testing.assert_allclose(model.forward(x), other.forward(x))

    def test_set_weights_shape_mismatch_rejected(self):
        model = make_mlp()
        weights = model.get_weights()
        weights[0] = weights[0][:, :2]
        with pytest.raises(ModelError):
            model.set_weights(weights)

    def test_predict_batches_match_single_pass(self, rng):
        model = make_mlp()
        x = rng.standard_normal((23, 8))
        np.testing.assert_allclose(model.predict(x, batch_size=5), model.forward(x))

    def test_empty_model_rejected(self, rng):
        with pytest.raises(ModelError):
            Sequential().forward(rng.standard_normal((2, 2)))

    def test_summary_mentions_every_layer(self):
        model = make_mlp()
        summary = model.summary()
        assert "Dense" in summary
        assert "Total trainable parameters" in summary

    def test_backward_through_cnn_stack(self, rng):
        model = Sequential(
            [
                Conv2D(2, 4, (1, 3), rng=np.random.default_rng(0)),
                Relu(),
                MaxPool2D((1, 2)),
                Flatten(),
                Dense(4 * 1 * 4, 2, rng=np.random.default_rng(0)),
            ]
        )
        x = rng.standard_normal((3, 2, 1, 8))
        out = model.forward(x, training=True)
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.shape == x.shape


class TestTrainer:
    def test_learns_separable_blobs(self, rng):
        features, labels = make_blobs(np.random.default_rng(0))
        model = make_mlp(seed=2)
        trainer = Trainer(
            model,
            optimizer=Adam(1e-2),
            config=TrainingConfig(epochs=30, batch_size=32, validation_split=0.2,
                                  early_stopping_patience=None, seed=0),
        )
        history = trainer.fit(features, labels)
        assert history.train_accuracy[-1] > 0.95
        assert history.best_val_accuracy > 0.9

    def test_loss_decreases_over_epochs(self):
        features, labels = make_blobs(np.random.default_rng(1))
        model = make_mlp(seed=3)
        trainer = Trainer(
            model,
            optimizer=SGD(learning_rate=0.05),
            config=TrainingConfig(epochs=10, validation_split=0.0,
                                  early_stopping_patience=None, seed=0),
        )
        history = trainer.fit(features, labels)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_explicit_validation_data_is_used(self):
        features, labels = make_blobs(np.random.default_rng(2), num_samples=200)
        model = make_mlp(seed=4)
        trainer = Trainer(model, config=TrainingConfig(epochs=3, seed=0,
                                                       early_stopping_patience=None))
        history = trainer.fit(
            features[:150], labels[:150], validation_data=(features[150:], labels[150:])
        )
        assert len(history.val_accuracy) == history.num_epochs

    def test_early_stopping_halts_training(self):
        # Random labels cannot be generalised, so validation loss stalls and
        # early stopping must trigger before the epoch budget is exhausted.
        rng = np.random.default_rng(3)
        features = rng.standard_normal((120, 8))
        labels = rng.integers(0, 3, size=120)
        model = make_mlp(seed=5)
        trainer = Trainer(
            model,
            optimizer=Adam(1e-2),
            config=TrainingConfig(epochs=60, batch_size=16, validation_split=0.3,
                                  early_stopping_patience=2, seed=0),
        )
        history = trainer.fit(features, labels)
        assert history.num_epochs < 60

    def test_evaluate_returns_loss_and_accuracy(self):
        features, labels = make_blobs(np.random.default_rng(4), num_samples=100)
        model = make_mlp(seed=6)
        trainer = Trainer(model, config=TrainingConfig(epochs=5, seed=0,
                                                       early_stopping_patience=None))
        trainer.fit(features, labels)
        loss, acc = trainer.evaluate(features, labels)
        assert loss >= 0.0
        assert 0.0 <= acc <= 1.0

    def test_predict_labels_shape(self):
        features, labels = make_blobs(np.random.default_rng(5), num_samples=50)
        model = make_mlp(seed=7)
        trainer = Trainer(model, config=TrainingConfig(epochs=2, seed=0,
                                                       early_stopping_patience=None))
        trainer.fit(features, labels)
        predictions = trainer.predict_labels(features)
        assert predictions.shape == labels.shape

    def test_mismatched_inputs_rejected(self):
        model = make_mlp()
        trainer = Trainer(model)
        with pytest.raises(TrainingError):
            trainer.fit(np.zeros((4, 8)), np.zeros(5, dtype=int))
        with pytest.raises(TrainingError):
            trainer.evaluate(np.zeros((0, 8)), np.zeros(0, dtype=int))

    def test_invalid_config_rejected(self):
        with pytest.raises(TrainingError):
            TrainingConfig(epochs=0)
        with pytest.raises(TrainingError):
            TrainingConfig(validation_split=1.0)
        with pytest.raises(TrainingError):
            TrainingConfig(early_stopping_patience=0)

    def test_history_as_dict(self):
        history = History(train_loss=[1.0], train_accuracy=[0.5])
        exported = history.as_dict()
        assert exported["train_loss"] == [1.0]
        assert np.isnan(history.best_val_accuracy)
