"""Tests for losses, optimisers and initialisers."""

import numpy as np
import pytest

from repro.nn.initializers import get_initializer, glorot_uniform, he_normal, lecun_normal
from repro.nn.losses import LossError, MeanSquaredError, SoftmaxCrossEntropy, accuracy
from repro.nn.optimizers import SGD, Adam, OptimizerError
from tests.gradcheck import numerical_gradient


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_num_classes(self):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((4, 10))
        labels = np.arange(4) % 10
        assert loss.forward(logits, labels) == pytest.approx(np.log(10))

    def test_perfect_prediction_gives_near_zero_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.full((3, 5), -50.0)
        labels = np.array([0, 2, 4])
        logits[np.arange(3), labels] = 50.0
        assert loss.forward(logits, labels) < 1e-6

    def test_gradient_matches_finite_differences(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)
        loss.forward(logits, labels)
        analytic = loss.backward()
        numerical = numerical_gradient(lambda x: loss.forward(x, labels), logits.copy())
        np.testing.assert_allclose(analytic, numerical, rtol=1e-4, atol=1e-7)

    def test_label_smoothing_softens_targets(self, rng):
        logits = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        plain = SoftmaxCrossEntropy().forward(logits, labels)
        smoothed = SoftmaxCrossEntropy(label_smoothing=0.2).forward(logits, labels)
        assert smoothed != pytest.approx(plain)

    def test_invalid_inputs_rejected(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(LossError):
            loss.forward(np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(LossError):
            loss.forward(np.zeros((2, 2)), np.array([0, 5]))
        with pytest.raises(LossError):
            loss.backward()
        with pytest.raises(LossError):
            SoftmaxCrossEntropy(label_smoothing=1.5)

    def test_softmax_is_stable_for_large_logits(self):
        probabilities = SoftmaxCrossEntropy.softmax(np.array([[1e4, 0.0, -1e4]]))
        assert np.isfinite(probabilities).all()
        assert probabilities[0, 0] == pytest.approx(1.0)

    def test_accuracy_helper(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert accuracy(logits, np.array([1, 0])) == 1.0
        assert accuracy(logits, np.array([0, 0])) == 0.5


class TestMeanSquaredError:
    def test_value_and_gradient(self, rng):
        loss = MeanSquaredError()
        predictions = rng.standard_normal((4, 3))
        targets = rng.standard_normal((4, 3))
        value = loss.forward(predictions, targets)
        assert value == pytest.approx(np.mean((predictions - targets) ** 2))
        numerical = numerical_gradient(lambda p: loss.forward(p, targets), predictions.copy())
        loss.forward(predictions, targets)
        np.testing.assert_allclose(loss.backward(), numerical, rtol=1e-5, atol=1e-8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LossError):
            MeanSquaredError().forward(np.zeros((2, 2)), np.zeros((3, 2)))


class TestOptimizers:
    @staticmethod
    def _quadratic_descent(optimizer, start=5.0, steps=200):
        """Minimise f(x) = x^2 with the given optimiser; return the final x."""
        param = np.array([start])
        grad = np.zeros_like(param)
        for _ in range(steps):
            grad[...] = 2.0 * param
            optimizer.step([("x", param, grad)])
        return float(param[0])

    def test_sgd_converges_on_quadratic(self):
        assert abs(self._quadratic_descent(SGD(learning_rate=0.1))) < 1e-3

    def test_sgd_momentum_converges_faster_than_plain(self):
        plain = abs(self._quadratic_descent(SGD(learning_rate=0.01), steps=60))
        momentum = abs(
            self._quadratic_descent(SGD(learning_rate=0.01, momentum=0.9), steps=60)
        )
        assert momentum < plain

    def test_adam_converges_on_quadratic(self):
        assert abs(self._quadratic_descent(Adam(learning_rate=0.2))) < 1e-2

    def test_weight_decay_shrinks_parameters_without_gradient(self):
        optimizer = SGD(learning_rate=0.1, weight_decay=0.5)
        param = np.array([2.0])
        for _ in range(10):
            optimizer.step([("x", param, np.zeros_like(param))])
        assert abs(param[0]) < 2.0

    def test_state_is_kept_per_parameter_name(self):
        optimizer = Adam(learning_rate=0.1)
        a, b = np.array([1.0]), np.array([1.0])
        optimizer.step([("a", a, np.array([1.0])), ("b", b, np.array([-1.0]))])
        optimizer.step([("a", a, np.array([1.0])), ("b", b, np.array([-1.0]))])
        assert a[0] < 1.0 < b[0]

    def test_reset_clears_state(self):
        optimizer = SGD(learning_rate=0.1, momentum=0.9)
        param = np.array([1.0])
        optimizer.step([("x", param, np.array([1.0]))])
        optimizer.reset()
        assert optimizer._state == {}

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SGD(learning_rate=0.0),
            lambda: SGD(learning_rate=0.1, momentum=1.5),
            lambda: Adam(learning_rate=0.1, beta1=1.0),
            lambda: Adam(learning_rate=0.1, epsilon=0.0),
            lambda: SGD(learning_rate=0.1, weight_decay=-1.0),
        ],
    )
    def test_invalid_configurations_rejected(self, factory):
        with pytest.raises(OptimizerError):
            factory()


class TestInitializers:
    def test_lecun_normal_variance(self):
        rng = np.random.default_rng(0)
        weights = lecun_normal((1000, 50), rng)
        assert weights.std() == pytest.approx(np.sqrt(1.0 / 1000), rel=0.1)

    def test_he_normal_variance(self):
        rng = np.random.default_rng(0)
        weights = he_normal((1000, 50), rng)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.1)

    def test_glorot_uniform_bounds(self):
        rng = np.random.default_rng(0)
        weights = glorot_uniform((100, 100), rng)
        limit = np.sqrt(6.0 / 200)
        assert np.all(np.abs(weights) <= limit)

    def test_conv_kernel_fan_in_uses_receptive_field(self):
        rng = np.random.default_rng(0)
        weights = lecun_normal((64, 16, 1, 7), rng)
        assert weights.std() == pytest.approx(np.sqrt(1.0 / (16 * 7)), rel=0.1)

    def test_lookup_by_name(self):
        assert get_initializer("lecun_normal") is lecun_normal
        with pytest.raises(ValueError):
            get_initializer("unknown")

    def test_glorot_limit_uses_fan_in_plus_fan_out(self):
        rng = np.random.default_rng(0)
        weights = glorot_uniform((40, 360), rng)
        limit = np.sqrt(6.0 / 400)
        assert np.all(np.abs(weights) <= limit)
        assert np.abs(weights).max() > 0.95 * limit

    def test_vector_shape_uses_its_length_as_fan_in(self):
        rng = np.random.default_rng(0)
        weights = he_normal((5000,), rng)
        assert weights.shape == (5000,)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 5000), rel=0.1)

    @pytest.mark.parametrize("shape", [(), (3, 4, 5), (2, 3, 4, 5, 6)])
    def test_unsupported_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            lecun_normal(shape, np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["lecun_normal", "he_normal", "glorot_uniform"])
    def test_random_schemes_are_deterministic_in_the_generator(self, name):
        init = get_initializer(name)
        first = init((6, 4), np.random.default_rng(3))
        np.testing.assert_array_equal(first, init((6, 4), np.random.default_rng(3)))
        assert not np.array_equal(first, init((6, 4), np.random.default_rng(4)))

    def test_zeros_ignores_the_generator(self):
        weights = get_initializer("zeros")((3, 2))
        assert weights.shape == (3, 2)
        np.testing.assert_array_equal(weights, 0.0)
