"""High-level DeepCSI classifier: samples in, module identities out.

:class:`DeepCsiClassifier` glues the pieces together:

1. feature extraction from the reconstructed ``V~`` matrices
   (:class:`repro.datasets.features.FeatureExtractor`),
2. per-channel standardisation (statistics estimated on the training set),
3. the DeepCSI CNN (:func:`repro.core.model.build_deepcsi_model`),
4. the training loop (:class:`repro.nn.training.Trainer`),
5. persistence of weights and normalisation statistics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.annotations import hot_path
from repro.core.evaluation import ClassificationReport, evaluate_predictions
from repro.core.model import (
    DeepCsiModelConfig,
    PAPER_MODEL_CONFIG,
    build_deepcsi_model,
)
from repro.datasets.containers import FeedbackSample
from repro.datasets.features import (
    FeatureConfig,
    FeatureExtractor,
    apply_normalization,
    normalize_features,
)
from repro.nn.compute import COMPUTE_NAMES
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.serialization import load_weights, save_weights
from repro.nn.training import History, Trainer, TrainingConfig


class ClassifierError(ValueError):
    """Raised for invalid classifier usage."""


def _jsonify(value):
    """Round-trip a config dict through JSON types (tuples become lists)."""
    return json.loads(json.dumps(value))


@dataclass(frozen=True)
class ClassifierConfig:
    """Everything needed to rebuild a :class:`DeepCsiClassifier`.

    Attributes
    ----------
    num_classes:
        Number of Wi-Fi modules the classifier discriminates.
    feature:
        Selection of antennas / streams / sub-carriers used as input.
    model:
        Architecture hyper-parameters.
    training:
        Optimiser-independent training hyper-parameters.
    learning_rate:
        Adam learning rate.
    seed:
        Seed for weight initialisation, shuffling and dropout.
    """

    num_classes: int = 10
    feature: FeatureConfig = field(default_factory=FeatureConfig)
    model: DeepCsiModelConfig = field(default_factory=lambda: PAPER_MODEL_CONFIG)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ClassifierError("num_classes must be >= 2")
        if self.learning_rate <= 0:
            raise ClassifierError("learning_rate must be positive")


class DeepCsiClassifier:
    """Fingerprints a MU-MIMO beamformer from its beamforming feedback."""

    def __init__(self, config: Optional[ClassifierConfig] = None) -> None:
        self.config = config if config is not None else ClassifierConfig()
        self.extractor = FeatureExtractor(self.config.feature)
        self.model: Optional[Sequential] = None
        self._normalization: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._input_shape: Optional[Tuple[int, int, int]] = None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        train_samples: Sequence[FeedbackSample],
        validation_samples: Optional[Sequence[FeedbackSample]] = None,
    ) -> History:
        """Train the classifier on labelled feedback samples."""
        if not train_samples:
            raise ClassifierError("cannot train on an empty sample list")
        features, labels = self.extractor.transform_samples(train_samples)
        self._check_labels(labels)
        features, statistics = normalize_features(features)
        self._normalization = statistics
        self._input_shape = features.shape[1:]

        rng = np.random.default_rng(self.config.seed)
        self.model = build_deepcsi_model(
            self._input_shape,
            self.config.num_classes,
            config=self.config.model,
            rng=rng,
        )
        trainer = Trainer(
            self.model,
            optimizer=Adam(self.config.learning_rate),
            loss=SoftmaxCrossEntropy(),
            config=self.config.training,
        )
        validation_data = None
        if validation_samples:
            val_features, val_labels = self.extractor.transform_samples(
                validation_samples
            )
            self._check_labels(val_labels)
            val_features = apply_normalization(val_features, statistics)
            validation_data = (val_features, val_labels)
        return trainer.fit(features, labels, validation_data=validation_data)

    def _check_labels(self, labels: np.ndarray) -> None:
        if labels.min() < 0 or labels.max() >= self.config.num_classes:
            raise ClassifierError(
                f"module identifiers must be in 0..{self.config.num_classes - 1}"
            )

    def _require_trained(self) -> Sequential:
        if self.model is None or self._normalization is None:
            raise ClassifierError("the classifier has not been trained or loaded yet")
        return self.model

    def _features_of(self, samples: Sequence[FeedbackSample]) -> np.ndarray:
        if not samples:
            raise ClassifierError("the sample list is empty")
        features, _ = self.extractor.transform_samples(samples)
        return apply_normalization(features, self._normalization)

    # ------------------------------------------------------------------ #
    # Compute backend selection
    # ------------------------------------------------------------------ #
    @property
    def compute(self):
        """The compute backend attached to the model (``None`` = plain fp64)."""
        return self.model.compute if self.model is not None else None

    @property
    def compute_name(self) -> str:
        """Name of the active compute backend (``"fp64"`` when none)."""
        backend = self.compute
        return backend.name if backend is not None else "fp64"

    def set_compute(self, compute):
        """Route inference through the fp32 compute backend.

        ``compute`` is ``"fp32"`` or ``None`` to restore the plain fp64
        path; re-selecting the active backend keeps it.  Returns the
        attached backend (or ``None``).
        """
        model = self._require_trained()
        backend = self.compute
        if backend is not None and compute == backend.name:
            return backend
        return model.set_compute(compute)

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict_logits(self, samples: Sequence[FeedbackSample]) -> np.ndarray:
        """Raw classifier logits, shape ``(num_samples, num_classes)``."""
        model = self._require_trained()
        return model.predict(self._features_of(samples))

    def predict_proba(self, samples: Sequence[FeedbackSample]) -> np.ndarray:
        """Softmax probabilities, shape ``(num_samples, num_classes)``."""
        return SoftmaxCrossEntropy.softmax(self.predict_logits(samples))

    def predict(self, samples: Sequence[FeedbackSample]) -> np.ndarray:
        """Predicted module identifier for every sample."""
        return np.argmax(self.predict_logits(samples), axis=1)

    def predict_matrix(self, v_tilde: np.ndarray) -> Tuple[int, float]:
        """Classify a single reconstructed ``V~`` matrix.

        Returns
        -------
        (module_id, confidence):
            The predicted module and its softmax probability.
        """
        ids, confidences = self.predict_matrices(np.asarray(v_tilde)[np.newaxis])
        return int(ids[0]), float(confidences[0])

    @hot_path
    def predict_matrices(self, v_batch: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Classify a pre-stacked batch of reconstructed ``V~`` matrices.

        This is the batched hot path of the streaming inference engine:
        feature extraction, normalisation and the CNN forward all run once
        over the whole ``(B, K, M, N_SS)`` batch.

        Returns
        -------
        (module_ids, confidences):
            Integer module identifiers, shape ``(B,)``, and the softmax
            probability of each winner, shape ``(B,)``.
        """
        v_batch = np.asarray(v_batch)
        if v_batch.ndim != 4:
            raise ClassifierError("v_batch must have shape (B, K, M, N_SS)")
        if v_batch.shape[0] == 0:
            return np.zeros(0, dtype=int), np.zeros(0, dtype=float)
        return self.predict_features(self.extractor.transform_matrices(v_batch))

    @hot_path
    def predict_features(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Classify a batch of already-extracted feature tensors.

        The entry point of the codeword-native preprocessing path: the
        engine extracts features straight from the Givens accumulator
        (:meth:`repro.datasets.features.FeatureExtractor.transform_accumulator`)
        and hands them here without materialising ``V~``.  ``features`` is
        treated as scratch -- it is normalised *in place* (the extractor
        hands over a freshly-built tensor, so this avoids two broadcast
        temporaries per batch).

        Returns
        -------
        (module_ids, confidences):
            Integer module identifiers, shape ``(B,)``, and the softmax
            probability of each winner, shape ``(B,)``.
        """
        _, probabilities = self.predict_features_outputs(features)
        if probabilities.shape[0] == 0:
            return np.zeros(0, dtype=int), np.zeros(0, dtype=float)
        winners = np.argmax(probabilities, axis=1)
        confidences = probabilities[np.arange(probabilities.shape[0]), winners]
        return winners.astype(int), confidences.astype(float)

    @hot_path
    def predict_features_outputs(
        self, features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Raw network outputs for a batch of already-extracted features.

        Same in-place normalisation contract as :meth:`predict_features`, but
        exposes the full ``(logits, probabilities)`` pair so open-set scoring
        rules (max-softmax, entropy, centroid distance over logits) can run
        on the streaming hot path without a second forward pass.
        """
        model = self._require_trained()
        if features.ndim != 4:
            raise ClassifierError("features must have shape (B, Nch, Nrow, Ncol)")
        if features.shape[0] == 0:
            empty = np.zeros((0, self.config.num_classes), dtype=np.float64)
            return empty, empty
        mean, std = self._normalization
        np.subtract(features, mean, out=features)
        np.divide(features, std, out=features)
        logits = model.predict(features)
        return logits, SoftmaxCrossEntropy.softmax(logits)

    def evaluate(
        self, samples: Sequence[FeedbackSample], label: str = ""
    ) -> ClassificationReport:
        """Accuracy and confusion matrix on labelled samples."""
        predictions = self.predict(samples)
        true_labels = np.array([s.module_id for s in samples], dtype=int)
        return evaluate_predictions(
            true_labels, predictions, num_classes=self.config.num_classes, label=label
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, directory: Union[str, Path]) -> Path:
        """Persist weights, normalisation statistics and metadata."""
        model = self._require_trained()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_weights(model, directory / "weights.npz")
        mean, std = self._normalization
        np.savez(directory / "normalization.npz", mean=mean, std=std)
        metadata = {
            "num_classes": self.config.num_classes,
            "compute": self.compute_name,
            "input_shape": list(self._input_shape),
            "seed": self.config.seed,
            "learning_rate": self.config.learning_rate,
            "feature": _jsonify(asdict(self.config.feature)),
            "model": _jsonify(asdict(self.config.model)),
            "training": _jsonify(asdict(self.config.training)),
        }
        (directory / "metadata.json").write_text(json.dumps(metadata, indent=2))
        return directory

    def load(self, directory: Union[str, Path]) -> "DeepCsiClassifier":
        """Restore a classifier previously stored with :meth:`save`.

        The classifier must be constructed with the same
        :class:`ClassifierConfig` that produced the stored weights.  The
        compute backend named in ``metadata.json`` is re-attached.
        """
        directory = Path(directory)
        metadata = json.loads((directory / "metadata.json").read_text())
        if metadata["num_classes"] != self.config.num_classes:
            raise ClassifierError(
                "stored model was trained with a different number of classes"
            )
        compute = metadata.get("compute", "fp64")
        if compute != "fp64" and compute not in COMPUTE_NAMES:
            raise ClassifierError(
                f"stored model was saved with the unsupported compute backend "
                f"{compute!r}; expected 'fp64' or one of {COMPUTE_NAMES}"
            )
        for key, sub_config in (("feature", self.config.feature), ("model", self.config.model)):
            stored = metadata.get(key)
            if stored is not None and stored != _jsonify(asdict(sub_config)):
                raise ClassifierError(
                    f"stored model was trained with a different {key} "
                    f"configuration: {stored} != {_jsonify(asdict(sub_config))}"
                )
        self._input_shape = tuple(metadata["input_shape"])
        rng = np.random.default_rng(self.config.seed)
        self.model = build_deepcsi_model(
            self._input_shape,
            self.config.num_classes,
            config=self.config.model,
            rng=rng,
        )
        load_weights(self.model, directory / "weights.npz")
        with np.load(directory / "normalization.npz") as archive:
            self._normalization = (archive["mean"], archive["std"])
        if compute != "fp64":
            self.model.set_compute(compute)
        return self

    @property
    def num_parameters(self) -> int:
        """Number of trainable parameters of the underlying model."""
        return self._require_trained().num_parameters
