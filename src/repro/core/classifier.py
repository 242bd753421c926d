"""High-level DeepCSI classifier: samples in, module identities out.

:class:`DeepCsiClassifier` glues the pieces together:

1. feature extraction from the reconstructed ``V~`` matrices
   (:class:`repro.datasets.features.FeatureExtractor`),
2. per-channel standardisation (statistics estimated on the training set),
3. the DeepCSI CNN (:func:`repro.core.model.build_deepcsi_model`),
4. the training loop (:class:`repro.nn.training.Trainer`),
5. the model artifact (:meth:`DeepCsiClassifier.to_bytes`): one ``.npz``
   holding everything needed to serve the model again without its config.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO, Optional, Sequence, Tuple, Union

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
from repro.core.openset import OpenSetPolicy
from repro.nn.compute import COMPUTE_NAMES
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.training import History, Trainer, TrainingConfig


class ClassifierError(ValueError):
    """Raised for invalid classifier usage."""


#: File of the model artifact inside a :meth:`DeepCsiClassifier.save` directory.
MODEL_FILE = "model.npz"

#: Archive key of the artifact's JSON metadata record.
_META_KEY = "__meta__"

#: Archive key prefix of the weight tensors.
_WEIGHT_PREFIX = "weight/"

#: Archive key of the open-set policy's enrolled centroids.
_CENTROIDS_KEY = "open_set/centroids"


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
        #: ``(K, M, N_SS)`` of the training ``V~``, recorded by :meth:`fit`.
        self.geometry: Optional[Tuple[int, int, int]] = None

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
        self.geometry = tuple(train_samples[0].v_tilde.shape)

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
        """The model's float32 inference forward (``None`` = the fp64 default)."""
        return self.model.compute if self.model is not None else None

    @property
    def compute_name(self) -> str:
        """Name of the active compute backend (``"fp64"`` when none)."""
        backend = self.compute
        return backend.name if backend is not None else "fp64"

    def set_compute(self, compute):
        """Run inference in float32 (``"fp32"``) or float64 (``None``).

        Re-selecting the active float32 forward keeps it (and its scratch).
        Returns the float32 forward, or ``None``.
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
    # Persistence: the model artifact
    # ------------------------------------------------------------------ #
    def to_bytes(
        self, version: int = 0, open_set: Optional[OpenSetPolicy] = None
    ) -> bytes:
        """Serialise the model as one ``.npz`` blob, the only model format.

        The blob holds the weights, the normalisation statistics, the full
        :class:`ClassifierConfig`, the input shape, the trained ``(K, M,
        N_SS)`` and the compute name, so :func:`read_model` rebuilds the
        classifier without a config.  A served model version also stamps its
        ``version`` number and the ``open_set`` policy calibrated for it.
        """
        model = self._require_trained()
        mean, std = self._normalization
        meta = {
            "config": asdict(self.config),
            "input_shape": list(self._input_shape),
            "geometry": list(self.geometry),
            "compute": self.compute_name,
            "version": int(version),
        }
        arrays = {_WEIGHT_PREFIX + name: param for name, param, _ in model.parameters()}
        arrays["normalization/mean"] = mean
        arrays["normalization/std"] = std
        if open_set is not None:
            meta["open_set"] = {
                "scoring": open_set.scoring,
                "threshold": float(open_set.threshold),
                "centroid_scale": float(open_set.centroid_scale),
            }
            if open_set.centroids is not None:
                arrays[_CENTROIDS_KEY] = open_set.centroids
        arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        return buffer.getvalue()

    def save(self, directory: Union[str, Path]) -> Path:
        """Write the model artifact to ``directory/model.npz``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / MODEL_FILE).write_bytes(self.to_bytes())
        return directory

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DeepCsiClassifier":
        """Rebuild a classifier from a :meth:`to_bytes` blob."""
        return read_model(io.BytesIO(blob))[0]

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "DeepCsiClassifier":
        """Rebuild the classifier :meth:`save` stored in ``directory``.

        The arrays are read from the file, not through a copy of its bytes.
        """
        return read_model(Path(directory) / MODEL_FILE)[0]

    @property
    def num_parameters(self) -> int:
        """Number of trainable parameters of the underlying model."""
        return self._require_trained().num_parameters


def _config_from_json(fields: dict) -> ClassifierConfig:
    """Rebuild a :class:`ClassifierConfig` from its JSON form (lists -> tuples)."""

    def tuples(values: dict) -> dict:
        return {key: tuple(v) if isinstance(v, list) else v for key, v in values.items()}

    return ClassifierConfig(
        num_classes=fields["num_classes"],
        feature=FeatureConfig(**tuples(fields["feature"])),
        model=DeepCsiModelConfig(**tuples(fields["model"])),
        training=TrainingConfig(**tuples(fields["training"])),
        learning_rate=fields["learning_rate"],
        seed=fields["seed"],
    )


def read_model(
    source: Union[Path, BinaryIO],
) -> Tuple[DeepCsiClassifier, int, Optional[OpenSetPolicy]]:
    """Decode a model artifact from a file path or a binary file object.

    Returns the classifier, the version number stamped on the artifact (0 for
    :meth:`DeepCsiClassifier.save`) and its open-set policy (``None`` when it
    carries none).  The arrays are read straight from ``source``.

    Raises
    ------
    ClassifierError
        When ``source`` is not a readable artifact, its weights do not match
        the architecture its configuration builds, or it names an unknown
        compute backend.
    """
    try:
        with np.load(source) as archive:
            meta = json.loads(archive[_META_KEY].tobytes().decode("utf-8"))
            arrays = {name: archive[name] for name in archive.files if name != _META_KEY}
        config = _config_from_json(meta["config"])
        compute = meta["compute"]
        input_shape = tuple(meta["input_shape"])
        geometry = tuple(meta["geometry"])
        normalization = (arrays["normalization/mean"], arrays["normalization/std"])
        version = int(meta["version"])
        policy = meta.get("open_set")
        open_set = (
            None
            if policy is None
            else OpenSetPolicy(centroids=arrays.get(_CENTROIDS_KEY), **policy)
        )
    except Exception as error:
        # Corrupt bytes surface from zipfile/np.load as BadZipFile, EOFError,
        # NotImplementedError, ValueError or KeyError; a swap must refuse
        # them all with one error and keep serving.
        raise ClassifierError(f"not a readable model artifact: {error}") from error
    if compute != "fp64" and compute not in COMPUTE_NAMES:
        raise ClassifierError(
            f"the model artifact names the unsupported compute backend "
            f"{compute!r}; expected 'fp64' or one of {COMPUTE_NAMES}"
        )
    # Every parameter is overwritten below, so nothing is drawn for it.
    model = build_deepcsi_model(
        input_shape,
        config.num_classes,
        config=config.model,
        rng=np.random.default_rng(config.seed),
        initializer="zeros",
    )
    expected = {name: param for name, param, _ in model.parameters()}
    stored = {
        name[len(_WEIGHT_PREFIX):]: array
        for name, array in arrays.items()
        if name.startswith(_WEIGHT_PREFIX)
    }
    missing = sorted(set(expected) - set(stored))
    unexpected = sorted(set(stored) - set(expected))
    if missing or unexpected:
        raise ClassifierError(
            f"the artifact's weights do not match its architecture: "
            f"missing={missing}, unexpected={unexpected}"
        )
    for name, param in expected.items():
        if stored[name].shape != param.shape:
            raise ClassifierError(
                f"shape mismatch for {name!r}: expected {param.shape}, "
                f"got {stored[name].shape}"
            )
        param[...] = stored[name]
    if compute != "fp64":
        model.set_compute(compute)
    classifier = DeepCsiClassifier(config)
    classifier.model = model
    classifier._normalization = normalization
    classifier._input_shape = input_shape
    classifier.geometry = geometry
    return classifier, version, open_set
