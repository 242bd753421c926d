"""DeepCSI core: the paper's primary contribution.

* :mod:`repro.core.model` -- the DeepCSI CNN architecture of Fig. 4
  (convolution stack, spatial attention, dense head with alpha-dropout).
* :mod:`repro.core.classifier` -- the high-level fingerprinting classifier:
  feature extraction + normalisation + training + inference + persistence.
* :mod:`repro.core.offset_correction` -- the phase-offset cleaning baseline
  the paper compares against (Fig. 16).
* :mod:`repro.core.evaluation` -- accuracy / confusion-matrix utilities and
  textual report rendering.
* :mod:`repro.core.engine` -- the batched streaming inference engine every
  consumer of per-frame classification routes through, and the only code
  that turns traffic into accept/reject decisions (its windowed verdict is
  the only vote).
* :mod:`repro.core.service` -- the sharded multi-worker streaming service:
  a pool of engines behind bounded async ingestion queues, with stable
  source-to-shard routing and aggregated throughput counters.
* :mod:`repro.core.backends` -- the pluggable execution backends of the
  service: in-process worker threads, or worker processes fed through
  shared-memory ring buffers (:mod:`repro.core.transport`).
* :mod:`repro.core.openset` -- the open-set decision rule the engine
  applies (:class:`~repro.core.openset.OpenSetPolicy`) and the functions
  that enrol, calibrate and evaluate it.
* :mod:`repro.core.lifecycle` -- always-on model lifecycle: versioned
  weight snapshots for the zero-downtime swap and the per-source drift
  monitor.

See ``docs/ARCHITECTURE.md`` for the layer diagram and the data flow from
the PHY simulation down to the CLI.
"""

from repro.core.model import DeepCsiModelConfig, build_deepcsi_model, PAPER_MODEL_CONFIG
from repro.core.classifier import DeepCsiClassifier, ClassifierConfig
from repro.core.offset_correction import correct_phase_offsets, correct_sample
from repro.core.evaluation import (
    confusion_matrix,
    accuracy_score,
    per_class_accuracy,
    ClassificationReport,
    evaluate_predictions,
    format_confusion_matrix,
)
from repro.core.engine import (
    UNKNOWN_MODULE_ID,
    EngineResult,
    EngineStats,
    InferenceEngine,
    MajorityVerdict,
)
from repro.core.backends import BACKEND_NAMES
from repro.core.service import (
    ServiceError,
    ServiceStats,
    StreamingService,
    resolve_num_workers,
    shard_for_source,
)
from repro.core.lifecycle import (
    DriftConfig,
    DriftMonitor,
    DriftStatus,
    LifecycleError,
    ModelVersion,
)
from repro.core.openset import (
    OpenSetMetrics,
    OpenSetPolicy,
    calibrate_threshold,
    calibrate_threshold_far,
    enroll_centroids,
    evaluate_open_set,
    score_samples,
)

__all__ = [
    "DeepCsiModelConfig",
    "build_deepcsi_model",
    "PAPER_MODEL_CONFIG",
    "DeepCsiClassifier",
    "ClassifierConfig",
    "correct_phase_offsets",
    "correct_sample",
    "confusion_matrix",
    "accuracy_score",
    "per_class_accuracy",
    "ClassificationReport",
    "evaluate_predictions",
    "format_confusion_matrix",
    "EngineResult",
    "EngineStats",
    "InferenceEngine",
    "MajorityVerdict",
    "UNKNOWN_MODULE_ID",
    "BACKEND_NAMES",
    "ServiceError",
    "ServiceStats",
    "StreamingService",
    "resolve_num_workers",
    "shard_for_source",
    "DriftConfig",
    "DriftMonitor",
    "DriftStatus",
    "LifecycleError",
    "ModelVersion",
    "OpenSetMetrics",
    "OpenSetPolicy",
    "calibrate_threshold",
    "calibrate_threshold_far",
    "enroll_centroids",
    "evaluate_open_set",
    "score_samples",
]
