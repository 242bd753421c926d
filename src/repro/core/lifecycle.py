"""Model lifecycle primitives of the always-on streaming service.

An always-on authenticator cannot stop serving to pick up a better model or
to notice that its decision quality is degrading.  This module holds the two
plain-data building blocks the engine/service/backends layers share:

* :class:`ModelVersion` -- an immutable, versioned snapshot of everything a
  shard engine needs to serve a classifier: the weight tensors, the compute
  backend name, and the open-set threshold.
  It serialises to a single ``.npz`` byte blob (:meth:`ModelVersion.to_bytes`)
  so the process backend can ship it over the shared-memory ring as one
  :data:`~repro.core.transport.RECORD_MODEL_SWAP` control record.
* :class:`DriftMonitor` -- per-source EWMA trajectories of the engine's
  known-ness scores.  A fast EWMA tracks the recent trend, a slow EWMA the
  long-term baseline; a source whose recent scores fall a configurable
  fraction below its own baseline is flagged as *drifting* (channel change,
  antenna swap, or an impostor slowly taking over the address).

Both are deliberately free of engine/service imports so every layer
(engine hot path, backend workers, parent-side replicas, CLI reports) can
use them without cycles.
"""

from __future__ import annotations

import io
import json
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.classifier import DeepCsiClassifier


class LifecycleError(RuntimeError):
    """Raised for invalid model-version or drift-monitor usage."""


#: Compute name reported when no compute backend is attached.
_DEFAULT_COMPUTE = "fp64"

#: Archive key of the JSON metadata record inside a serialised version blob.
_META_KEY = "__meta__"

#: Archive key prefix of the weight tensors.
_WEIGHT_PREFIX = "weight/"


@dataclass(frozen=True)
class ModelVersion:
    """Versioned snapshot of a servable classifier.

    Attributes
    ----------
    version:
        Monotonic version number.  Engines refuse to install a version that
        does not increase their current one, which is what makes the
        per-verdict version stamp non-decreasing.
    weights:
        Parameter arrays keyed by their qualified names (the same
        self-describing ``"03_conv/weight"`` names the ``.npz`` weight
        archives use), so installing into a mismatched architecture fails
        loudly instead of silently scrambling layers.
    compute:
        Name of the compute backend the snapshot was serving with
        (``"fp64"`` when none was attached).
    open_set_threshold:
        Open-set rejection threshold bundled with the weights (``None`` keeps
        the engine's current threshold).
    """

    version: int
    weights: Mapping[str, np.ndarray]
    compute: str = _DEFAULT_COMPUTE
    open_set_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.version < 1:
            raise LifecycleError("model versions start at 1")
        if not self.weights:
            raise LifecycleError("a model version must carry weight tensors")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_classifier(
        cls,
        classifier: "DeepCsiClassifier",
        version: int,
        open_set_threshold: Optional[float] = None,
    ) -> "ModelVersion":
        """Snapshot a trained classifier (weights + compute name) as a version."""
        model = classifier.model
        if model is None:
            raise LifecycleError("the classifier has no trained model to snapshot")
        weights = {
            name: np.array(param, copy=True) for name, param, _ in model.parameters()
        }
        return cls(
            version=version,
            weights=weights,
            compute=classifier.compute_name,
            open_set_threshold=open_set_threshold,
        )

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def apply(self, classifier: "DeepCsiClassifier") -> None:
        """Install this version's weights and compute backend into a classifier.

        Validates names and shapes against the live architecture *before*
        touching any tensor, so a mismatched version leaves the classifier
        exactly as it was.  The compute backend is re-attached, prepared
        against the new weights.
        """
        model = classifier.model
        if model is None:
            raise LifecycleError("cannot install a model version into an untrained classifier")
        expected = {name: param for name, param, _ in model.parameters()}
        missing = sorted(set(expected) - set(self.weights))
        unexpected = sorted(set(self.weights) - set(expected))
        if missing or unexpected:
            raise LifecycleError(
                f"model version {self.version} does not match the architecture: "
                f"missing={missing}, unexpected={unexpected}"
            )
        for name, param in expected.items():
            value = np.asarray(self.weights[name])
            if value.shape != param.shape:
                raise LifecycleError(
                    f"model version {self.version} weight {name!r} has shape "
                    f"{value.shape}, expected {param.shape}"
                )
        for name, param in expected.items():
            param[...] = self.weights[name]
        model.set_compute(None if self.compute == _DEFAULT_COMPUTE else self.compute)

    # ------------------------------------------------------------------ #
    # Wire form
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialise to one ``.npz`` blob (the swap record's payload)."""
        meta = {
            "version": self.version,
            "compute": self.compute,
            "open_set_threshold": self.open_set_threshold,
        }
        arrays: Dict[str, np.ndarray] = {
            _META_KEY: np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )
        }
        for name, array in self.weights.items():
            arrays[_WEIGHT_PREFIX + name] = np.asarray(array)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        return buffer.getvalue()

    @classmethod
    def from_bytes(
        cls, blob: bytes, expected_version: Optional[int] = None
    ) -> "ModelVersion":
        """Decode a blob produced by :meth:`to_bytes`.

        ``expected_version`` cross-checks the version the transport record
        header announced against the one embedded in the blob, so a payload
        that was truncated-and-reassembled or paired with the wrong header
        fails loudly instead of installing the wrong weights.
        """
        try:
            with np.load(io.BytesIO(blob)) as archive:
                stored = {name: archive[name] for name in archive.files}
        except Exception as error:
            raise LifecycleError(
                f"truncated or corrupt model-version payload: {error}"
            ) from error
        if _META_KEY not in stored:
            raise LifecycleError("model-version payload has no metadata record")
        meta = json.loads(stored.pop(_META_KEY).tobytes().decode("utf-8"))
        version = int(meta["version"])
        if expected_version is not None and version != expected_version:
            raise LifecycleError(
                f"model-version mismatch: the transport record announced "
                f"version {expected_version} but the payload carries {version}"
            )
        weights = {
            name[len(_WEIGHT_PREFIX):]: array
            for name, array in stored.items()
            if name.startswith(_WEIGHT_PREFIX)
        }
        threshold = meta.get("open_set_threshold")
        return cls(
            version=version,
            weights=weights,
            compute=str(meta.get("compute", _DEFAULT_COMPUTE)),
            open_set_threshold=None if threshold is None else float(threshold),
        )


@dataclass(frozen=True)
class DriftConfig:
    """Hyper-parameters of the per-source drift detector.

    Attributes
    ----------
    alpha:
        Fast-EWMA smoothing factor (weight of the newest score).
    baseline_alpha:
        Slow-EWMA smoothing factor; this trajectory is the source's own
        long-term baseline the fast one is compared against.
    min_samples:
        Observations required before a source may be flagged (stops a noisy
        first handful of frames from tripping the detector).
    relative_drop:
        Flag the source when the fast EWMA falls below
        ``baseline * (1 - relative_drop)``.
    max_sources:
        Bound on tracked sources; beyond it the least-recently-updated
        trajectory is evicted (same policy as the engine's result windows).
    """

    alpha: float = 0.1
    baseline_alpha: float = 0.02
    min_samples: int = 8
    relative_drop: float = 0.25
    max_sources: int = 1024

    def __post_init__(self) -> None:
        for name in ("alpha", "baseline_alpha"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise LifecycleError(f"{name} must be in (0, 1]")
        if self.min_samples < 1:
            raise LifecycleError("min_samples must be >= 1")
        if not 0.0 < self.relative_drop < 1.0:
            raise LifecycleError("relative_drop must be in (0, 1)")
        if self.max_sources < 1:
            raise LifecycleError("max_sources must be >= 1")


@dataclass(frozen=True)
class DriftStatus:
    """Point-in-time drift state of one source.

    Attributes
    ----------
    source:
        Source address of the trajectory.
    samples:
        Number of scores observed for this source.
    score:
        Fast EWMA of the known-ness scores (the recent trend).
    baseline:
        Slow EWMA (the source's own long-term level).
    drifting:
        Whether the recent trend degraded ``relative_drop`` below baseline.
    """

    source: str
    samples: int
    score: float
    baseline: float
    drifting: bool

    @property
    def drop(self) -> float:
        """Fraction the recent trend sits below the baseline (>= 0)."""
        if self.baseline <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.score / self.baseline)


class DriftMonitor:
    """Per-source EWMA score trajectories with degradation flagging.

    Thread-safe: the engine's worker thread feeds :meth:`observe` from the
    batch hot path while stats snapshots read :meth:`snapshot` from the
    service side.  The process backend replays each shard's result stream
    into a parent-side monitor in arrival order, so parent snapshots equal
    the worker's exactly (same floats, same order).
    """

    def __init__(self, config: Optional[DriftConfig] = None) -> None:
        self.config = config if config is not None else DriftConfig()
        # source -> [samples, fast_ewma, slow_ewma]; insertion order doubles
        # as the LRU order (updated sources are re-inserted last).
        self._trajectories: Dict[str, List[float]] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def observe(self, source: str, score: float) -> None:
        """Fold one known-ness score into the source's trajectories."""
        value = float(score)
        config = self.config
        with self._lock:
            state = self._trajectories.pop(source, None)
            if state is None:
                state = [0.0, value, value]
                while len(self._trajectories) >= config.max_sources:
                    self._trajectories.pop(next(iter(self._trajectories)))
            self._trajectories[source] = state
            state[0] += 1.0
            state[1] += config.alpha * (value - state[1])
            state[2] += config.baseline_alpha * (value - state[2])

    def _status(self, source: str, state: List[float]) -> DriftStatus:
        samples = int(state[0])
        fast, slow = state[1], state[2]
        drifting = (
            samples >= self.config.min_samples
            and slow > 0.0
            and fast < slow * (1.0 - self.config.relative_drop)
        )
        return DriftStatus(
            source=source,
            samples=samples,
            score=fast,
            baseline=slow,
            drifting=drifting,
        )

    def status(self, source: str) -> DriftStatus:
        """Drift state of one source (raises if it was never observed)."""
        with self._lock:
            state = self._trajectories.get(source)
            if state is None:
                raise LifecycleError(f"no scores observed for source {source!r} yet")
            return self._status(source, list(state))

    def snapshot(self) -> Tuple[DriftStatus, ...]:
        """Drift state of every tracked source, sorted by source address."""
        with self._lock:
            states = {name: list(state) for name, state in self._trajectories.items()}
        return tuple(
            self._status(name, state) for name, state in sorted(states.items())
        )

    def drifting_sources(self) -> Tuple[str, ...]:
        """Source addresses currently flagged as drifting."""
        return tuple(
            status.source for status in self.snapshot() if status.drifting
        )

    def clear(self) -> None:
        """Forget every trajectory."""
        with self._lock:
            self._trajectories.clear()


__all__ = [
    "DriftConfig",
    "DriftMonitor",
    "DriftStatus",
    "LifecycleError",
    "ModelVersion",
]
