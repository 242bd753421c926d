"""Model lifecycle primitives of the always-on streaming service.

An always-on authenticator cannot stop serving to pick up a better model or
to notice that its decision quality is degrading.  This module holds the two
plain-data building blocks the engine/service/backends layers share:

* :class:`ModelVersion` -- a version number plus the model artifact
  (:meth:`~repro.core.classifier.DeepCsiClassifier.to_bytes`): the whole
  classifier -- weights, normalisation statistics, feature and model
  configuration, trained geometry, compute name -- stamped with that version
  number and, optionally, the open-set policy calibrated for it.  A swap
  installs the classifier it decodes wholesale, and the process backend
  ships the same bytes over the shared-memory ring as one
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
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.classifier import ClassifierError, DeepCsiClassifier, read_model
from repro.core.openset import OpenSetPolicy


class LifecycleError(RuntimeError):
    """Raised for invalid model-version or drift-monitor usage."""


@dataclass(frozen=True)
class ModelVersion:
    """A versioned servable: one model artifact stamped with its version.

    Attributes
    ----------
    version:
        Monotonic version number.  Engines refuse to install a version that
        does not increase their current one, which is what makes the
        per-verdict version stamp non-decreasing.
    blob:
        The :meth:`~repro.core.classifier.DeepCsiClassifier.to_bytes`
        artifact, stamped with ``version`` and, when the version brings one,
        its open-set policy (scoring rule, threshold, centroids and scale).
    """

    version: int
    blob: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if self.version < 1:
            raise LifecycleError("model versions start at 1")

    @classmethod
    def from_classifier(
        cls,
        classifier: DeepCsiClassifier,
        version: int,
        open_set: Optional[OpenSetPolicy] = None,
    ) -> "ModelVersion":
        """Snapshot a trained classifier (and its open-set policy) as a version."""
        try:
            blob = classifier.to_bytes(version=version, open_set=open_set)
        except ClassifierError as error:
            raise LifecycleError(f"cannot snapshot the classifier: {error}") from error
        return cls(version=version, blob=blob)

    def decode(self) -> Tuple[DeepCsiClassifier, Optional[OpenSetPolicy]]:
        """The classifier and open-set policy (``None`` = none) of this version.

        Cross-checks the version stamped in the blob against :attr:`version`
        (the number a transport record header announced), so a payload
        paired with the wrong header fails loudly instead of installing the
        wrong model.
        """
        try:
            classifier, version, open_set = read_model(io.BytesIO(self.blob))
        except ClassifierError as error:
            raise LifecycleError(
                f"truncated or corrupt model-version payload: {error}"
            ) from error
        if version != self.version:
            raise LifecycleError(
                f"model-version mismatch: the transport record announced "
                f"version {self.version} but the payload carries {version}"
            )
        return classifier, open_set


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
