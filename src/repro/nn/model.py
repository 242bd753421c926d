"""Sequential model container."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Layer
from repro.nn.optimizers import ParameterTriple


class ModelError(ValueError):
    """Raised for invalid model operations."""


@dataclass(frozen=True)
class LayerProfile:
    """Accumulated forward-pass timing of one layer."""

    index: int
    name: str
    calls: int
    total_ns: int

    @property
    def mean_ms(self) -> float:
        """Mean forward time per call, in milliseconds."""
        return self.total_ns / self.calls / 1e6 if self.calls else 0.0


class Sequential:
    """A plain feed-forward stack of layers.

    The model simply chains the layers' ``forward``/``backward`` methods and
    exposes the trainable parameters with qualified names such as
    ``"03_conv/weight"`` so the optimiser can keep per-parameter state.

    Inference forwards can additionally be routed through the float32
    :mod:`compute backend <repro.nn.compute>` (:meth:`set_compute`) and
    timed per layer (:meth:`enable_profiling`); both are inference-only --
    ``forward(training=True)`` always uses the layers' own fp64 math.
    """

    def __init__(self, layers: Optional[Sequence[Layer]] = None) -> None:
        self.layers: List[Layer] = list(layers) if layers is not None else []
        self._compute = None
        self._profiling = False
        self._profile_calls: List[int] = []
        self._profile_ns: List[int] = []

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer and return ``self`` (for chaining)."""
        self.layers.append(layer)
        if self._compute is not None:
            self._compute.prepare(self)
        return self

    # -- compute backend ------------------------------------------------- #
    @property
    def compute(self):
        """The attached compute backend, or ``None`` for the fp64 default."""
        return self._compute

    def set_compute(self, compute):
        """Route inference forwards through the fp32 compute backend.

        ``compute`` is ``"fp32"`` (:class:`~repro.nn.compute.Fp32ArenaBackend`)
        or ``None`` to detach and restore the plain fp64 path.  The backend
        is prepared against the current weights and returned.
        """
        if compute is None:
            self._compute = None
            return None
        from repro.nn.compute import COMPUTE_NAMES, ComputeError, Fp32ArenaBackend

        if compute not in COMPUTE_NAMES:
            raise ComputeError(
                f"unknown compute backend {compute!r}; expected None or one of "
                f"{COMPUTE_NAMES}"
            )
        backend = Fp32ArenaBackend()
        backend.prepare(self)
        self._compute = backend
        return backend

    # -- per-layer profiling --------------------------------------------- #
    def enable_profiling(self) -> None:
        """Accumulate per-layer forward timings (ns + call counts)."""
        self._profiling = True

    def disable_profiling(self) -> None:
        """Stop timing forwards; accumulated counters are kept."""
        self._profiling = False

    def reset_profile(self) -> None:
        """Zero the accumulated per-layer timing counters."""
        self._profile_calls = []
        self._profile_ns = []

    def profile(self) -> Tuple[LayerProfile, ...]:
        """Accumulated per-layer forward timings."""
        return tuple(
            LayerProfile(
                index=index,
                name=layer.name,
                calls=self._profile_calls[index]
                if index < len(self._profile_calls)
                else 0,
                total_ns=self._profile_ns[index]
                if index < len(self._profile_ns)
                else 0,
            )
            for index, layer in enumerate(self.layers)
        )

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full forward pass.

        Training always uses the layers' own fp64 ``forward``; inference
        dispatches through the attached compute backend when one is set.
        """
        if not self.layers:
            raise ModelError("the model has no layers")
        compute = None if training else self._compute
        if self._profiling:
            return self._forward_profiled(x, training, compute)
        out = x
        if compute is None:
            for layer in self.layers:
                out = layer.forward(out, training=training)
            return out
        for index, layer in enumerate(self.layers):
            out = compute.forward_layer(index, layer, out)
        return compute.finalize(out)

    def _forward_profiled(self, x: np.ndarray, training: bool, compute) -> np.ndarray:
        if len(self._profile_calls) < len(self.layers):
            grow = len(self.layers) - len(self._profile_calls)
            self._profile_calls.extend([0] * grow)
            self._profile_ns.extend([0] * grow)
        out = x
        for index, layer in enumerate(self.layers):
            start = time.perf_counter_ns()
            if compute is None:
                out = layer.forward(out, training=training)
            else:
                out = compute.forward_layer(index, layer, out)
            self._profile_ns[index] += time.perf_counter_ns() - start
            self._profile_calls[index] += 1
        return out if compute is None else compute.finalize(out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Run the full backward pass and return the input gradient."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Forward pass in inference mode, processed in mini-batches."""
        if batch_size < 1:
            raise ModelError("batch_size must be >= 1")
        outputs = []
        for start in range(0, len(x), batch_size):
            outputs.append(self.forward(x[start : start + batch_size], training=False))
        return np.concatenate(outputs, axis=0)

    def parameters(self) -> List[ParameterTriple]:
        """All trainable parameters as ``(name, param, grad)`` triples."""
        triples: List[ParameterTriple] = []
        for index, layer in enumerate(self.layers):
            params = layer.parameters()
            grads = layer.gradients()
            for key, value in params.items():
                triples.append((f"{index:02d}_{layer.name}/{key}", value, grads[key]))
        return triples

    @property
    def num_parameters(self) -> int:
        """Total number of trainable scalars in the model."""
        return int(sum(p.size for _, p, _ in self.parameters()))

    def get_weights(self) -> List[np.ndarray]:
        """Copies of every parameter array, in a deterministic order."""
        return [np.array(param, copy=True) for _, param, _ in self.parameters()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        """Load parameter values previously produced by :meth:`get_weights`."""
        triples = self.parameters()
        if len(weights) != len(triples):
            raise ModelError(
                f"expected {len(triples)} weight arrays, got {len(weights)}"
            )
        for (_, param, _), value in zip(triples, weights):
            value = np.asarray(value)
            if value.shape != param.shape:
                raise ModelError(
                    f"weight shape mismatch: expected {param.shape}, got {value.shape}"
                )
            param[...] = value
        if self._compute is not None:
            self._compute.prepare(self)

    def summary(self) -> str:
        """Human-readable description of the model."""
        lines = ["Sequential model"]
        for index, layer in enumerate(self.layers):
            lines.append(f"  [{index:02d}] {layer!r}  params={layer.num_parameters}")
        lines.append(f"Total trainable parameters: {self.num_parameters}")
        return "\n".join(lines)
