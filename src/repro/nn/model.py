"""Sequential model container.

Training chains the layers' own ``forward``/``backward`` math.  Every
inference forward runs the model's :class:`~repro.nn.compute.ArenaForward`,
float64 by default and float32 after ``set_compute("fp32")``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.compute import COMPUTE_NAMES, ArenaForward, ComputeError
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

    Inference runs the :mod:`arena forward <repro.nn.compute>`, in float64
    unless :meth:`set_compute` selects float32; ``forward(training=True)``
    always uses the layers' own fp64 math.  Both can be timed per layer
    (:meth:`enable_profiling`).
    """

    def __init__(self, layers: Optional[Sequence[Layer]] = None) -> None:
        self.layers: List[Layer] = list(layers) if layers is not None else []
        self._forward = ArenaForward(np.float64)
        self._profiling = False
        self._profile_calls: List[int] = []
        self._profile_ns: List[int] = []

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer and return ``self`` (for chaining)."""
        self.layers.append(layer)
        self._forward.reset()
        return self

    # -- compute backend ------------------------------------------------- #
    @property
    def compute(self):
        """The float32 inference forward, or ``None`` for the fp64 default."""
        return self._forward if self._forward.name == "fp32" else None

    def set_compute(self, compute):
        """Run inference forwards in float32 (``"fp32"``) or float64 (``None``).

        Returns the float32 :class:`~repro.nn.compute.ArenaForward`, or
        ``None`` for float64.
        """
        if compute is not None and compute not in COMPUTE_NAMES:
            raise ComputeError(
                f"unknown compute backend {compute!r}; expected None or one of "
                f"{COMPUTE_NAMES}"
            )
        self._forward = ArenaForward(np.float64 if compute is None else np.float32)
        return self.compute

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
        """Accumulated per-layer forward timings.

        An inference forward runs a ``Conv2D`` followed by ``Selu`` and
        ``MaxPool2D`` as one step (:meth:`ArenaForward.steps
        <repro.nn.compute.ArenaForward.steps>`): its time is its conv's
        entry, and its ``Selu`` and ``MaxPool2D`` entries record no calls.
        """
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

        Training chains the layers' own ``forward``; inference runs the
        arena forward and returns an array it no longer touches.
        """
        if not self.layers:
            raise ModelError("the model has no layers")
        forward = self._forward
        steps = enumerate(self.layers) if training else forward.steps(self.layers)
        step = _training_step if training else forward.forward_layer
        if self._profiling:
            out = self._forward_profiled(x, steps, step)
        else:
            out = x
            for index, layer in steps:
                out = step(index, layer, out)
        return out if training else forward.finalize(out)

    def _forward_profiled(self, x: np.ndarray, steps, step) -> np.ndarray:
        if len(self._profile_calls) < len(self.layers):
            grow = len(self.layers) - len(self._profile_calls)
            self._profile_calls.extend([0] * grow)
            self._profile_ns.extend([0] * grow)
        out = x
        for index, layer in steps:
            start = time.perf_counter_ns()
            out = step(index, layer, out)
            self._profile_ns[index] += time.perf_counter_ns() - start
            self._profile_calls[index] += 1
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Run the full backward pass and return the input gradient."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def predict(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Forward pass in inference mode, processed in mini-batches.

        The bits do not depend on ``batch_size``; it sets the scratch the
        arena forward keeps for the calling thread.
        """
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
        self._forward.reset()

    def summary(self) -> str:
        """Human-readable description of the model."""
        lines = ["Sequential model"]
        for index, layer in enumerate(self.layers):
            lines.append(f"  [{index:02d}] {layer!r}  params={layer.num_parameters}")
        lines.append(f"Total trainable parameters: {self.num_parameters}")
        return "\n".join(lines)


def _training_step(index: int, layer: Layer, x: np.ndarray) -> np.ndarray:
    return layer.forward(x, training=True)
