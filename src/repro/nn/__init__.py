"""Minimal-but-complete deep-learning substrate written on top of numpy.

The paper trains its classifier with a mainstream deep-learning framework;
none is available in this offline environment, so this package implements the
required functionality from scratch:

* :mod:`repro.nn.layers` -- 2-D convolution, dense, max-pooling, flatten,
  activation (SELU / ReLU / sigmoid / softmax) and (alpha-)dropout layers,
  each with an analytic backward pass.
* :mod:`repro.nn.attention` -- the spatial-attention block (CBAM style) with
  the skip connection used by the DeepCSI architecture.
* :mod:`repro.nn.initializers` -- LeCun/He/Glorot initialisation.
* :mod:`repro.nn.losses` -- softmax cross-entropy and mean-squared error.
* :mod:`repro.nn.optimizers` -- SGD (with momentum) and Adam.
* :mod:`repro.nn.model` -- a ``Sequential`` container.
* :mod:`repro.nn.training` -- mini-batch training loop with validation and
  early stopping.
* :mod:`repro.nn.serialization` -- ``.npz`` weight (de)serialisation.

Data layout is ``NCHW``: ``(batch, channels, height, width)``.
"""

from repro.nn.layers import (
    Layer,
    Dense,
    Conv2D,
    MaxPool2D,
    Flatten,
    Activation,
    Selu,
    Relu,
    Sigmoid,
    Softmax,
    Dropout,
    AlphaDropout,
)
from repro.nn.attention import SpatialAttention
from repro.nn.losses import SoftmaxCrossEntropy, MeanSquaredError
from repro.nn.optimizers import SGD, Adam
from repro.nn.model import Sequential
from repro.nn.training import Trainer, TrainingConfig, History
from repro.nn.serialization import save_weights, load_weights

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "Activation",
    "Selu",
    "Relu",
    "Sigmoid",
    "Softmax",
    "Dropout",
    "AlphaDropout",
    "SpatialAttention",
    "SoftmaxCrossEntropy",
    "MeanSquaredError",
    "SGD",
    "Adam",
    "Sequential",
    "Trainer",
    "TrainingConfig",
    "History",
    "save_weights",
    "load_weights",
]
