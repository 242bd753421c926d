"""The DeepCSI learning architecture (Fig. 4 of the paper).

The network consists of ``N_conv`` blocks of ``Conv2D -> SELU -> MaxPool``
operating along the sub-carrier axis, a spatial-attention block with a skip
connection, a flattening stage and ``N_dense`` dense layers with SELU
activations and alpha-dropout in between, followed by a final dense layer
producing one logit per module.

With the paper's hyper-parameters (five convolutional layers with 128
filters, kernels ``(1,7) x3``, ``(1,5)``, ``(1,3)``, dense layers of 128 and
64 units, 234 sub-carriers, one spatial stream, 2M-1 = 5 I/Q channels and 10
classes) the model has 489,305 trainable parameters, matching the 489,301
quoted by the paper up to the accounting of the attention-convolution bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.nn.attention import SpatialAttention
from repro.nn.layers import (
    AlphaDropout,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Selu,
)
from repro.nn.model import Sequential


class ModelConfigError(ValueError):
    """Raised for inconsistent architecture configurations."""


@dataclass(frozen=True)
class DeepCsiModelConfig:
    """Hyper-parameters of the DeepCSI CNN.

    Attributes
    ----------
    num_filters:
        Number of filters of every convolutional layer.
    kernel_widths:
        Width (along the sub-carrier axis) of each convolutional kernel; the
        length of this tuple is ``N_conv``.
    pool_width:
        Width of the max-pooling window applied after every convolution.
    dense_units:
        Sizes of the hidden dense layers (``N_dense`` entries).
    dropout_retain:
        Retain probabilities of the alpha-dropout layers interposed between
        the dense layers; must have the same length as ``dense_units``.
    attention_kernel_width:
        Kernel width of the spatial-attention convolution.
    use_attention:
        Whether to include the spatial-attention block; disabling it is the
        ablation of the paper's architectural choice (Fig. 4).
    """

    num_filters: int = 128
    kernel_widths: Tuple[int, ...] = (7, 7, 7, 5, 3)
    pool_width: int = 2
    dense_units: Tuple[int, ...] = (128, 64)
    dropout_retain: Tuple[float, ...] = (0.5, 0.2)
    attention_kernel_width: int = 7
    use_attention: bool = True

    def __post_init__(self) -> None:
        if self.num_filters < 1:
            raise ModelConfigError("num_filters must be >= 1")
        if not self.kernel_widths:
            raise ModelConfigError("at least one convolutional layer is required")
        if any(k < 1 for k in self.kernel_widths):
            raise ModelConfigError("kernel widths must be >= 1")
        if self.pool_width < 1:
            raise ModelConfigError("pool_width must be >= 1")
        if not self.dense_units:
            raise ModelConfigError("at least one dense layer is required")
        if len(self.dropout_retain) != len(self.dense_units):
            raise ModelConfigError(
                "dropout_retain must have one entry per dense layer"
            )
        if any(not 0.0 < p <= 1.0 for p in self.dropout_retain):
            raise ModelConfigError("dropout retain probabilities must be in (0, 1]")

    @property
    def num_conv_layers(self) -> int:
        """Number of convolutional layers (``N_conv``)."""
        return len(self.kernel_widths)

    @property
    def num_dense_layers(self) -> int:
        """Number of hidden dense layers (``N_dense``)."""
        return len(self.dense_units)

    def with_conv_layers(self, num_layers: int) -> "DeepCsiModelConfig":
        """Copy of the config with a different number of conv layers.

        The kernel-width schedule is extended by repeating the first kernel
        width (the Fig. 7a sweep varies the layer count, not the schedule).
        """
        if num_layers < 1:
            raise ModelConfigError("num_layers must be >= 1")
        widths = list(self.kernel_widths)
        if num_layers <= len(widths):
            new_widths = tuple(widths[-num_layers:])
        else:
            new_widths = tuple([widths[0]] * (num_layers - len(widths)) + widths)
        return DeepCsiModelConfig(
            num_filters=self.num_filters,
            kernel_widths=new_widths,
            pool_width=self.pool_width,
            dense_units=self.dense_units,
            dropout_retain=self.dropout_retain,
            attention_kernel_width=self.attention_kernel_width,
            use_attention=self.use_attention,
        )

    def with_filters(self, num_filters: int) -> "DeepCsiModelConfig":
        """Copy of the config with a different filter count (Fig. 7b sweep)."""
        return DeepCsiModelConfig(
            num_filters=num_filters,
            kernel_widths=self.kernel_widths,
            pool_width=self.pool_width,
            dense_units=self.dense_units,
            dropout_retain=self.dropout_retain,
            attention_kernel_width=self.attention_kernel_width,
            use_attention=self.use_attention,
        )

    def without_attention(self) -> "DeepCsiModelConfig":
        """Copy of the config with the spatial-attention block removed."""
        return DeepCsiModelConfig(
            num_filters=self.num_filters,
            kernel_widths=self.kernel_widths,
            pool_width=self.pool_width,
            dense_units=self.dense_units,
            dropout_retain=self.dropout_retain,
            attention_kernel_width=self.attention_kernel_width,
            use_attention=False,
        )


#: The hyper-parameters selected by the paper (Section V).
PAPER_MODEL_CONFIG = DeepCsiModelConfig()

#: A reduced configuration for CPU-bound (numpy) training runs.
FAST_MODEL_CONFIG = DeepCsiModelConfig(
    num_filters=24,
    kernel_widths=(7, 5, 3),
    pool_width=2,
    dense_units=(48, 32),
    dropout_retain=(0.7, 0.5),
    attention_kernel_width=5,
)


def _pooled_width(width: int, pool_width: int, num_pools: int) -> int:
    """Spatial width after ``num_pools`` non-overlapping poolings."""
    for _ in range(num_pools):
        width = width // pool_width
    return width


def build_deepcsi_model(
    input_shape: Tuple[int, int, int],
    num_classes: int,
    config: Optional[DeepCsiModelConfig] = None,
    rng: Optional[np.random.Generator] = None,
    initializer: str = "lecun_normal",
) -> Sequential:
    """Build the DeepCSI classifier for the given input shape.

    Parameters
    ----------
    input_shape:
        ``(Nch, Nrow, Ncol)`` shape of the feature tensors produced by
        :class:`repro.datasets.features.FeatureExtractor`.
    num_classes:
        Number of Wi-Fi modules to discriminate.
    config:
        Architecture hyper-parameters; defaults to the paper configuration.
    rng:
        Random generator for weight initialisation (reproducibility).
    initializer:
        Initialiser of every convolution and dense kernel
        (:mod:`repro.nn.initializers`).  ``"zeros"`` draws nothing, for
        models whose weights are overwritten right away.

    Returns
    -------
    repro.nn.model.Sequential
        The assembled model (logits output; apply softmax for probabilities).
    """
    config = config if config is not None else PAPER_MODEL_CONFIG
    rng = rng if rng is not None else np.random.default_rng()
    if len(input_shape) != 3:
        raise ModelConfigError("input_shape must be (channels, rows, columns)")
    channels, rows, columns = (int(dim) for dim in input_shape)
    if channels < 1 or rows < 1 or columns < 1:
        raise ModelConfigError("all input dimensions must be >= 1")
    if num_classes < 2:
        raise ModelConfigError("num_classes must be >= 2")

    final_width = _pooled_width(columns, config.pool_width, config.num_conv_layers)
    if final_width < 1:
        raise ModelConfigError(
            f"{config.num_conv_layers} pooling stages of width "
            f"{config.pool_width} reduce {columns} sub-carriers below 1; "
            "reduce the number of layers or the pooling width"
        )

    model = Sequential()
    in_channels = channels
    width = columns
    for index, kernel_width in enumerate(config.kernel_widths):
        model.add(
            Conv2D(
                in_channels=in_channels,
                out_channels=config.num_filters,
                kernel_size=(1, kernel_width),
                padding="same",
                initializer=initializer,
                rng=rng,
                name=f"conv{index + 1}",
            )
        )
        model.add(Selu())
        model.add(MaxPool2D((1, config.pool_width), name=f"pool{index + 1}"))
        in_channels = config.num_filters
        width = width // config.pool_width

    if config.use_attention:
        model.add(
            SpatialAttention(
                kernel_size=(1, config.attention_kernel_width),
                initializer=initializer,
                rng=rng,
                name="attention",
            )
        )
    model.add(Flatten())

    in_features = config.num_filters * rows * width
    for index, (units, retain) in enumerate(
        zip(config.dense_units, config.dropout_retain)
    ):
        model.add(
            Dense(in_features, units, initializer=initializer, rng=rng, name=f"dense{index + 1}")
        )
        model.add(Selu())
        model.add(
            AlphaDropout(retain, rng=rng, name=f"alpha_dropout{index + 1}")
        )
        in_features = units
    model.add(
        Dense(in_features, num_classes, initializer=initializer, rng=rng, name="classifier")
    )
    return model


def count_parameters(
    input_shape: Tuple[int, int, int],
    num_classes: int,
    config: Optional[DeepCsiModelConfig] = None,
) -> int:
    """Number of trainable parameters of the architecture (no weights are drawn)."""
    model = build_deepcsi_model(input_shape, num_classes, config=config, initializer="zeros")
    return model.num_parameters
