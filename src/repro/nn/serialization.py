"""Weight (de)serialisation for :class:`~repro.nn.model.Sequential` models."""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.nn.model import ModelError, Sequential


def save_weights(model: Sequential, path: Union[str, Path]) -> Path:
    """Save every trainable parameter of ``model`` to an ``.npz`` archive.

    Parameters are stored under their qualified names (``"03_conv/weight"``),
    so the archive is self-describing and robust against accidental loading
    into an architecture with a different layer layout.
    """
    path = Path(path)
    arrays = {name: param for name, param, _ in model.parameters()}
    if not arrays:
        raise ModelError("the model has no trainable parameters to save")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_weights(model: Sequential, path: Union[str, Path]) -> None:
    """Load parameters saved by :func:`save_weights` into ``model``.

    Raises
    ------
    ModelError
        If the archive does not contain exactly the parameters the model
        expects or if any shape differs.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as archive:
        stored = {name: archive[name] for name in archive.files}
    expected = {name: param for name, param, _ in model.parameters()}
    missing = sorted(set(expected) - set(stored))
    unexpected = sorted(set(stored) - set(expected))
    if missing or unexpected:
        raise ModelError(
            f"weight archive does not match the model: missing={missing}, "
            f"unexpected={unexpected}"
        )
    for name, param in expected.items():
        value = stored[name]
        if value.shape != param.shape:
            raise ModelError(
                f"shape mismatch for {name!r}: expected {param.shape}, "
                f"got {value.shape}"
            )
        param[...] = value
    if model.compute is not None:
        model.compute.prepare(model)
