"""Noisy-label training laboratory for windowed token classification.

A small clean dataset and a large automatically annotated (noisy) dataset
are combined through a learnable label-noise layer.  The package bundles a
minimal reverse-mode autodiff engine, a windowed BiLSTM token classifier,
gazetteer annotation, synthetic noise channels, six training variants, and
an entity-level evaluation harness.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, ShapeMismatch, NonFiniteError, gradient_check
from .model import LabelSet, NoiseMatrix, theta_from_b

__all__ = [
    "Tensor",
    "ShapeMismatch",
    "NonFiniteError",
    "gradient_check",
    "LabelSet",
    "NoiseMatrix",
    "theta_from_b",
]
