"""Synthetic label-noise channels, confusion counting, and noise-layer
weight initialization."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import substream

# Empirical channel shaped like lookup-based annotation of news text:
# most entity mass leaks into O (low recall), LOC is mostly retained,
# MISC is never produced.  Row and column order: O, PER, ORG, LOC, MISC.
GAZETTEER_LIKE_MATRIX = np.array([
    [0.970, 0.005, 0.005, 0.020, 0.0],
    [0.740, 0.260, 0.000, 0.000, 0.0],
    [0.900, 0.000, 0.100, 0.000, 0.0],
    [0.330, 0.010, 0.010, 0.650, 0.0],
    [1.000, 0.000, 0.000, 0.000, 0.0],
])

CHANNEL_KINDS = ("uniform", "permutation", "empirical")
CHANNEL_PRESETS = ("gazetteer-like",)  # empirical channels known by name


@dataclass
class NoiseChannelSpec:
    """How to corrupt a label sequence.

    uniform: each label independently becomes a different class with
    probability rho.  permutation: deterministic class substitution.
    empirical: label i is resampled from row i of a row-stochastic matrix.
    """

    kind: str
    rho: float = 0.0
    permutation: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None
    seed: int = 0
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == "uniform":
            if not 0.0 <= self.rho <= 1.0:
                raise ValueError(f"rho={self.rho} outside [0, 1]")
            if self.k is None:
                raise ValueError("uniform channel needs the class count k")
        if self.kind == "permutation":
            perm = np.asarray(self.permutation, dtype=np.int64)
            if perm.ndim != 1 or sorted(perm.tolist()) != list(range(perm.shape[0])):
                raise ValueError("permutation must be a permutation of 0..k-1")
            self.permutation = perm
            self.k = perm.shape[0]
        if self.kind == "empirical":
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("empirical channel matrix must be square")
            if (m < 0).any() or np.abs(m.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValueError("empirical channel rows must be distributions")
            self.matrix = m
            self.k = m.shape[0]

    @classmethod
    def uniform(cls, rho, k, seed=0):
        return cls(kind="uniform", rho=rho, k=k, seed=seed)

    @classmethod
    def from_permutation(cls, permutation, seed=0):
        return cls(kind="permutation", permutation=permutation, seed=seed)

    @classmethod
    def empirical(cls, matrix, seed=0):
        return cls(kind="empirical", matrix=matrix, seed=seed)

    @classmethod
    def gazetteer_like(cls, seed=0):
        return cls.empirical(GAZETTEER_LIKE_MATRIX.copy(), seed=seed)


def apply_channel(labels, spec: NoiseChannelSpec, stream="main") -> np.ndarray:
    """Corrupted copy of ``labels`` under the channel; seeded, reproducible.

    ``stream`` names an independent draw of the same process, e.g. one for
    the big noisy set and one for the clean subset's noisy twins.
    """
    labels = np.asarray(labels, dtype=np.int64)
    k = spec.k
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range for {k} classes")
    rng = substream(spec.seed, "channel", spec.kind, stream)
    out = labels.copy()
    if spec.kind == "uniform":
        if spec.rho > 0.0 and labels.size:
            flip = rng.random(labels.shape[0]) < spec.rho
            offsets = rng.integers(1, k, size=labels.shape[0])
            out[flip] = (labels[flip] + offsets[flip]) % k
    elif spec.kind == "permutation":
        out = spec.permutation[labels]
    else:
        for i in range(k):
            mask = labels == i
            count = int(mask.sum())
            if count:
                out[mask] = rng.choice(k, size=count, p=spec.matrix[i])
    return out


@dataclass
class ConfusionCounts:
    """counts[i, j] = number of positions with clean class i and noisy class j."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("confusion counts must be square")
        if (self.counts < 0).any():
            raise ValueError("confusion counts must be non-negative")

    @property
    def k(self):
        return self.counts.shape[0]


def estimate_confusion(clean_labels, noisy_labels, k) -> ConfusionCounts:
    """Count clean/noisy label co-occurrences over aligned sequences."""
    y = np.asarray(clean_labels, dtype=np.int64)
    z = np.asarray(noisy_labels, dtype=np.int64)
    if y.shape != z.shape:
        raise ValueError(f"label sequences differ in length: {y.shape} vs {z.shape}")
    counts = np.zeros((k, k), dtype=np.int64)
    if y.size:
        if y.min() < 0 or y.max() >= k or z.min() < 0 or z.max() >= k:
            raise ValueError(f"label out of range for {k} classes")
        np.add.at(counts, (y, z), 1)
    return ConfusionCounts(counts)


def init_noise_weights(counts: ConfusionCounts, alpha=1.0) -> np.ndarray:
    """Noise-layer weights whose row softmax equals the smoothed confusion rows.

    b[i, j] = log((counts[i, j] + alpha) / (rowtotal[i] + k * alpha)); the
    additive smoothing keeps empty rows finite (they become uniform).
    """
    if alpha <= 0:
        raise ValueError("smoothing alpha must be positive")
    c = counts.counts.astype(np.float64)
    k = counts.k
    totals = c.sum(axis=1, keepdims=True)
    return np.log((c + alpha) / (totals + k * alpha))
