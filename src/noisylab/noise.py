"""Synthetic label-noise channels, confusion counting, and noise-layer
weight initialization."""

from dataclasses import dataclass

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
CHANNEL_PRESETS = {"gazetteer-like": GAZETTEER_LIKE_MATRIX}  # empirical channels by name


@dataclass
class NoiseChannelSpec:
    """How to corrupt a label sequence: label i is resampled from row i of
    the row-stochastic k-by-k ``matrix``.  Uniform noise and class
    permutations are particular matrices; an empirical channel is any.
    """

    matrix: np.ndarray
    seed: int = 0

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("channel matrix must be square")
        if not ((m >= 0).all() and np.abs(m.sum(axis=1) - 1.0).max() <= 1e-9):
            raise ValueError("channel matrix rows must be distributions")
        self.matrix = m

    @classmethod
    def uniform(cls, rho, k, seed=0):
        """A label keeps its class with probability 1 - rho, else takes another uniformly."""
        m = np.full((k, k), rho / (k - 1))
        np.fill_diagonal(m, 1.0 - rho)
        return cls(m, seed=seed)

    @classmethod
    def from_permutation(cls, permutation, seed=0):
        """Label i always becomes ``permutation[i]``."""
        return cls(np.eye(len(permutation))[permutation], seed=seed)

    @classmethod
    def gazetteer_like(cls, seed=0):
        return cls(GAZETTEER_LIKE_MATRIX, seed=seed)


def apply_channel(labels, spec: NoiseChannelSpec, stream="main") -> np.ndarray:
    """Corrupted copy of ``labels`` under the channel; seeded, reproducible.

    ``stream`` names an independent draw of the same process, e.g. one for
    the big noisy set and one for the clean subset's noisy twins.
    """
    labels = np.asarray(labels, dtype=np.int64)
    k = spec.matrix.shape[0]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range for {k} classes")
    # the stream name is part of every seeded draw; "empirical" keeps the
    # labels that preset, matrix-file and permutation channels draw
    rng = substream(spec.seed, "channel", "empirical", stream)
    out = labels.copy()
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
