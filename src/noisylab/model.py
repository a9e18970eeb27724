"""Windowed token classifier (embedding, BiLSTM, dense ReLU, softmax),
the learnable label-noise layer, and the label-cleaning network baseline.

The noise layer and the cleaning network only ever participate in
training; prediction is the bare classifier's ``probs`` under
``autodiff.no_grad``.
"""

from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import kernels, parallel
from .autodiff import Tensor
from .rng import substream

WINDOW_RADIUS = 3
WINDOW_SIZE = 2 * WINDOW_RADIUS + 1

DEFAULT_CLASSES = ("O", "PER", "ORG", "LOC", "MISC")

POOLINGS = ("final", "center")


class LabelSet:
    """Ordered class names with a stable index per class; O must be present."""

    def __init__(self, classes: Sequence[str] = DEFAULT_CLASSES):
        classes = tuple(classes)
        if len(classes) < 2:
            raise ValueError("LabelSet needs at least 2 classes")
        if "O" not in classes:
            raise ValueError("LabelSet must contain the null class O")
        if len(set(classes)) != len(classes):
            raise ValueError("LabelSet classes must be unique")
        self.classes = classes
        self.o_index = classes.index("O")
        self._by_name = {name: i for i, name in enumerate(classes)}

    @property
    def k(self):
        return len(self.classes)

    def name(self, index):
        return self.classes[index]

    def encode(self, names):
        """Index of every name as an int64 array; an unknown name raises."""
        get = self._by_name.get
        return np.array([i if (i := get(n)) is not None else _unknown_label(n)
                         for n in names], dtype=np.int64)

    def __eq__(self, other):
        return isinstance(other, LabelSet) and self.classes == other.classes

    def __repr__(self):
        return f"LabelSet({self.classes!r})"


def _unknown_label(name):
    raise ValueError(f"unknown label {name!r}")


def build_window(sentence, target_index, pad):
    """Slice of 2*RADIUS+1 items around ``target_index``, padded with ``pad``."""
    n = len(sentence)
    if n == 0:
        raise ValueError("cannot build a window over an empty sentence")
    if not 0 <= target_index < n:
        raise ValueError(f"target index {target_index} outside sentence of length {n}")
    window = []
    for pos in range(target_index - WINDOW_RADIUS, target_index + WINDOW_RADIUS + 1):
        window.append(sentence[pos] if 0 <= pos < n else pad)
    return window


def token_windows(token_ids, lengths, pad_id):
    """Every token's window as an (n, WINDOW_SIZE) int64 array.

    ``token_ids`` holds the sentences of ``lengths`` end to end; row i is
    :func:`build_window` of token i in its own sentence.  The sentences are
    laid out with WINDOW_RADIUS pad ids before, between and after them, so
    each token's window is one slice of that layout.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = ids.shape[0]
    if n == 0:
        return np.zeros((0, WINDOW_SIZE), dtype=np.int64)
    sentence = np.repeat(np.arange(lengths.shape[0]), lengths)
    starts = np.arange(n) + sentence * WINDOW_RADIUS  # window start of each token
    padded = np.full(n + (lengths.shape[0] + 1) * WINDOW_RADIUS, pad_id, dtype=np.int64)
    padded[starts + WINDOW_RADIUS] = ids
    return np.lib.stride_tricks.sliding_window_view(padded, WINDOW_SIZE)[starts]


def _uniform_param(seed, stream, name, shape, fan_in, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    values = substream(seed, stream, name).uniform(-bound, bound, size=shape)
    return Tensor(values.astype(dtype), requires_grad=True)


class _Network:
    """A network whose Tensors are the attributes named in STATE."""

    def parameters(self):
        """The STATE tensors that require a gradient, in STATE order."""
        tensors = (getattr(self, name) for name in self.STATE)
        return [t for t in tensors if t.requires_grad]

    def state_dict(self):
        return {name: getattr(self, name).values.copy() for name in self.STATE}

    def load_state(self, state):
        for name, values in state.items():
            getattr(self, name).values[...] = values


class WindowClassifier(_Network):
    """Embedding lookup, BiLSTM encoder, dense ReLU, softmax over classes.

    The window representation is the concatenation of one forward and one
    backward LSTM state; ``pooling`` selects how far each direction reads
    ("final" the whole window, "center" up to the target token).
    """

    STATE = ("embedding", "fw_in", "fw_rec", "fw_bias", "bw_in", "bw_rec", "bw_bias",
             "dense_w", "dense_b", "out_w", "out_b")

    def __init__(self, embedding_table, k, hidden_size, dense_size,
                 seed=0, trainable_embeddings=False, pooling="final",
                 dtype=np.float64):
        if pooling not in POOLINGS:
            raise ValueError(f"unknown pooling {pooling!r}")
        embed = np.asarray(embedding_table, dtype=dtype)
        e = embed.shape[1]
        h = hidden_size
        self.k = k
        self.hidden_size = h
        self.dense_size = dense_size
        self.pooling = pooling
        self.steps = WINDOW_RADIUS + 1 if pooling == "center" else WINDOW_SIZE
        self.embedding = Tensor(embed, requires_grad=trainable_embeddings)
        def t(name, shape, fan_in):
            return _uniform_param(seed, "init", name, shape, fan_in, dtype)
        self.fw_in = t("fw_in", (e, 4 * h), e)
        self.fw_rec = t("fw_rec", (h, 4 * h), h)
        self.fw_bias = Tensor(np.zeros(4 * h, dtype=dtype), requires_grad=True)
        self.bw_in = t("bw_in", (e, 4 * h), e)
        self.bw_rec = t("bw_rec", (h, 4 * h), h)
        self.bw_bias = Tensor(np.zeros(4 * h, dtype=dtype), requires_grad=True)
        self.dense_w = t("dense_w", (2 * h, dense_size), 2 * h)
        self.dense_b = Tensor(np.zeros(dense_size, dtype=dtype), requires_grad=True)
        self.out_w = t("out_w", (dense_size, k), dense_size)
        self.out_b = Tensor(np.zeros(k, dtype=dtype), requires_grad=True)

    def features(self, token_ids, plans=None):
        """BiLSTM window representation as a Tensor of shape (B, 2H).

        Each direction scans its ids (the backward one the window reversed)
        for ``steps`` tokens and reads its last state; the two scans run at
        once where :func:`noisylab.parallel.concurrent` allows it for
        B x 4H.  Under ``autodiff.no_grad`` nothing will be differentiated,
        so the scan is the cache-free prediction one, which evaluates each
        distinct token and window prefix once.  Its prefix plans come from
        ``plans``, a dict that a caller scoring the same ids again keeps for
        them: the plans of this model's step count are read from it, or
        built and stored in it.  Without one they are built for this call.
        """
        ids = np.atleast_2d(token_ids)
        steps = self.steps
        scans = (ids, ids[:, ::-1])
        directions = ((self.fw_in, self.fw_rec, self.fw_bias),
                      (self.bw_in, self.bw_rec, self.bw_bias))
        if ad.is_grad_enabled():
            return ad.bilstm_last(self.embedding, [scan[:, :steps] for scan in scans],
                                  directions)
        if plans is None:
            plans = {}
        if steps not in plans:
            plans[steps] = [kernels.prefix_plan(scan, steps) for scan in scans]
        fw, bw = ((plan, *(w.values for w in weights))
                  for plan, weights in zip(plans[steps], directions))
        table = self.embedding.values
        states = parallel.both(lambda: kernels.lstm_last_hidden(table, *fw),
                               lambda: kernels.lstm_last_hidden(table, *bw),
                               parallel.concurrent(ids.shape[0], 4 * self.hidden_size))
        return Tensor(np.concatenate(states, axis=1))

    def probs(self, token_ids, plans=None):
        """Class distributions as a Tensor of shape (B, k); ``plans`` as
        in :meth:`features`."""
        feats = self.features(token_ids, plans)
        hidden = ad.relu(ad.add(ad.matmul(feats, self.dense_w), self.dense_b))
        logits = ad.add(ad.matmul(hidden, self.out_w), self.out_b)
        return ad.softmax(logits, axis=-1)

    def infer_features(self, token_ids):
        """:meth:`features` under ``no_grad``, as an array."""
        with ad.no_grad():
            return self.features(token_ids).values

    def predict(self, token_ids, plans=None):
        """Predicted class per window; ties break toward the lowest index.
        ``plans`` as in :meth:`features`.

        The noise layer and the cleaning network never participate here.
        """
        with ad.no_grad():
            return np.argmax(self.probs(token_ids, plans).values, axis=-1)


def theta_from_b(b):
    """Row-stochastic matrix from raw noise weights via row softmax."""
    b = np.asarray(b, dtype=np.float64)
    shifted = b - b.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class NoiseMatrix:
    """Learnable label-noise channel: row softmax of a k-by-k weight matrix.

    theta is always recomputed from the current weights, never cached.  A
    frozen constant channel can be supplied instead for controlled
    experiments; it has no trainable weights.
    """

    def __init__(self, b=None, k=None, frozen_theta=None, dtype=np.float64):
        if frozen_theta is not None:
            theta = np.asarray(frozen_theta, dtype=dtype)
            if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
                raise ValueError("frozen theta must be square")
            self.frozen_theta = theta
            self.logits = None
            self.k = theta.shape[0]
            return
        if b is None:
            if k is None:
                raise ValueError("need b, k, or frozen_theta")
            b = np.eye(k)
        b = np.asarray(b, dtype=dtype)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("noise weights must be square")
        if not np.isfinite(b).all():
            raise ValueError("noise weights must be finite")
        self.frozen_theta = None
        self.logits = Tensor(b.copy(), requires_grad=True)
        self.k = b.shape[0]

    @property
    def trainable(self):
        return self.frozen_theta is None

    def parameters(self):
        return [self.logits] if self.trainable else []

    def theta_tensor(self):
        if self.frozen_theta is not None:
            return Tensor(self.frozen_theta)
        return ad.softmax(self.logits, axis=-1)

    def theta(self):
        if self.frozen_theta is not None:
            return self.frozen_theta.copy()
        return theta_from_b(self.logits.values)

    def b_matrix(self):
        return None if self.logits is None else self.logits.values.copy()


def noisy_forward(probs, noise):
    """Distribution over observed noisy labels: p(z=j) = sum_i theta[i,j] p(y=i).

    ``probs`` is the classifier output (graph Tensor); gradients flow into
    the noise weights and the shared classifier parameters.
    """
    return ad.matmul(probs, noise.theta_tensor())


class CleaningNetwork(_Network):
    """Maps (window features, observed noisy label) to a cleaned label vector.

    The BiLSTM features are projected to a small space, concatenated with
    the one-hot noisy label, passed through a dense layer, added back onto
    the noisy label (skip connection), and clipped to [0, 1].
    """

    STATE = ("proj_w", "proj_b", "comb_w", "comb_b")

    def __init__(self, feature_size, k, proj_size=30, seed=0, dtype=np.float64):
        self.k = k
        self.proj_size = proj_size
        def t(name, shape, fan_in):
            return _uniform_param(seed, "cleaner", name, shape, fan_in, dtype)
        self.proj_w = t("proj_w", (feature_size, proj_size), feature_size)
        self.proj_b = Tensor(np.zeros(proj_size, dtype=dtype), requires_grad=True)
        self.comb_w = t("comb_w", (proj_size + k, k), proj_size + k)
        self.comb_b = Tensor(np.zeros(k, dtype=dtype), requires_grad=True)

    def forward(self, features, noisy_onehot):
        """Cleaned label vectors in [0, 1], shape (B, k)."""
        projected = ad.add(ad.matmul(features, self.proj_w), self.proj_b)
        combined = ad.concat([projected, noisy_onehot], axis=1)
        mapped = ad.add(ad.matmul(combined, self.comb_w), self.comb_b)
        return ad.clip(ad.add(mapped, noisy_onehot), 0.0, 1.0)


def one_hot(labels, k, dtype=np.float64):
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], k), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
