"""Windowed token classifier (embedding, BiLSTM, dense ReLU, softmax),
the learnable label-noise layer, and the label-cleaning network baseline.

The noise layer and the cleaning network only ever participate in
training.  Training differentiates through :meth:`WindowClassifier.features`;
prediction (:meth:`WindowClassifier.predict`) is the bare classifier's head
over the features of :meth:`WindowClassifier.infer`, a pinned, cache-free
scan; the two own every rule of prediction.
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

# Rows whose projections and prefix plans a prediction call holds at once,
# rounded down to whole chunks (see WindowClassifier.infer); it does not
# bound the features, which only the chunks in flight hold.  A block's
# distinct tokens are projected once per direction; a bound that does not
# grow with the split keeps the projections of a large split (N) from all
# being alive at once.  At 2048 the paper-size dev split (about 1400
# distinct windows) is one block; as two blocks of 1024 it scored 8-10%
# slower, as the second block projects shared tokens again and each block
# ends with a worker idle.
PREDICT_BLOCK = 2048


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


def token_windows(token_ids, lengths, pad_id):
    """Every token's window as an (n, WINDOW_SIZE) int64 array.

    ``token_ids`` holds the sentences of ``lengths`` end to end; row i holds
    the ids from WINDOW_RADIUS before token i to WINDOW_RADIUS after it, with
    ``pad_id`` in the places outside its own sentence.  The sentences are
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
        """Copy each array of ``state`` into the tensor of its name.  A name
        not in STATE, or an array whose shape or dtype differs from its
        tensor's, is a ValueError naming the array, raised before any
        tensor is written."""
        for name, values in state.items():
            if name not in self.STATE:
                raise ValueError(f"{name} is not one of {', '.join(self.STATE)}")
            target = getattr(self, name).values
            for what, got, expected in (("shape", values.shape, target.shape),
                                        ("dtype", values.dtype, target.dtype)):
                if got != expected:
                    raise ValueError(f"{name} has {what} {got}, expected {expected}")
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
        self._directions = ((self.fw_in, self.fw_rec, self.fw_bias),
                            (self.bw_in, self.bw_rec, self.bw_bias))

    def features(self, token_ids):
        """BiLSTM window representation as a graph Tensor of shape (B, 2H),
        for training (:func:`noisylab.autodiff.bilstm_last`).

        Each direction scans its ids (the backward one the window reversed)
        for ``steps`` tokens and reads its last state.  The two scans run at
        once where :func:`noisylab.parallel.concurrent` allows it for B x 4H.
        Prediction reads the same values from :meth:`infer`'s scan.
        """
        ids = np.atleast_2d(token_ids)
        scans = [ids[:, :self.steps], ids[:, ::-1][:, :self.steps]]
        return ad.bilstm_last(self.embedding, scans, self._directions)

    def head(self, features):
        """Class distributions (B, k) from window features (B, 2H)."""
        hidden = ad.relu(ad.add(ad.matmul(features, self.dense_w), self.dense_b))
        logits = ad.add(ad.matmul(hidden, self.out_w), self.out_b)
        return ad.softmax(logits, axis=-1)

    def probs(self, token_ids):
        """Class distributions as a Tensor of shape (B, k)."""
        return self.head(self.features(token_ids))

    @parallel.one_blas_thread()
    def infer(self, token_ids, fn, eval_batch=None, plans=None):
        """The prediction path: ``fn(rows, features)`` of each chunk, where
        ``rows`` is the chunk's slice of ``token_ids`` and ``features`` a
        constant Tensor of its :meth:`features` values; the results are
        concatenated along axis 0 in chunk order.  No rows are one empty
        chunk.  BLAS runs on one thread (:mod:`noisylab.parallel`).

        A chunk is ``eval_batch // 2`` rows (all rows by default), so that
        two workers hold at most ``eval_batch`` rows at once; it depends on
        nothing else, so the numbers do not depend on the machine.  The
        rows are scanned in blocks of PREDICT_BLOCK rows, rounded down to
        whole chunks, with no cache for a backward pass.  In a block each
        direction projects the distinct tokens once; then one task per chunk
        advances each distinct window prefix of the chunk once, forward
        direction first, and calls ``fn`` on the chunk's features, so only
        the chunks in flight hold features.  Where
        :func:`noisylab.parallel.concurrent` allows it for the call's largest
        chunk x 4H (decided once per call), the two projections, and then the
        tasks, run on two workers, each taking the next task when done with
        one; ``fn`` then runs on either thread, so it must not write what
        another chunk's ``fn`` reads.  A block's prefix plans are read from
        ``plans``, a dict keyed by (steps, chunk, block start) that a caller
        scoring the same ids again passes each time, or built and stored in
        it.
        """
        ids = np.atleast_2d(token_ids)
        steps, H = self.steps, self.hidden_size
        chunk = max(eval_batch // 2, 1) if eval_batch else max(ids.shape[0], 1)
        at_once = parallel.concurrent(min(chunk, ids.shape[0]), 4 * H)
        block = max(PREDICT_BLOCK // chunk, 1) * chunk
        plans = {} if plans is None else plans
        table, directions = self.embedding.values, self._directions
        out = []
        for start in range(0, max(ids.shape[0], 1), block):
            rows = ids[start:start + block]
            key = (steps, chunk, start)
            if key not in plans:
                plans[key] = [kernels.prefix_plan(scan, steps, chunk)
                              for scan in (rows, rows[:, ::-1])]
            plan = plans[key]

            def project(d):
                w_in, _, bias = directions[d]
                return kernels.project(table.take(plan[d].tokens, axis=0), w_in.values,
                                       bias.values)

            def scan(i):
                feats = np.concatenate([kernels.lstm_last_hidden(proj[d], plan[d].chunks[i],
                                                                 directions[d][1].values)
                                        for d in (0, 1)], axis=1)
                results[i] = fn(slice(start + i * chunk, start + (i + 1) * chunk), Tensor(feats))

            proj = parallel.both(lambda: project(0), lambda: project(1), at_once)
            results = [None] * len(plan[0].chunks)
            parallel.each(scan, range(len(results)), at_once)
            out.extend(results)
        return np.concatenate(out)

    def infer_features(self, token_ids):
        """The values of :meth:`features`, from :meth:`infer`'s scan, as an array."""
        return self.infer(token_ids, lambda rows, feats: feats.values)

    def predict(self, token_ids, eval_batch=None, kept=None):
        """Predicted class per window; ties break toward the lowest index.

        Each distinct window is predicted once, through :meth:`infer` with
        ``eval_batch``, and copied to every place it occurs.  ``kept``, a
        dict that a caller predicting the same windows again passes each
        time, holds the distinct rows and (under "plans") their prefix plans
        after the first call.  The noise layer and the cleaning network
        never participate here.
        """
        kept = {} if kept is None else kept
        if "distinct" not in kept:
            rows, inverse = np.unique(np.atleast_2d(token_ids), axis=0, return_inverse=True)
            kept["distinct"] = rows, inverse.reshape(-1)
        rows, inverse = kept["distinct"]
        preds = self.infer(rows, lambda _, feats: np.argmax(self.head(feats).values, axis=-1),
                           eval_batch, kept.setdefault("plans", {}))
        return preds[inverse]


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
