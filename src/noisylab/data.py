"""Dataset preparation: clean subset sampling, noisy labeling, window
extraction, and tracked splits.

Splits count batch accesses so tests can assert which data each training
variant is allowed to read.
"""

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .conll import CorpusDocument
from .embeddings import build_vocab_words, load_embeddings, random_embeddings
from .gazetteer import annotate
from .model import LabelSet, token_windows
from .noise import CHANNEL_PRESETS, NoiseChannelSpec, apply_channel
from .rng import substream


def sample_clean_subset(corpus: CorpusDocument, word_budget: int, seed: int):
    """Randomly pick whole sentences until the token budget is reached.

    Returns one bool per sentence, True for the clean subset: the shortest
    prefix of a seeded permutation of the sentences that holds the budget.
    """
    if word_budget <= 0:
        raise ValueError("word budget must be positive")
    lengths = np.array([len(s) for s in corpus.sentences], dtype=np.int64)
    total = int(lengths.sum())
    if word_budget > total:
        raise ValueError(f"word budget {word_budget} exceeds corpus size {total}")
    order = substream(seed, "clean-subset").permutation(lengths.shape[0])
    taken = np.searchsorted(np.cumsum(lengths[order]), word_budget) + 1
    chosen = np.zeros(lengths.shape[0], dtype=bool)
    chosen[order[:taken]] = True
    return chosen


@dataclass
class TrackedSplit:
    """Window examples of one split, with an access counter."""

    name: str
    token_ids: np.ndarray
    sentence_lengths: np.ndarray
    y: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    eval_only_y: Optional[np.ndarray] = None  # diagnostics, never for training
    reads: int = 0

    def __len__(self):
        return self.token_ids.shape[0]

    def take(self, indices, labels=None):
        """Batch of (token windows, labels); every call counts as one read."""
        self.reads += 1
        ids = self.token_ids[indices]
        if labels is None:
            return ids, None
        source = self.y if labels == "y" else self.z
        if source is None:
            raise ValueError(f"split {self.name!r} has no {labels} labels")
        return ids, source[indices]


@dataclass
class SplitDataset:
    """Clean data C, noisy data N, and the untouched dev/test splits."""

    clean: TrackedSplit
    noisy: TrackedSplit
    dev: TrackedSplit
    test: TrackedSplit
    label_set: LabelSet
    vocab: object
    embedding_table: np.ndarray

    @property
    def k(self):
        return self.label_set.k

    def reset_counters(self):
        for split in (self.clean, self.noisy, self.dev, self.test):
            split.reads = 0


def corpus_windows(corpus: CorpusDocument, vocab, name, label_set=None, y_names=None):
    """Build a TrackedSplit of all token windows in corpus order."""
    lengths = np.array([len(s.tokens) for s in corpus.sentences], dtype=np.int64)
    return TrackedSplit(
        name=name,
        token_ids=token_windows(vocab.encode(corpus.all_tokens()), lengths, vocab.pad_id),
        sentence_lengths=lengths,
        y=None if y_names is None else label_set.encode(y_names),
    )


CHANNEL_CONFIG_KEYS = {"rho": "channel_rho", "permutation": "channel_permutation",
                       "preset": "channel_preset", "matrix": "channel_matrix_path",
                       "labels": "labels"}


def check_channel(kind, label_set, rho=0.0, permutation="", preset="", matrix_path="",
                  keys=CHANNEL_CONFIG_KEYS):
    """Check, reading no file, the settings that a channel of ``kind`` over
    the classes of the LabelSet ``label_set`` reads, naming a bad one by its
    entry in ``keys``; return a permutation's class indices."""
    classes = label_set.classes
    if kind == "uniform" and not 0 <= rho <= 1:
        raise ValueError(f"{keys['rho']} = {rho!r} must be in [0, 1]")
    if kind == "permutation":
        names = [n.strip() for n in permutation.split(",")]
        if sorted(names) != sorted(classes):
            raise ValueError(f"{keys['permutation']} = {permutation!r} "
                             f"must name each of {', '.join(classes)} once")
        return [classes.index(n) for n in names]
    if kind == "empirical" and not matrix_path:
        if preset not in CHANNEL_PRESETS:
            raise ValueError(f"{keys['preset']} = {preset!r} is not one of "
                             f"{', '.join(CHANNEL_PRESETS)}, and no {keys['matrix']} is set")
        size = CHANNEL_PRESETS[preset].shape[0]
        if size != len(classes):
            raise ValueError(f"{keys['preset']} = {preset!r} is a channel over {size} "
                             f"classes, but {keys['labels']} = {','.join(classes)!r} "
                             f"has {len(classes)}")


def build_channel_spec(kind, label_set, seed, rho=0.0, permutation="", preset="",
                       matrix_path="", keys=CHANNEL_CONFIG_KEYS) -> NoiseChannelSpec:
    """Channel of ``kind`` (one of ``noise.CHANNEL_KINDS``), checked by
    :func:`check_channel`.  ``permutation`` is comma-separated class names;
    an empirical channel reads the matrix CSV at ``matrix_path`` when one is
    given, whose classes must be ``label_set``'s, in order, and otherwise
    takes ``noise.CHANNEL_PRESETS[preset]``."""
    perm = check_channel(kind, label_set, rho, permutation, preset, matrix_path, keys)
    if kind == "uniform":
        return NoiseChannelSpec.uniform(rho, k=label_set.k, seed=seed)
    if kind == "permutation":
        return NoiseChannelSpec.from_permutation(perm, seed=seed)
    if not matrix_path:
        return NoiseChannelSpec(CHANNEL_PRESETS[preset], seed=seed)
    from .evaluation import parse_matrix_csv
    try:
        with open(matrix_path, encoding="utf-8") as fh:
            classes, matrix = parse_matrix_csv(fh.read())
        if tuple(classes) != label_set.classes:
            raise ValueError(f"classes {classes} differ from the label set "
                             f"{list(label_set.classes)}")
        return NoiseChannelSpec(matrix, seed=seed)
    except ValueError as err:
        raise ValueError(f"{matrix_path}: {err}") from None


def prepare(config, train_corpus, dev_corpus, test_corpus, gazetteer=None) -> SplitDataset:
    """Assemble the full experiment dataset from labeled corpora.

    The clean subset C is a sample of the training sentences by token
    budget; N is the rest of them, or all of them when ``noisy_scope`` is
    "all".  Both are token rows of one encoding of the training corpus.
    Noisy labels come either from a synthetic channel applied to the gold
    labels or from gazetteer annotation; the same process also produces
    noisy twins for C's tokens, which seed the noise-layer initialization.
    """
    label_set = config.label_set()
    for name, corpus in (("train", train_corpus), ("dev", dev_corpus), ("test", test_corpus)):
        if not corpus.labeled:
            raise ValueError(f"{name} corpus must be fully labeled")

    in_clean = sample_clean_subset(train_corpus, config.clean_budget, seed=config.seed)
    in_noisy = np.ones_like(in_clean) if config.noisy_scope == "all" else ~in_clean
    lengths = np.array([len(s) for s in train_corpus.sentences], dtype=np.int64)
    clean_rows, noisy_rows = np.repeat(in_clean, lengths), np.repeat(in_noisy, lengths)
    y = label_set.encode(train_corpus.flat_labels())
    clean_y, noisy_y = y[clean_rows], y[noisy_rows]

    if config.noisy_source == "gazetteer":
        if gazetteer is None:
            raise ValueError("gazetteer mode needs a gazetteer")
        z = label_set.encode(chain.from_iterable(
            annotate((s.tokens for s in train_corpus.sentences), gazetteer)))
        noisy_z, clean_z = z[noisy_rows], z[clean_rows]
    else:
        spec = build_channel_spec(
            config.channel_kind, label_set, config.seed, rho=config.channel_rho,
            permutation=config.channel_permutation, preset=config.channel_preset,
            matrix_path=config.channel_matrix_path)
        noisy_z = apply_channel(noisy_y, spec, stream="noisy")
        clean_z = apply_channel(clean_y, spec, stream="clean-init")

    if config.embeddings_path:
        table, vocab = load_embeddings(config.embeddings_path, config.embedding_dim)
    else:
        words = build_vocab_words(train_corpus.all_tokens())
        table, vocab = random_embeddings(words, config.embedding_dim, seed=config.seed)
    token_ids = np.array(vocab.encode(train_corpus.all_tokens()), dtype=np.int64)

    def train_split(name, sentences, rows, **labels):
        return TrackedSplit(name, token_windows(token_ids[rows], lengths[sentences], vocab.pad_id),
                            lengths[sentences], **labels)

    return SplitDataset(
        clean=train_split("clean", in_clean, clean_rows, y=clean_y, z=clean_z),
        noisy=train_split("noisy", in_noisy, noisy_rows, z=noisy_z, eval_only_y=noisy_y),
        dev=corpus_windows(dev_corpus, vocab, "dev", label_set, y_names=dev_corpus.flat_labels()),
        test=corpus_windows(test_corpus, vocab, "test", label_set,
                            y_names=test_corpus.flat_labels()),
        label_set=label_set,
        vocab=vocab,
        embedding_table=table,
    )
