"""Word vectors and vocabulary.

Tables always end with two extra rows, PAD then UNK (both zero by
default).  Lookup is case-sensitive with a lowercase fallback before
falling through to UNK.
"""

import numpy as np

from .rng import substream


class Vocabulary:
    def __init__(self, words):
        self.words = list(words)
        self.pad_id = len(self.words)
        self.unk_id = len(self.words) + 1
        self._index = {w: i for i, w in enumerate(self.words)}

    @property
    def size(self):
        return len(self.words) + 2

    def encode(self, tokens):
        """Id of every token: exact match, then lowercase, then UNK."""
        get, unk = self._index.get, self.unk_id
        return [i if (i := get(t)) is not None else get(t.lower(), unk) for t in tokens]


def load_embeddings(path, expected_dim=None):
    """Read "word v1 v2 ... vD" lines into (table, vocabulary).

    The table has PAD and UNK zero rows appended; the dimension is
    inferred from the first line unless ``expected_dim`` pins it.  A short
    or long vector, a component that is not a finite number, or a word
    listed twice is an error naming the file and line; so is a file with no
    vector.
    """
    line_of = {}  # word -> line of its vector
    vectors = []
    dim = expected_dim
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split()
            word, fields = parts[0], parts[1:]
            where = f"{path}: line {lineno}"
            if dim is None:
                dim = len(fields)
                if dim == 0:
                    raise ValueError(f"{where}: no vector components")
            if len(fields) != dim:
                raise ValueError(f"{where}: expected {dim} components, got {len(fields)}")
            try:
                vector = [float(v) for v in fields]
            except ValueError:
                raise ValueError(f"{where}: non-numeric field") from None
            if not np.isfinite(vector).all():
                raise ValueError(f"{where}: non-finite component")
            if word in line_of:
                raise ValueError(f"{where}: word {word!r} already on line {line_of[word]}")
            line_of[word] = lineno
            vectors.append(vector)
    if not vectors:
        raise ValueError(f"{path}: no word vectors")
    table = np.zeros((len(vectors) + 2, dim), dtype=np.float64)
    table[:len(vectors)] = np.asarray(vectors, dtype=np.float64)
    return table, Vocabulary(line_of)


def build_vocab_words(token_iter):
    """Unique tokens in first-occurrence order."""
    return list(dict.fromkeys(token_iter))


def random_embeddings(words, dim, seed):
    """Seeded random table for runs without a vector file; PAD/UNK are zero."""
    vocab = Vocabulary(words)
    rng = substream(seed, "embeddings")
    table = np.zeros((vocab.size, dim), dtype=np.float64)
    table[:len(vocab.words)] = 0.5 * rng.standard_normal((len(vocab.words), dim))
    return table, vocab
