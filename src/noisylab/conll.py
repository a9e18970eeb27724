"""CoNLL-style corpus files: one token per line, whitespace-separated
columns with the tag last, blank line between sentences, -DOCSTART- lines
marking document boundaries."""

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Optional

DOCSTART = "-DOCSTART-"


@dataclass
class Sentence:
    tokens: list
    labels: Optional[list] = None

    def __len__(self):
        return len(self.tokens)


@dataclass
class CorpusDocument:
    """Sentences plus the indices of sentences that open a new document."""

    sentences: list = field(default_factory=list)
    doc_starts: list = field(default_factory=list)

    @property
    def token_count(self):
        return sum(len(s) for s in self.sentences)

    @property
    def labeled(self):
        return bool(self.sentences) and all(
            s.labels is not None for s in self.sentences
        )

    def all_tokens(self):
        for s in self.sentences:
            yield from s.tokens

    def flat_labels(self):
        out = []
        for s in self.sentences:
            if s.labels is None:
                raise ValueError("corpus is not fully labeled")
            out.extend(s.labels)
        return out


def parse_conll(text, label_set=None) -> CorpusDocument:
    """Parse CoNLL text; tolerant of extra middle columns (POS, chunk).

    Lines with a single column are unlabeled tokens; a sentence's tokens
    are either all tagged or all untagged.  When ``label_set`` is given,
    tags are validated.  Errors name the offending line.
    """
    corpus = CorpusDocument()
    tokens: list = []
    labels: list = []
    untagged = 0  # tokens of the open sentence without a tag
    pending_docstart = False

    def flush(end):
        """Close the sentence whose last line is line ``end`` - 1."""
        nonlocal tokens, labels, untagged, pending_docstart
        if tokens:
            if 0 < untagged < len(labels):
                first = labels[0] is None
                i = next(i for i, tag in enumerate(labels) if (tag is None) != first)
                raise ValueError(f"line {end - len(labels) + i}: sentence mixes tagged "
                                 f"and untagged tokens")
            corpus.sentences.append(
                Sentence(tokens=tokens, labels=None if untagged else labels)
            )
            if pending_docstart:
                corpus.doc_starts.append(len(corpus.sentences) - 1)
                pending_docstart = False
        tokens, labels, untagged = [], [], 0

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            flush(lineno)
            continue
        if line.startswith(DOCSTART):
            flush(lineno)
            pending_docstart = True
            continue
        cols = line.split()
        if len(cols) > 1:
            tag = cols[-1]
            if label_set is not None and tag not in label_set.classes:
                raise ValueError(f"line {lineno}: tag {tag!r} not in label set")
        else:
            tag = None
            untagged += 1
        tokens.append(cols[0])
        labels.append(tag)
    flush(lineno + 1)
    return corpus


def check_aligned(first, second, names):
    """Raise unless corpora ``first`` and ``second`` hold the same sentences
    of the same tokens; the error names both, as ``names``, and the first
    sentence that differs, counted from 1."""
    pairs = zip_longest(first.sentences, second.sentences)
    for number, (a, b) in enumerate(pairs, start=1):
        if a is None or b is None or a.tokens != b.tokens:
            raise ValueError(f"{names[0]} and {names[1]} differ at sentence {number}")


def write_conll(corpus: CorpusDocument) -> str:
    """Serialize a corpus; inverse of :func:`parse_conll` for tokens, tags,
    sentence boundaries, and document boundaries."""
    doc_starts = set(corpus.doc_starts)
    lines = []
    for idx, sentence in enumerate(corpus.sentences):
        if idx in doc_starts:
            lines.append(f"{DOCSTART} O" if sentence.labels is not None else DOCSTART)
            lines.append("")
        for pos, token in enumerate(sentence.tokens):
            if sentence.labels is not None and sentence.labels[pos] is not None:
                lines.append(f"{token} {sentence.labels[pos]}")
            else:
                lines.append(token)
        lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")
