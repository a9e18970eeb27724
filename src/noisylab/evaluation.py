"""Entity-level precision/recall/F1 and matrix reports.

Labels carry no B-/I- prefixes here: an entity span is a maximal run of
one non-O class, and a predicted span counts only when start, end, and
class all match a gold span.
"""

import json
from dataclasses import dataclass

import numpy as np

from .conll import check_aligned
from .model import LabelSet


@dataclass
class ClassScores:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def support(self):
        return self.tp + self.fn

    @property
    def precision(self):
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self):
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class PRFReport:
    """Per-class and micro-averaged overall precision/recall/F1."""

    per_class: dict
    overall: ClassScores

    def as_dict(self):
        def row(scores):
            return {
                "precision": scores.precision,
                "recall": scores.recall,
                "f1": scores.f1,
                "support": scores.support,
                "tp": scores.tp,
                "fp": scores.fp,
                "fn": scores.fn,
            }
        return {
            "per_class": {name: row(s) for name, s in self.per_class.items()},
            "overall": row(self.overall),
        }

    def as_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def as_csv(self):
        lines = ["class,precision,recall,f1,support"]
        for name, s in self.per_class.items():
            lines.append(f"{name},{s.precision!r},{s.recall!r},{s.f1!r},{s.support}")
        o = self.overall
        lines.append(f"overall,{o.precision!r},{o.recall!r},{o.f1!r},{o.support}")
        return "\n".join(lines) + "\n"


def entity_spans(labels, lengths, o_index=0):
    """Entity spans of sentences laid end to end, as three int64 arrays in
    order: start, end (inclusive) and class.

    ``labels`` holds the sentences of ``lengths`` end to end; a span is a
    maximal run of one non-O class inside one sentence, so a run that
    crosses a sentence boundary is two spans.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    # cut[i]: a run starts at position i (0 <= i < n) and one ends before it
    cut = np.ones(n + 1, bool)
    np.not_equal(labels[1:], labels[:-1], out=cut[1:n])
    cut[np.cumsum(lengths, dtype=np.int64)] = True
    entity = labels != o_index
    starts = np.flatnonzero(cut[:-1] & entity)
    ends = np.flatnonzero(cut[1:] & entity)
    return starts, ends, labels[starts]


def entity_prf(gold, predicted, label_set: LabelSet, lengths=None) -> PRFReport:
    """Span-exact scoring; micro-averaged overall counts sum the per-class ones.

    With ``lengths``, ``gold`` and ``predicted`` are label arrays that hold
    the sentences of ``lengths`` end to end.  Without it they are
    per-sentence sequences, which must match sentence for sentence and are
    then laid end to end.  The spans of all sentences are found in one pass
    over those labels.  Each span is keyed as one int (start, end, class),
    a true positive is a key found on both sides, and the counts per class
    are ``bincount``s of the keys' classes.
    """
    if lengths is None:
        if len(gold) != len(predicted):
            raise ValueError(f"{len(gold)} gold vs {len(predicted)} predicted sequences")
        lengths = np.array([len(g) for g in gold], dtype=np.int64)
        predicted_lengths = np.array([len(p) for p in predicted], dtype=np.int64)
        differ = np.flatnonzero(lengths != predicted_lengths)
        if differ.size:
            i = differ[0]
            raise ValueError(f"sequence {i}: length {lengths[i]} vs {predicted_lengths[i]}")
        gold, predicted = (np.concatenate(s) if len(s) else () for s in (gold, predicted))
    n = int(np.sum(lengths))
    if not len(gold) == len(predicted) == n:
        raise ValueError(f"{len(gold)} gold and {len(predicted)} predicted labels "
                         f"for {n} tokens")
    o, k = label_set.o_index, label_set.k

    def keys_and_counts(labels):
        starts, ends, classes = entity_spans(labels, lengths, o)
        return (starts * n + ends) * k + classes, np.bincount(classes, minlength=k)

    gold_keys, gold_counts = keys_and_counts(gold)
    predicted_keys, predicted_counts = keys_and_counts(predicted)
    matched = np.intersect1d(gold_keys, predicted_keys, assume_unique=True)
    tp = np.bincount(matched % k, minlength=k)
    per_class = {
        name: ClassScores(tp=int(tp[i]), fp=int(predicted_counts[i] - tp[i]),
                          fn=int(gold_counts[i] - tp[i]))
        for i, name in enumerate(label_set.classes) if i != o
    }
    overall = ClassScores(
        tp=sum(s.tp for s in per_class.values()),
        fp=sum(s.fp for s in per_class.values()),
        fn=sum(s.fn for s in per_class.values()),
    )
    return PRFReport(per_class=per_class, overall=overall)


def matrix_csv(matrix, label_set: LabelSet) -> str:
    """Labeled CSV of a k-by-k matrix; rows are clean classes, columns noisy."""
    matrix = np.asarray(matrix)
    lines = [",".join(["clean\\noisy"] + list(label_set.classes))]
    for i, name in enumerate(label_set.classes):
        lines.append(",".join([name] + [repr(float(v)) for v in matrix[i]]))
    return "\n".join(lines) + "\n"


def parse_matrix_csv(text):
    """Inverse of :func:`matrix_csv`; returns (class names, matrix).

    The row names must repeat the header's class names, in order.  A short
    or long row, or a cell that is not a number, is an error naming its line.
    """
    lines = [(n, line) for n, line in enumerate(text.split("\n"), 1) if line.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    classes = lines[0][1].split(",")[1:]
    names, rows = [], []
    for n, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(classes) + 1:
            raise ValueError(f"line {n}: {len(cells) - 1} values for {len(classes)} classes")
        try:
            rows.append([float(v) for v in cells[1:]])
        except ValueError as err:
            raise ValueError(f"line {n}: {err}") from None
        names.append(cells[0])
    if names != classes:
        raise ValueError(f"row names {names} differ from the header's {classes}")
    return classes, np.array(rows)


def annotation_quality(gold_corpus, auto_corpus, label_set=None) -> PRFReport:
    """Entity-level scores of automatic labels against gold labels."""
    label_set = label_set or LabelSet()
    check_aligned(gold_corpus, auto_corpus, ("gold corpus", "automatic corpus"))
    return entity_prf(label_set.encode(gold_corpus.flat_labels()),
                      label_set.encode(auto_corpus.flat_labels()), label_set,
                      [len(s) for s in gold_corpus.sentences])
