"""Entity-level precision/recall/F1, token confusion, and matrix reports.

Labels carry no B-/I- prefixes here: an entity span is a maximal run of
one non-O class, and a predicted span counts only when start, end, and
class all match a gold span.
"""

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import LabelSet
from .noise import estimate_confusion


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int  # inclusive
    label: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"span start {self.start} after end {self.end}")


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


def extract_spans(labels: Sequence[int], o_index=0) -> list[EntitySpan]:
    """Maximal runs of one non-O class, as (start, end inclusive, class)."""
    spans = []
    start = None
    current = o_index
    for i, label in enumerate(labels):
        label = int(label)
        if label != current:
            if current != o_index:
                spans.append(EntitySpan(start, i - 1, current))
            start = i
            current = label
    if current != o_index and len(labels):
        spans.append(EntitySpan(start, len(labels) - 1, current))
    return spans


def spans_to_labels(spans: Iterable[EntitySpan], length: int, o_index=0) -> list[int]:
    """Write spans back onto a sequence of O labels."""
    labels = [o_index] * length
    for span in spans:
        for i in range(span.start, span.end + 1):
            labels[i] = span.label
    return labels


def entity_prf(gold_sequences, predicted_sequences, label_set: LabelSet) -> PRFReport:
    """Span-exact scoring; micro-averaged overall counts sum the per-class ones."""
    if len(gold_sequences) != len(predicted_sequences):
        raise ValueError(
            f"{len(gold_sequences)} gold vs {len(predicted_sequences)} predicted sequences"
        )
    o = label_set.o_index
    per_class = {
        name: ClassScores() for i, name in enumerate(label_set.classes) if i != o
    }
    for seq_index, (gold, pred) in enumerate(zip(gold_sequences, predicted_sequences)):
        if len(gold) != len(pred):
            raise ValueError(f"sequence {seq_index}: length {len(gold)} vs {len(pred)}")
        gold_spans = set(extract_spans(gold, o))
        pred_spans = set(extract_spans(pred, o))
        for span in gold_spans & pred_spans:
            per_class[label_set.name(span.label)].tp += 1
        for span in pred_spans - gold_spans:
            per_class[label_set.name(span.label)].fp += 1
        for span in gold_spans - pred_spans:
            per_class[label_set.name(span.label)].fn += 1
    overall = ClassScores(
        tp=sum(s.tp for s in per_class.values()),
        fp=sum(s.fp for s in per_class.values()),
        fn=sum(s.fn for s in per_class.values()),
    )
    return PRFReport(per_class=per_class, overall=overall)


def token_confusion(gold_labels, predicted_labels, k):
    """Token-level confusion counts with gold classes as rows."""
    return estimate_confusion(gold_labels, predicted_labels, k).counts


def matrix_csv(matrix, label_set: LabelSet, corner="clean\\noisy") -> str:
    """Labeled CSV of a k-by-k matrix; rows are clean classes, columns noisy."""
    matrix = np.asarray(matrix)
    lines = [",".join([corner] + list(label_set.classes))]
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


def theta_report(noise, label_set: LabelSet) -> str:
    """CSV of the current noise channel matrix (rows: clean, columns: noisy)."""
    return matrix_csv(noise.theta(), label_set)


def annotation_quality(gold_corpus, auto_corpus, label_set=None) -> PRFReport:
    """Entity-level scores of automatic labels against gold labels."""
    label_set = label_set or LabelSet()
    if len(gold_corpus.sentences) != len(auto_corpus.sentences):
        raise ValueError("corpora differ in sentence count")
    gold_seqs, auto_seqs = [], []
    for idx, (g, a) in enumerate(zip(gold_corpus.sentences, auto_corpus.sentences)):
        if g.tokens != a.tokens:
            raise ValueError(f"sentence {idx}: token mismatch")
        gold_seqs.append(label_set.encode(g.labels))
        auto_seqs.append(label_set.encode(a.labels))
    return entity_prf(gold_seqs, auto_seqs, label_set)
