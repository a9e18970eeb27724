"""Span finding and entity-level scoring, verified against brute-force
oracles and a write-back round-trip property."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab.conll import CorpusDocument, Sentence
from noisylab.evaluation import (
    annotation_quality,
    entity_prf,
    entity_spans,
    matrix_csv,
    parse_matrix_csv,
)
from noisylab.model import LabelSet, NoiseMatrix, theta_from_b
from noisylab.noise import estimate_confusion


def brute_force_spans(labels, o_index=0):
    """Independent run finder: group positions by scanning every index."""
    spans = set()
    i = 0
    n = len(labels)
    while i < n:
        if labels[i] == o_index:
            i += 1
            continue
        j = i
        while j + 1 < n and labels[j + 1] == labels[i]:
            j += 1
        spans.add((i, j, int(labels[i])))
        i = j + 1
    return spans


def spans_of(labels, lengths=None, o_index=0):
    """(start, end, class) tuples of ``entity_spans`` over one sentence, or
    over the sentences of ``lengths`` laid end to end."""
    lengths = [len(labels)] if lengths is None else lengths
    return list(zip(*(a.tolist() for a in entity_spans(labels, lengths, o_index))))


class TestExtractSpans:
    def test_two_runs(self):
        # PER PER O LOC
        assert spans_of([1, 1, 0, 3]) == [(0, 1, 1), (3, 3, 3)]

    def test_all_null(self):
        assert spans_of([0, 0, 0]) == []

    def test_adjacent_classes_split(self):
        assert spans_of([1, 3]) == [(0, 0, 1), (1, 1, 3)]
        assert brute_force_spans([1, 3]) == {(0, 0, 1), (1, 1, 3)}

    def test_empty_sequence(self):
        assert spans_of([]) == []

    def test_run_across_sentence_boundary_is_two_spans(self):
        # PER PER | PER LOC: the PER run is cut where the second sentence starts
        assert spans_of([1, 1, 1, 3], lengths=[2, 2]) == [(0, 1, 1), (2, 2, 1), (3, 3, 3)]

    def test_zero_length_sentences(self):
        assert spans_of([2, 2], lengths=[0, 1, 0, 0, 1, 0]) == [(0, 0, 2), (1, 1, 2)]
        assert spans_of([], lengths=[0, 0]) == []

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, labels):
        assert set(spans_of(labels)) == brute_force_spans(labels)

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=4), max_size=8), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_per_sentence(self, sentences):
        expected, offset = [], 0
        for sentence in sentences:
            expected += sorted((s + offset, e + offset, c)
                               for s, e, c in brute_force_spans(sentence))
            offset += len(sentence)
        flat = [label for sentence in sentences for label in sentence]
        assert spans_of(flat, [len(s) for s in sentences]) == expected

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_write_back_round_trip(self, labels):
        written = [0] * len(labels)
        for start, end, label in spans_of(labels):
            written[start:end + 1] = [label] * (end + 1 - start)
        assert written == list(labels)


def brute_force_prf(gold_seqs, pred_seqs, label_set):
    """Set-intersection scoring, written independently of entity_prf."""
    counts = {name: [0, 0, 0] for name in label_set.classes if name != "O"}
    for gold, pred in zip(gold_seqs, pred_seqs):
        g = brute_force_spans(gold, label_set.o_index)
        p = brute_force_spans(pred, label_set.o_index)
        for span in g & p:
            counts[label_set.name(span[2])][0] += 1
        for span in p - g:
            counts[label_set.name(span[2])][1] += 1
        for span in g - p:
            counts[label_set.name(span[2])][2] += 1
    return counts


class TestEntityPRF:
    def setup_method(self):
        self.ls = LabelSet()

    def test_perfect_prediction(self):
        gold = [np.array([0, 1, 1, 0, 3]), np.array([2, 0, 4])]
        report = entity_prf(gold, [g.copy() for g in gold], self.ls)
        assert report.overall.precision == 1.0
        assert report.overall.recall == 1.0
        assert report.overall.f1 == 1.0
        for name, scores in report.per_class.items():
            if scores.support:
                assert scores.f1 == 1.0

    def test_partial_span_does_not_count(self):
        gold = [[0, 1, 1, 0]]
        pred = [[0, 1, 0, 0]]
        report = entity_prf(gold, pred, self.ls)
        per = report.per_class["PER"]
        assert per.precision == 0.0
        assert per.recall == 0.0
        assert per.f1 == 0.0

    def test_spurious_span_halves_precision(self):
        gold = [[1, 0, 0, 0]]
        pred = [[1, 0, 0, 3]]
        report = entity_prf(gold, pred, self.ls)
        assert report.overall.precision == 0.5
        assert report.overall.recall == 1.0
        assert report.overall.f1 == pytest.approx(2 / 3)

    def test_f1_zero_when_nothing_matches(self):
        report = entity_prf([[1, 1]], [[0, 0]], self.ls)
        assert report.per_class["PER"].f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            entity_prf([[0, 1]], [[0]], self.ls)

    def test_sequence_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            entity_prf([[0]], [], self.ls)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(0)
        gold_seqs, pred_seqs = [], []
        for _ in range(1000):
            n = int(rng.integers(0, 21))
            gold_seqs.append(rng.integers(0, 5, size=n))
            pred_seqs.append(rng.integers(0, 5, size=n))
        report = entity_prf(gold_seqs, pred_seqs, self.ls)
        brute = brute_force_prf(gold_seqs, pred_seqs, self.ls)
        for name, (tp, fp, fn) in brute.items():
            scores = report.per_class[name]
            assert (scores.tp, scores.fp, scores.fn) == (tp, fp, fn)

    def test_overall_counts_are_sums_of_per_class(self):
        rng = np.random.default_rng(1)
        gold = [rng.integers(0, 5, size=12) for _ in range(50)]
        pred = [rng.integers(0, 5, size=12) for _ in range(50)]
        report = entity_prf(gold, pred, self.ls)
        assert report.overall.tp == sum(s.tp for s in report.per_class.values())
        assert report.overall.fp == sum(s.fp for s in report.per_class.values())
        assert report.overall.fn == sum(s.fn for s in report.per_class.values())

    def test_span_ending_one_sentence_and_starting_the_next_counts_twice(self):
        # gold: PER at the end of sentence 0 and at the start of sentence 1;
        # predicting both sentences as all PER finds exactly those two spans
        gold = [[0, 1], [1, 0]]
        report = entity_prf(gold, [[0, 1], [1, 0]], self.ls)
        per = report.per_class["PER"]
        assert (per.tp, per.fp, per.fn) == (2, 0, 0)
        report = entity_prf(gold, [[1, 1], [1, 1]], self.ls)
        per = report.per_class["PER"]
        assert (per.tp, per.fp, per.fn) == (0, 2, 2)

    def test_zero_sentences_and_empty_sentences(self):
        for gold in ([], [[]], [[], [], []]):
            report = entity_prf(gold, [list(g) for g in gold], self.ls)
            assert (report.overall.tp, report.overall.fp, report.overall.fn) == (0, 0, 0)
            assert report.overall.f1 == 0.0
        report = entity_prf([[], [2], []], [[], [2], []], self.ls)
        assert report.per_class["ORG"].tp == 1

    @given(st.lists(st.tuples(st.lists(st.integers(0, 4), max_size=6),
                              st.lists(st.integers(0, 4), max_size=6)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_flat_form_matches_per_sentence_form(self, pairs):
        # each sentence's gold and predicted labels, cut to a common length;
        # empty sentences and runs across sentence boundaries both occur
        gold = [g[:len(p)] for g, p in pairs]
        pred = [p[:len(g)] for g, p in pairs]
        gold += [[], [2, 2], [2, 0]]
        pred += [[], [2, 2], [2, 0]]
        flat = entity_prf(sum(gold, []), sum(pred, []), self.ls, [len(g) for g in gold])
        per_sentence = entity_prf(gold, pred, self.ls)
        assert flat.as_dict() == per_sentence.as_dict()
        brute = brute_force_prf(gold, pred, self.ls)
        assert {n: [s.tp, s.fp, s.fn] for n, s in flat.per_class.items()} == brute

    def test_flat_form_rejects_labels_that_lengths_do_not_cover(self):
        with pytest.raises(ValueError, match="2 gold and 3 predicted labels for 2 tokens"):
            entity_prf([0, 1], [0, 1, 1], self.ls, [2])
        with pytest.raises(ValueError, match="for 3 tokens"):
            entity_prf([0, 1], [0, 1], self.ls, [1, 2])

    def test_counts_are_python_ints(self):
        report = entity_prf([np.array([1, 0, 2])], [np.array([1, 0, 0])], self.ls)
        counts = [getattr(s, f) for s in report.per_class.values() for f in ("tp", "fp", "fn")]
        assert all(type(c) is int for c in counts)
        json.dumps(report.as_dict())


class TestTokenConfusion:
    """Token-level confusion of predictions, gold classes as rows."""

    def test_perfect_prediction_is_diagonal(self):
        gold = np.array([0, 1, 2, 1])
        counts = estimate_confusion(gold, gold, k=3).counts
        np.testing.assert_array_equal(counts, np.diag([1, 2, 1]))

    def test_constant_null_prediction(self):
        gold = np.array([0, 1, 2])
        counts = estimate_confusion(gold, np.zeros(3, dtype=int), k=3).counts
        np.testing.assert_array_equal(counts[:, 0], np.ones(3, dtype=int))
        assert counts[:, 1:].sum() == 0

    def test_hand_counted(self):
        counts = estimate_confusion([0, 1, 1], [1, 1, 0], k=2).counts
        np.testing.assert_array_equal(counts, np.array([[0, 1], [1, 1]]))


class TestMatrixReports:
    def test_theta_report_round_trip(self):
        ls = LabelSet()
        noise = NoiseMatrix(np.eye(5))
        text = matrix_csv(noise.theta(), ls)
        classes, matrix = parse_matrix_csv(text)
        assert classes == list(ls.classes)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(matrix, theta_from_b(np.eye(5)), atol=1e-12)

    def test_identity_init_report_structure(self):
        ls = LabelSet()
        _, matrix = parse_matrix_csv(matrix_csv(NoiseMatrix(np.eye(5)).theta(), ls))
        assert matrix[0, 0] == pytest.approx(np.e / (np.e + 4), abs=1e-12)

    def test_matrix_csv_full_precision(self):
        ls = LabelSet(("O", "X"))
        m = np.array([[1 / 3, 2 / 3], [0.1, 0.9]])
        _, parsed = parse_matrix_csv(matrix_csv(m, ls))
        np.testing.assert_array_equal(parsed, m)

    @given(names=st.lists(st.text("ABCXYZ-_0123456789", min_size=1, max_size=4), unique=True,
                          min_size=1, max_size=5),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matrix_csv_round_trip(self, names, data):
        ls = LabelSet(["O"] + names)
        m = np.array(data.draw(st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=ls.k,
                     max_size=ls.k), min_size=ls.k, max_size=ls.k)))
        classes, parsed = parse_matrix_csv(matrix_csv(m, ls))
        assert classes == list(ls.classes)
        np.testing.assert_array_equal(parsed, m)


def _corpus(sentences):
    return CorpusDocument(sentences=[Sentence(tokens=t, labels=l) for t, l in sentences])


class TestAnnotationQuality:
    def test_identical_corpora_score_one(self):
        gold = _corpus([(["a", "b"], ["O", "PER"]), (["c"], ["LOC"])])
        report = annotation_quality(gold, gold)
        assert report.overall.f1 == 1.0

    def test_never_emitting_misc_zeroes_its_row(self):
        gold = _corpus([(["a", "b", "c"], ["MISC", "MISC", "O"])])
        auto = _corpus([(["a", "b", "c"], ["O", "O", "O"])])
        report = annotation_quality(gold, auto)
        misc = report.per_class["MISC"]
        assert (misc.precision, misc.recall, misc.f1) == (0.0, 0.0, 0.0)
        assert misc.support == 1

    def test_token_mismatch_rejected(self):
        gold = _corpus([(["a"], ["O"])])
        auto = _corpus([(["b"], ["O"])])
        with pytest.raises(ValueError):
            annotation_quality(gold, auto)

    @pytest.mark.parametrize("auto_sentences, number", [
        ([(["a", "b"], ["O", "O"]), (["c", "x"], ["O", "O"])], 2),
        ([(["a", "b"], ["O", "O"])], 2),
        ([(["a", "b"], ["O", "O"]), (["c", "d"], ["O", "O"]), (["e"], ["O"])], 3),
    ], ids=["token", "fewer-sentences", "more-sentences"])
    def test_mismatch_names_the_first_differing_sentence(self, auto_sentences, number):
        gold = _corpus([(["a", "b"], ["O", "O"]), (["c", "d"], ["O", "O"])])
        with pytest.raises(ValueError) as err:
            annotation_quality(gold, _corpus(auto_sentences))
        assert str(err.value) == (f"gold corpus and automatic corpus differ at "
                                  f"sentence {number}")
