"""CoNLL parsing and writing, embedding files, configs, and clean-subset
sampling."""

import dataclasses
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab.config import CHOICES, RANGES, ExperimentConfig
from noisylab.conll import CorpusDocument, Sentence, parse_conll, write_conll
from noisylab.data import build_channel_spec, corpus_windows, prepare, sample_clean_subset
from noisylab.embeddings import (
    Vocabulary,
    build_vocab_words,
    load_embeddings,
    random_embeddings,
)
from noisylab.gazetteer import Gazetteer, annotate
from noisylab.model import LabelSet
from noisylab.noise import apply_channel
from noisylab.rng import substream


class TestParseConll:
    def test_sentence_split_on_blank_line(self):
        corpus = parse_conll("alpha O\nbeta PER\n\ngamma O\n")
        assert len(corpus.sentences) == 2
        assert corpus.sentences[0].tokens == ["alpha", "beta"]
        assert corpus.sentences[0].labels == ["O", "PER"]
        assert corpus.sentences[1].tokens == ["gamma"]

    def test_docstart_line_skipped_and_boundary_recorded(self):
        text = "-DOCSTART- -X- O O\n\nalpha O\n\n-DOCSTART- -X- O O\n\nbeta O\n"
        corpus = parse_conll(text)
        assert [s.tokens for s in corpus.sentences] == [["alpha"], ["beta"]]
        assert corpus.doc_starts == [0, 1]

    def test_empty_file(self):
        corpus = parse_conll("")
        assert corpus.sentences == []
        assert corpus.token_count == 0

    def test_extra_middle_columns_tolerated(self):
        corpus = parse_conll("Britain NNP I-NP LOC\n")
        assert corpus.sentences[0].tokens == ["Britain"]
        assert corpus.sentences[0].labels == ["LOC"]

    def test_unknown_tag_names_line(self):
        with pytest.raises(ValueError) as err:
            parse_conll("alpha O\nbeta BAD\n", LabelSet())
        assert "line 2" in str(err.value)

    def test_unlabeled_single_column(self):
        corpus = parse_conll("alpha\nbeta\n")
        assert corpus.sentences[0].labels is None

    @pytest.mark.parametrize("text, line", [
        ("alpha O\nbeta\ngamma O\n", 2),
        ("alpha O\n\nbeta\ngamma\ndelta PER\n", 5),
        ("-DOCSTART- O\n\nalpha\nbeta LOC", 4),
    ], ids=["untagged-after-tagged", "tagged-after-untagged", "no-final-newline"])
    def test_sentence_mixing_tagged_and_untagged_tokens_names_line(self, text, line):
        with pytest.raises(ValueError) as err:
            parse_conll(text)
        assert str(err.value) == f"line {line}: sentence mixes tagged and untagged tokens"

    def test_round_trip_lossless(self):
        text = "-DOCSTART- O\n\nalpha O\nbeta PER\n\ngamma LOC\n\n-DOCSTART- O\n\ndelta O\n"
        corpus = parse_conll(text, LabelSet())
        again = parse_conll(write_conll(corpus), LabelSet())
        assert [s.tokens for s in again.sentences] == [s.tokens for s in corpus.sentences]
        assert [s.labels for s in again.sentences] == [s.labels for s in corpus.sentences]
        assert again.doc_starts == corpus.doc_starts


# whitespace-free tokens; a token starting -DOCSTART- would read as a marker
TOKENS = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1,
                 max_size=6).filter(lambda t: not t.startswith("-DOCSTART-"))
TAGS = st.sampled_from(LabelSet().classes)


@st.composite
def corpora(draw):
    sentences = []
    for tokens in draw(st.lists(st.lists(TOKENS, min_size=1, max_size=6), max_size=6)):
        # a sentence's tokens are either all tagged or all untagged
        n = len(tokens)
        labels = draw(st.one_of(st.none(), st.lists(TAGS, min_size=n, max_size=n)))
        sentences.append(Sentence(tokens, labels))
    starts = draw(st.sets(st.integers(0, len(sentences) - 1))) if sentences else set()
    return CorpusDocument(sentences=sentences, doc_starts=sorted(starts))


class TestConllRoundTrip:
    @given(corpora())
    @settings(max_examples=200, deadline=None)
    def test_write_then_parse_is_lossless(self, corpus):
        again = parse_conll(write_conll(corpus), LabelSet())
        assert again == corpus


class TestEmbeddings:
    def test_two_words_give_vocab_of_four(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("alpha 0.1 0.2 0.3\nbeta -1 0 1\n", encoding="utf-8")
        table, vocab = load_embeddings(path)
        assert vocab.size == 4
        assert table.shape == (4, 3)
        np.testing.assert_array_equal(table[vocab.pad_id], 0.0)
        np.testing.assert_array_equal(table[vocab.unk_id], 0.0)
        np.testing.assert_allclose(table[vocab.encode(["alpha"])[0]], [0.1, 0.2, 0.3])

    def test_wrong_component_count_names_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("alpha 0.1 0.2\nbeta 1 2 3\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_embeddings(path)
        assert "line 2" in str(err.value)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("alpha x y\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_embeddings(path)
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_component_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "vectors.txt"
        path.write_text(f"alpha 0.1 0.2\nbeta 1 {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: non-finite component") as err:
            load_embeddings(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_file_without_vectors_names_the_file(self, tmp_path, text):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: no word vectors"

    def test_word_listed_twice_names_both_lines(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 2\nb 3 4\na 5 6\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: line 3: word 'a' already on line 1"
        # case differs, so these are two words
        path.write_text("a 1 2\nA 3 4\n", encoding="utf-8")
        _, vocab = load_embeddings(path)
        assert vocab.encode(["a", "A"]) == [0, 1]

    def test_write_then_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        words = ["one", "two", "three"]
        table = rng.standard_normal((3, 5))
        path = tmp_path / "vectors.txt"
        path.write_text("".join(word + " " + " ".join(repr(float(v)) for v in row) + "\n"
                                for word, row in zip(words, table)), encoding="utf-8")
        loaded, vocab = load_embeddings(path)
        np.testing.assert_array_equal(loaded[:3], table)
        assert vocab.words == words

    def test_lowercase_fallback(self):
        vocab = Vocabulary(["britain", "Paris"])
        assert vocab.encode(["Paris", "BRITAIN".lower(), "Britain", "unknown-token"]) == [
            1, 0, 0, vocab.unk_id]

    @given(words=st.lists(st.sampled_from(["paris", "Paris", "ROME", "rome", "Oslo", "x"]),
                          unique=True),
           tokens=st.lists(st.sampled_from(["paris", "Paris", "PARIS", "Rome", "ROME", "rome",
                                            "oslo", "Oslo", "x", "X", "y"]), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_encode_is_exact_then_lowercase_then_unk(self, words, tokens):
        def expected(token):
            for form in (token, token.lower()):
                if form in words:
                    return words.index(form)
            return len(words) + 1

        vocab = Vocabulary(words)
        assert vocab.encode(tokens) == [expected(t) for t in tokens]
        assert [vocab.encode([t])[0] for t in tokens] == [expected(t) for t in tokens]

    def test_random_embeddings_seeded(self):
        words = build_vocab_words(["a", "b", "a", "c"])
        assert words == ["a", "b", "c"]
        t1, _ = random_embeddings(words, dim=8, seed=3)
        t2, _ = random_embeddings(words, dim=8, seed=3)
        np.testing.assert_array_equal(t1, t2)
        t3, _ = random_embeddings(words, dim=8, seed=4)
        assert not np.array_equal(t1, t3)


class TestSampleCleanSubset:
    def _corpus(self, n_sentences=50, tokens_per=10):
        text = "\n\n".join(
            "\n".join(f"tok{s}_{t} O" for t in range(tokens_per))
            for s in range(n_sentences)
        ) + "\n"
        return parse_conll(text)

    def test_full_budget_takes_everything(self):
        corpus = self._corpus(5, 4)
        chosen = sample_clean_subset(corpus, 20, seed=0)
        assert chosen.dtype == bool and chosen.shape == (5,)
        assert chosen.all()

    def test_budget_reached_with_whole_sentences(self):
        corpus = self._corpus(50, 10)
        chosen = sample_clean_subset(corpus, 95, seed=1)
        assert chosen.shape == (50,)
        # whole 10-token sentences, and no more of them than reach 95 tokens
        assert int(chosen.sum()) * 10 >= 95
        assert (int(chosen.sum()) - 1) * 10 < 95

    def test_same_seed_same_split(self):
        corpus = self._corpus(30, 7)
        np.testing.assert_array_equal(sample_clean_subset(corpus, 50, seed=9),
                                      sample_clean_subset(corpus, 50, seed=9))

    def test_different_seed_differs(self):
        corpus = self._corpus(30, 7)
        a = sample_clean_subset(corpus, 50, seed=1)
        b = sample_clean_subset(corpus, 50, seed=2)
        assert not np.array_equal(a, b)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            sample_clean_subset(self._corpus(2, 2), 0, seed=0)

    def test_excessive_budget_rejected(self):
        with pytest.raises(ValueError):
            sample_clean_subset(self._corpus(2, 2), 100, seed=0)


def sub_corpora(corpus, word_budget, seed):
    """(C, rest) as two CorpusDocuments, picked by walking the seeded
    permutation until the budget is reached: the sampler's old output."""
    order = substream(seed, "clean-subset").permutation(len(corpus.sentences))
    chosen, count = set(), 0
    for idx in order:
        chosen.add(int(idx))
        count += len(corpus.sentences[idx])
        if count >= word_budget:
            break
    return (CorpusDocument([s for i, s in enumerate(corpus.sentences) if i in chosen]),
            CorpusDocument([s for i, s in enumerate(corpus.sentences) if i not in chosen]))


def sub_corpus_splits(config, train, gazetteer, vocab):
    """C and N built from sub-corpora, each encoded, annotated and windowed
    on its own: the oracle for prepare's rows of one encoding."""
    label_set = config.label_set()
    clean, rest = sub_corpora(train, config.clean_budget, config.seed)
    noisy = train if config.noisy_scope == "all" else rest
    if config.noisy_source == "gazetteer":
        clean_z, noisy_z = (label_set.encode(chain.from_iterable(
            annotate((s.tokens for s in c.sentences), gazetteer))) for c in (clean, noisy))
    else:
        spec = build_channel_spec(config.channel_kind, label_set, config.seed,
                                  rho=config.channel_rho,
                                  permutation=config.channel_permutation,
                                  preset=config.channel_preset)
        clean_z, noisy_z = (apply_channel(label_set.encode(c.flat_labels()), spec, stream=s)
                            for c, s in ((clean, "clean-init"), (noisy, "noisy")))
    clean_split = corpus_windows(clean, vocab, "clean", label_set, y_names=clean.flat_labels())
    clean_split.z = clean_z
    noisy_split = corpus_windows(noisy, vocab, "noisy", label_set, y_names=noisy.flat_labels())
    noisy_split.z, noisy_split.eval_only_y, noisy_split.y = noisy_z, noisy_split.y, None
    return clean_split, noisy_split


TRAIN_WORDS = ["Paris", "paris", "John", "Smith", "Acme", "Corp", "the", "x"]
TOY_GAZETTEER = Gazetteer([("Paris", "LOC"), ("John Smith", "PER"), ("Acme Corp", "ORG"),
                           ("Acme", "ORG"), ("Smith", "PER")])


class TestPrepareSelectsRows:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_clean_and_noisy_equal_the_sub_corpus_construction(self, data):
        classes = LabelSet().classes
        sentences = [Sentence(*map(list, zip(*tagged))) if tagged else Sentence([], [])
                     for tagged in data.draw(st.lists(st.lists(st.tuples(
                         st.sampled_from(TRAIN_WORDS), st.sampled_from(classes)),
                         max_size=6), min_size=1, max_size=8))]
        train = CorpusDocument(sentences)
        total = train.token_count
        if total == 0:
            return
        kind = data.draw(st.sampled_from(["uniform", "permutation", "empirical"]))
        config = ExperimentConfig(
            seed=data.draw(st.integers(0, 50)),
            clean_budget=data.draw(st.integers(1, total)),
            noisy_scope=data.draw(st.sampled_from(["rest", "all"])),
            noisy_source=data.draw(st.sampled_from(["channel", "gazetteer"])),
            channel_kind=kind,
            channel_rho=data.draw(st.floats(0, 1)) if kind == "uniform" else 0.0,
            channel_permutation="O,ORG,PER,MISC,LOC",
            embedding_dim=3)
        held_out = parse_conll("Paris LOC\nx O\n\nJohn PER\n")
        prepared = prepare(config, train, held_out, held_out, gazetteer=TOY_GAZETTEER)
        expected = sub_corpus_splits(config, train, TOY_GAZETTEER, prepared.vocab)
        for got, want in zip((prepared.clean, prepared.noisy), expected):
            for field in ("token_ids", "sentence_lengths", "y", "z", "eval_only_y"):
                a, b = getattr(got, field), getattr(want, field)
                assert (a is None) == (b is None), field
                if a is not None:
                    assert a.dtype == b.dtype and a.shape == b.shape, field
                    np.testing.assert_array_equal(a, b, err_msg=field)


class TestExperimentConfig:
    def test_round_trip(self):
        config = ExperimentConfig(variant="base-model", seed=7, clean_budget=123,
                                  learning_rate=0.01, trainable_embeddings=True)
        again = ExperimentConfig.from_text(config.to_text())
        assert again == config

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_field_round_trips(self, data):
        text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
        values = {}
        for f in dataclasses.fields(ExperimentConfig):
            if f.name in CHOICES:
                strategy = st.sampled_from(CHOICES[f.name])
            elif f.type in (bool, "bool"):
                strategy = st.booleans()
            elif f.type in (int, "int"):
                strategy = st.integers(1, 2**40)
            elif RANGES.get(f.name) == "in [0, 1)":
                strategy = st.floats(0, 1, exclude_max=True)
            elif f.type in (float, "float"):
                strategy = st.floats(0, 1e300, exclude_min=f.name in RANGES)
            elif f.name == "labels":  # a label set: O and at least one other class
                strategy = st.lists(st.sampled_from(("PER", "ORG", "LOC", "MISC", "Ü")),
                                    min_size=1, unique=True).flatmap(
                    lambda names: st.permutations(["O", *names])).map(",".join)
            else:  # the reader strips a value's surrounding spaces
                strategy = text.map(str.strip)
            values[f.name] = data.draw(strategy, label=f.name)
        # the keys that a channel's kind reads must describe a valid channel
        kind = values["channel_kind"] if values["noisy_source"] == "channel" else None
        if kind == "uniform":
            values["channel_rho"] = data.draw(st.floats(0, 1), label="uniform channel_rho")
        elif kind == "permutation":
            values["labels"] = "O,PER,ORG,LOC,MISC"
            values["channel_permutation"] = ",".join(data.draw(
                st.permutations(LabelSet().classes), label="channel_permutation"))
        elif kind == "empirical" and not values["channel_matrix_path"]:
            values["labels"] = "O,PER,ORG,LOC,MISC"  # the preset's size
            values["channel_preset"] = "gazetteer-like"
        config = ExperimentConfig(**values)
        assert ExperimentConfig.from_text(config.to_text()) == config

    def test_defaults_preserved_for_missing_keys(self):
        config = ExperimentConfig.from_text("seed = 3\n")
        assert config.seed == 3
        assert config.variant == "noise-model"
        assert config.epochs == 40

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("not_a_key = 1\n")

    def test_key_given_twice_rejected_naming_both_lines(self):
        with pytest.raises(ValueError, match="line 3: key 'epochs' already set on line 1"):
            ExperimentConfig.from_text("epochs = 2\nseed = 1\nepochs = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("seed: 3\n")

    def test_comments_and_blanks_ignored(self):
        config = ExperimentConfig.from_text("# hello\n\nseed = 5\n")
        assert config.seed == 5

    def test_label_set(self):
        config = ExperimentConfig(labels="O,A,B", channel_kind="uniform")
        assert config.label_set().classes == ("O", "A", "B")

    @pytest.mark.parametrize("key, bad, kind", [
        ("epochs", "x", "an int"),
        ("seed", "1.5", "an int"),
        ("learning_rate", "fast", "a float"),
        ("channel_rho", "", "a float"),
        ("trainable_embeddings", "yes", "true or false"),
    ])
    def test_value_that_does_not_parse_names_line_and_key(self, key, bad, kind):
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_text(f"# comment\n{key} = {bad}\n")
        assert str(err.value) == f"line 2: {key} = {bad!r} is not {kind}"

    @pytest.mark.parametrize("key, bad, good", [
        ("dtype", "flaot32", "float32"),
        ("noisy_scope", "al", "all"),
        ("noisy_source", "gazeteer", "gazetteer"),
        ("variant", "noise-modle", "noise-cleaning-model"),
        ("pooling", "centre", "center"),
        ("channel_kind", "permutaion", "permutation"),
    ])
    def test_misspelt_choice_rejected(self, key, bad, good):
        allowed = {"dtype": "float32, float64", "noisy_scope": "rest, all",
                   "noisy_source": "channel, gazetteer",
                   "variant": "base-model, base-model-with-noise, noise-model, "
                              "noise-model-with-identity-init, noise-adaptation-model, "
                              "noise-cleaning-model",
                   "pooling": "final, center",
                   "channel_kind": "uniform, permutation, empirical"}[key]
        # the keys that the good value reads, set to valid values
        reads = {"channel_kind": {"channel_permutation": "O,PER,ORG,LOC,MISC"}}.get(key, {})
        text = "".join(f"{k} = {v}\n" for k, v in reads.items())
        for make in (lambda v: ExperimentConfig(**reads, **{key: v}),
                     lambda v: ExperimentConfig.from_text(f"{text}{key} = {v}\n")):
            with pytest.raises(ValueError) as err:
                make(bad)
            assert key in str(err.value) and repr(bad) in str(err.value)
            assert allowed in str(err.value)
            assert getattr(make(good), key) == good
        with pytest.raises(ValueError):
            dataclasses.replace(ExperimentConfig(), **{key: bad})


    @pytest.mark.parametrize("key, bad, bound", [
        ("seed", -1, ">= 0"),
        ("epochs", 0, "> 0"),
        ("batch_size", -32, "> 0"),
        ("eval_batch_size", 0, "> 0"),
        ("n_seeds", 0, "> 0"),
        ("clean_budget", 0, "> 0"),
        ("pretrain_epochs", -1, ">= 0"),
        ("learning_rate", 0.0, "> 0"),
        ("epsilon", float("nan"), "> 0"),
        ("beta1", 1.0, "in [0, 1)"),
        ("beta2", -0.5, "in [0, 1)"),
        ("noisy_factor", -1.0, ">= 0"),
        ("alpha", -0.1, "> 0"),
        ("alpha", 0.0, "> 0"),
        ("embedding_dim", 0, "> 0"),
        ("hidden_size", 0, "> 0"),
        ("dense_size", -3, "> 0"),
        ("cleaner_proj_size", 0, "> 0"),
        # inf meets these keys' bounds; only the finite check stops it
        ("learning_rate", float("inf"), "finite"),
        ("epsilon", float("inf"), "finite"),
        ("noisy_factor", float("inf"), "finite"),
        ("alpha", float("inf"), "finite"),
    ])
    def test_out_of_range_value_rejected(self, key, bad, bound):
        for make in (lambda: ExperimentConfig(**{key: bad}),
                     lambda: ExperimentConfig.from_text(f"{key} = {bad}\n"),
                     lambda: dataclasses.replace(ExperimentConfig(), **{key: bad})):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == f"{key} = {bad!r} must be {bound}"

    @pytest.mark.parametrize("keys, message", [
        ({"channel_preset": "gazeteer-like"},
         "channel_preset = 'gazeteer-like' is not one of gazetteer-like, "
         "and no channel_matrix_path is set"),
        ({"channel_kind": "permutation", "channel_permutation": "O,PER,ORG,LOC,MISX"},
         "channel_permutation = 'O,PER,ORG,LOC,MISX' must name each of "
         "O, PER, ORG, LOC, MISC once"),
        ({"channel_kind": "permutation", "channel_permutation": "O,PER,ORG,LOC"},
         "channel_permutation = 'O,PER,ORG,LOC' must name each of "
         "O, PER, ORG, LOC, MISC once"),
        ({"channel_kind": "permutation", "channel_permutation": "O,PER,PER,LOC,MISC"},
         "channel_permutation = 'O,PER,PER,LOC,MISC' must name each of "
         "O, PER, ORG, LOC, MISC once"),
        ({"channel_kind": "uniform", "channel_rho": 1.5},
         "channel_rho = 1.5 must be in [0, 1]"),
        ({"channel_kind": "uniform", "channel_rho": -0.1},
         "channel_rho = -0.1 must be in [0, 1]"),
        ({"labels": "O,A,B"},
         "channel_preset = 'gazetteer-like' is a channel over 5 classes, "
         "but labels = 'O,A,B' has 3"),
    ], ids=["preset", "unknown-class", "missing-class", "repeated-class", "rho-above",
            "rho-below", "preset-size"])
    def test_bad_channel_key_rejected(self, keys, message):
        text = "".join(f"{key} = {value}\n" for key, value in keys.items())
        for make in (lambda: ExperimentConfig(**keys),
                     lambda: ExperimentConfig.from_text(text),
                     lambda: dataclasses.replace(ExperimentConfig(), **keys)):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == message

    @pytest.mark.parametrize("keys", [
        # keys the chosen channel_kind does not read are not checked
        {"channel_kind": "uniform", "channel_rho": 0.3, "channel_preset": "none"},
        {"channel_kind": "permutation", "channel_permutation": "O, ORG,PER,LOC,MISC",
         "channel_rho": 2.0},
        {"channel_kind": "empirical", "channel_preset": "", "channel_matrix_path": "m.csv",
         "channel_permutation": "x"},
        {"channel_kind": "uniform", "channel_rho": 0.0},
        {"channel_kind": "uniform", "channel_rho": 1.0},
        # nor any channel key when labels come from a gazetteer
        {"noisy_source": "gazetteer", "channel_preset": "", "channel_rho": 5.0},
        {"noisy_source": "gazetteer", "channel_kind": "permutation"},
    ], ids=["uniform", "permutation", "matrix-file", "rho-0", "rho-1", "gazetteer",
            "gazetteer-permutation"])
    def test_channel_keys_not_read_are_accepted(self, keys):
        config = ExperimentConfig(**keys)
        assert ExperimentConfig.from_text(config.to_text()) == config

    def test_range_edges_accepted(self):
        config = ExperimentConfig(seed=0, pretrain_epochs=0, beta1=0.0, beta2=0.0,
                                  noisy_factor=0.0, alpha=1e-12, epochs=1, batch_size=1,
                                  eval_batch_size=1, n_seeds=1, clean_budget=1,
                                  embedding_dim=1, hidden_size=1, dense_size=1,
                                  cleaner_proj_size=1)
        assert ExperimentConfig.from_text(config.to_text()) == config


class TestCheckpointDtype:
    def test_float32_checkpoint_reloads_float32(self, tmp_path):
        from noisylab.checkpoint import load_checkpoint, save_checkpoint
        from noisylab.model import NoiseMatrix, WindowClassifier

        config = ExperimentConfig(dtype="float32", hidden_size=4, dense_size=3)
        assert config.numpy_dtype is np.float32
        vocab = Vocabulary(["alpha", "beta"])
        label_set = LabelSet()
        table = np.random.default_rng(0).standard_normal((vocab.size, 5))
        model = WindowClassifier(table, k=label_set.k, hidden_size=4, dense_size=3,
                                 dtype=config.numpy_dtype)
        noise = NoiseMatrix(np.eye(label_set.k), dtype=config.numpy_dtype)
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(path, model.state_dict(), vocab, label_set, config,
                        noise_b=noise.b_matrix())
        model2, _, _, config2, noise2, _ = load_checkpoint(path)
        assert config2.numpy_dtype is np.float32
        assert all(p.values.dtype == np.float32 for p in model2.parameters())
        assert noise2.logits.values.dtype == np.float32
        theta = noise2.theta_tensor().values  # the theta training multiplies by
        assert theta.dtype == np.float32
        np.testing.assert_array_equal(theta, noise.theta_tensor().values)


class TestCheckpointSave:
    def _save(self, path, hidden_size=4):
        from noisylab.checkpoint import save_checkpoint
        from noisylab.model import WindowClassifier

        config = ExperimentConfig(hidden_size=hidden_size, dense_size=3)
        vocab = Vocabulary(["alpha", "beta"])
        table = np.random.default_rng(0).standard_normal((vocab.size, 5))
        model = WindowClassifier(table, k=LabelSet().k, hidden_size=hidden_size,
                                 dense_size=3)
        save_checkpoint(path, model.state_dict(), vocab, LabelSet(), config,
                        noise_b=np.eye(5), selected_epoch=2, dev_f1_history=[0.1, 0.3, 0.5])
        return model

    def test_round_trip(self, tmp_path):
        from noisylab.checkpoint import load_checkpoint

        path = tmp_path / "checkpoint.npz"
        model = self._save(path)
        loaded, _, _, _, noise, extras = load_checkpoint(path)
        for name, values in model.state_dict().items():
            np.testing.assert_array_equal(loaded.state_dict()[name], values)
        np.testing.assert_array_equal(noise.b_matrix(), np.eye(5))
        assert extras == {"selected_epoch": 2, "dev_f1_history": [0.1, 0.3, 0.5]}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]

    def test_failed_save_leaves_no_temp_file_and_the_old_checkpoint(self, tmp_path,
                                                                    monkeypatch):
        from noisylab.checkpoint import load_checkpoint

        path = tmp_path / "checkpoint.npz"
        self._save(path, hidden_size=4)
        before = path.read_bytes()

        def fail_midway(fh, **arrays):
            fh.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            self._save(path, hidden_size=6)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]
        assert path.read_bytes() == before
        monkeypatch.undo()
        assert load_checkpoint(path)[3].hidden_size == 4
        with pytest.raises(OSError):
            monkeypatch.setattr(np, "savez", fail_midway)
            self._save(tmp_path / "fresh.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]

    def test_truncated_checkpoint_is_a_value_error_naming_the_file(self, tmp_path):
        from noisylab.checkpoint import load_checkpoint

        path = tmp_path / "checkpoint.npz"
        self._save(path)
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        with pytest.raises(ValueError, match="File is not a zip file") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_config_text_is_stored_as_utf8_bytes(self, tmp_path):
        from noisylab.checkpoint import load_checkpoint, save_checkpoint

        config = ExperimentConfig(hidden_size=4, dense_size=3,
                                  train_path="/data/korpus-ü/train.conll")
        vocab = Vocabulary(["alpha", "beta"])
        model = self._save(tmp_path / "unused.npz")
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(path, model.state_dict(), vocab, LabelSet(), config)
        with np.load(path) as data:
            stored = data["config_text"]
        assert stored.dtype == np.uint8
        assert stored.tobytes() == config.to_text().encode("utf-8")
        assert load_checkpoint(path)[3] == config

    def test_checkpoint_with_a_unicode_config_array_still_loads(self, tmp_path):
        from noisylab.checkpoint import load_checkpoint

        path = tmp_path / "checkpoint.npz"
        model = self._save(path)
        config = load_checkpoint(path)[3]
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["config_text"] = np.array(config.to_text())  # the older format
        np.savez(path, **arrays)
        loaded, _, _, config2, noise, extras = load_checkpoint(path)
        assert config2 == config
        for name, values in model.state_dict().items():
            np.testing.assert_array_equal(loaded.state_dict()[name], values)
        assert extras == {"selected_epoch": 2, "dev_f1_history": [0.1, 0.3, 0.5]}

    @pytest.mark.parametrize("array, values, message", [
        ("model_out_b", np.zeros(1), "model_out_b has shape (1,), expected (5,)"),
        ("model_out_w", np.zeros((3, 1)), "model_out_w has shape (3, 1), expected (3, 5)"),
        ("noise_b", np.eye(3), "noise_b has shape (3, 3), expected (5, 5)"),
        ("model_embedding", np.zeros((10, 5)),
         "model_embedding has shape (10, 5), expected (4, 5)"),
        ("model_embedding", np.zeros(4), "model_embedding has shape (4,), expected (4, 4)"),
        ("model_fw_rec", np.zeros((4, 12)), "model_fw_rec has shape (4, 12), expected (4, 16)"),
    ], ids=["out_b", "out_w", "noise_b", "embedding-rows", "embedding-1d", "fw_rec"])
    def test_array_of_the_wrong_shape_is_a_value_error_naming_it(self, tmp_path, array,
                                                                  values, message):
        from noisylab.checkpoint import load_checkpoint

        path = tmp_path / "checkpoint.npz"
        self._save(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        assert arrays[array].shape != values.shape
        arrays[array] = values
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("array, edit, message", [
        ("model_embedding", lambda a: np.full_like(a, np.nan), "model_embedding is not finite"),
        ("model_out_b", lambda a: np.where(np.arange(a.size) == 1, np.inf, a),
         "model_out_b is not finite"),
        ("noise_b", lambda a: np.where(np.eye(5, dtype=bool), np.nan, a), "noise_b is not finite"),
        ("model_fw_in", lambda a: a.astype(np.int64),
         "model_fw_in has dtype int64, expected a float dtype"),
        ("noise_b", lambda a: a.astype(bool), "noise_b has dtype bool, expected a float dtype"),
        ("model_fw_bias", lambda a: a.astype(np.float32),
         "model_fw_bias has dtype float32, expected float64"),
        ("noise_b", lambda a: a.astype(np.float32), "noise_b has dtype float32, expected float64"),
    ], ids=["embedding-nan", "out_b-inf", "noise_b-nan", "fw_in-int64", "noise_b-bool",
            "fw_bias-float32", "noise_b-float32"])
    def test_array_not_finite_or_not_float_is_a_value_error_naming_it(self, tmp_path, array,
                                                                       edit, message):
        from noisylab.checkpoint import load_checkpoint

        path = tmp_path / "checkpoint.npz"
        self._save(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays[array] = edit(arrays[array])
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("dropped", ["config_text", "model_fw_rec"])
    def test_missing_array_is_a_value_error_naming_it(self, tmp_path, dropped):
        from noisylab.checkpoint import load_checkpoint

        path = tmp_path / "checkpoint.npz"
        self._save(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files if key != dropped}
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"{dropped} is not a file in the archive") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
