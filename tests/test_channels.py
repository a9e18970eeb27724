"""Noise channels, confusion counting, and noise-layer initialization."""

import hashlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from noisylab.config import ExperimentConfig
from noisylab.data import prepare
from noisylab.model import LabelSet, theta_from_b
from noisylab.noise import (
    GAZETTEER_LIKE_MATRIX,
    ConfusionCounts,
    NoiseChannelSpec,
    apply_channel,
    estimate_confusion,
    init_noise_weights,
)
from noisylab.training import _init_noise_matrix
from noisylab.toydata import generate_corpus


class TestApplyChannel:
    def test_uniform_zero_rate_is_identity(self):
        labels = np.array([0, 1, 2, 3, 4, 0, 1])
        out = apply_channel(labels, NoiseChannelSpec.uniform(rho=0.0, k=5, seed=3))
        np.testing.assert_array_equal(out, labels)

    def test_identity_permutation_is_identity(self):
        labels = np.array([0, 2, 1, 2, 0])
        out = apply_channel(labels, NoiseChannelSpec.from_permutation([0, 1, 2]))
        np.testing.assert_array_equal(out, labels)

    def test_permutation_substitutes_deterministically(self):
        labels = np.array([0, 1, 2])
        out = apply_channel(labels, NoiseChannelSpec.from_permutation([1, 2, 0]))
        np.testing.assert_array_equal(out, np.array([1, 2, 0]))

    def test_seeded_reproducibility(self):
        labels = np.random.default_rng(0).integers(0, 5, size=1000)
        spec = NoiseChannelSpec.gazetteer_like(seed=11)
        np.testing.assert_array_equal(apply_channel(labels, spec), apply_channel(labels, spec))

    def test_different_seed_differs(self):
        labels = np.ones(500, dtype=np.int64)
        a = apply_channel(labels, NoiseChannelSpec.uniform(rho=0.5, k=5, seed=1))
        b = apply_channel(labels, NoiseChannelSpec.uniform(rho=0.5, k=5, seed=2))
        assert (a != b).any()

    def test_empirical_retention_rate_close_to_spec(self):
        # one low-recall row: PER keeps its label 26% of the time
        n = 10_000
        labels = np.full(n, 1, dtype=np.int64)
        spec = NoiseChannelSpec(GAZETTEER_LIKE_MATRIX, seed=7)
        out = apply_channel(labels, spec)
        retention = (out == 1).mean()
        assert abs(retention - 0.26) < 0.02

    def test_marginals_close_to_spec_for_all_classes(self):
        # every kind of channel is its matrix: each class's noisy labels
        # follow that class's row
        n = 10_000
        for spec in (NoiseChannelSpec.gazetteer_like(seed=21),
                     NoiseChannelSpec.uniform(rho=0.3, k=5, seed=22),
                     NoiseChannelSpec.from_permutation([3, 0, 4, 1, 2], seed=23)):
            for i in range(5):
                out = apply_channel(np.full(n, i, dtype=np.int64), spec)
                freq = np.bincount(out, minlength=5) / n
                np.testing.assert_allclose(freq, spec.matrix[i], atol=0.02)
        np.testing.assert_array_equal(NoiseChannelSpec.gazetteer_like().matrix,
                                      GAZETTEER_LIKE_MATRIX)

    def test_preset_draws_are_pinned(self):
        # the seeded labels of a preset channel are part of every result
        # built on it; a change of substream or sampler changes them
        labels = np.random.default_rng(0).integers(0, 5, size=20_000)
        out = apply_channel(labels, NoiseChannelSpec.gazetteer_like(seed=11), stream="noisy")
        assert hashlib.sha256(out.astype("<i8").tobytes()).hexdigest()[:16] == "6327289b6cbd3534"

    def test_uniform_marginals(self):
        n = 10_000
        rho = 0.3
        out = apply_channel(np.zeros(n, dtype=np.int64),
                            NoiseChannelSpec.uniform(rho=rho, k=5, seed=5))
        stay = (out == 0).mean()
        assert abs(stay - (1 - rho)) < 0.02
        for j in range(1, 5):
            assert abs((out == j).mean() - rho / 4) < 0.02

    def test_malformed_matrix_rejected(self):
        bad = np.array([[0.5, 0.2], [0.0, 1.0]])
        with pytest.raises(ValueError):
            NoiseChannelSpec(bad)

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            NoiseChannelSpec.uniform(rho=1.5, k=3)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(np.array([7]), NoiseChannelSpec.uniform(rho=0.1, k=5))


class TestEstimateConfusion:
    def test_equal_sequences_are_diagonal(self):
        y = np.array([0, 1, 2, 1, 0])
        counts = estimate_confusion(y, y, k=3).counts
        np.testing.assert_array_equal(counts, np.diag([2, 2, 1]))

    def test_hand_counted_case(self):
        counts = estimate_confusion([0, 0, 1], [0, 1, 1], k=2).counts
        np.testing.assert_array_equal(counts, np.array([[1, 1], [0, 1]]))

    def test_empty_input_all_zero(self):
        counts = estimate_confusion([], [], k=4).counts
        np.testing.assert_array_equal(counts, np.zeros((4, 4)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_confusion([0, 1], [0], k=2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            estimate_confusion([0, 3], [0, 1], k=2)

    def test_row_totals(self):
        counts = estimate_confusion([0, 0, 1], [0, 1, 1], k=2).counts
        np.testing.assert_array_equal(counts.sum(axis=1), np.array([2, 1]))


class TestInitNoiseWeights:
    def test_hand_arithmetic(self):
        counts = ConfusionCounts(np.array([[10, 0], [0, 10]]))
        b = init_noise_weights(counts, alpha=1.0)
        np.testing.assert_allclose(b[0], [np.log(11 / 12), np.log(1 / 12)], atol=1e-15)
        np.testing.assert_allclose(theta_from_b(b)[0], [11 / 12, 1 / 12], atol=1e-15)

    def test_empty_row_becomes_uniform(self):
        counts = ConfusionCounts(np.zeros((5, 5), dtype=int))
        theta = theta_from_b(init_noise_weights(counts, alpha=1.0))
        np.testing.assert_allclose(theta, 0.2, atol=1e-15)

    def test_noiseless_corpus_gives_near_identity(self):
        y = np.random.default_rng(0).integers(0, 3, size=400)
        counts = estimate_confusion(y, y, k=3)
        theta = theta_from_b(init_noise_weights(counts, alpha=1.0))
        assert (counts.counts.sum(axis=1) >= 50).all()
        assert (np.diag(theta) > 0.9).all()

    def test_softmax_reproduces_smoothed_rows_exactly(self):
        rng = np.random.default_rng(1)
        counts = ConfusionCounts(rng.integers(0, 40, size=(5, 5)))
        alpha = 0.7
        theta = theta_from_b(init_noise_weights(counts, alpha=alpha))
        c = counts.counts.astype(float)
        smoothed = (c + alpha) / (c.sum(axis=1, keepdims=True) + 5 * alpha)
        np.testing.assert_allclose(theta, smoothed, atol=1e-12)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            init_noise_weights(ConfusionCounts(np.zeros((2, 2), dtype=int)), alpha=0.0)


class TestIdentityInit:
    def test_shape_and_values(self):
        for dtype in ("float64", "float32"):
            noise = _init_noise_matrix("identity", None, None, SimpleNamespace(k=4),
                                       ExperimentConfig(dtype=dtype), trial_seed=0)
            np.testing.assert_array_equal(noise.b_matrix(), np.eye(4))
            assert noise.b_matrix().dtype == np.dtype(dtype)

    def test_theta_diagonal_k5(self):
        theta = theta_from_b(np.eye(5))
        np.testing.assert_allclose(np.diag(theta), np.e / (np.e + 4), atol=1e-12)

    def test_theta_diagonal_k2(self):
        theta = theta_from_b(np.eye(2))
        assert theta[0, 0] == pytest.approx(np.e / (np.e + 1), abs=1e-12)

    def test_k_must_be_at_least_two(self):
        # the identity init takes k from the label set, which refuses k < 2
        with pytest.raises(ValueError, match="at least 2 classes"):
            LabelSet(("O",))


def prediction_confusion(pred, z, k):
    """noise-adaptation-model's init from predictions and noisy labels."""
    return init_noise_weights(estimate_confusion(pred, z, k), alpha=1.0)


class TestPredictionConfusionInit:
    def test_predictions_equal_noisy_labels_gives_near_identity(self):
        z = np.random.default_rng(2).integers(0, 4, size=800)
        theta = theta_from_b(prediction_confusion(z, z, k=4))
        assert (np.diag(theta) > 0.9).all()

    def test_independent_predictions_give_near_uniform_rows(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 4, size=20_000)
        z = rng.integers(0, 4, size=20_000)
        theta = theta_from_b(prediction_confusion(pred, z, k=4))
        np.testing.assert_allclose(theta, 0.25, atol=0.02)

    def test_rows_normalize(self):
        rng = np.random.default_rng(4)
        theta = theta_from_b(prediction_confusion(
            rng.integers(0, 3, 50), rng.integers(0, 3, 50), k=3))
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-12)


# a channel that keeps every label except PER, which it sends to O
PER_TO_O = (
    "clean\\noisy,O,PER,ORG,LOC,MISC\n"
    "O,1,0,0,0,0\n"
    "PER,1,0,0,0,0\n"
    "ORG,0,0,1,0,0\n"
    "LOC,0,0,0,1,0\n"
    "MISC,0,0,0,0,1\n"
)


def reorder_classes(text, order):
    """The same channel written with its classes in another order."""
    rows = {line.split(",", 1)[0]: line.split(",")[1:]
            for line in text.strip().split("\n")[1:]}
    header = text.split("\n", 1)[0].split(",")[1:]
    col = [header.index(name) for name in order]
    lines = [",".join(["clean\\noisy"] + list(order))]
    lines += [",".join([name] + [rows[name][c] for c in col]) for name in order]
    return "\n".join(lines) + "\n"


class TestChannelMatrixFile:
    """An empirical channel read from a CSV file through ``prepare``."""

    @pytest.fixture(scope="class")
    def corpora(self):
        return generate_corpus(21, 600), generate_corpus(22, 200), generate_corpus(23, 200)

    def prepare_with(self, corpora, tmp_path, text, preset=""):
        path = tmp_path / "channel.csv"
        path.write_text(text, encoding="utf-8")
        config = ExperimentConfig(train_path="", dev_path="", test_path="",
                                  clean_budget=100, embedding_dim=4,
                                  channel_kind="empirical", channel_preset=preset,
                                  channel_matrix_path=str(path))
        return path, prepare(config, *corpora)

    def assert_per_maps_to_o(self, data):
        y, z = data.noisy.eval_only_y, data.noisy.z
        per, o = data.label_set.classes.index("PER"), data.label_set.o_index
        assert (y == per).any()
        np.testing.assert_array_equal(z, np.where(y == per, o, y))

    def test_classes_are_read_from_the_header(self, corpora, tmp_path):
        self.assert_per_maps_to_o(self.prepare_with(corpora, tmp_path, PER_TO_O)[1])

    def test_file_wins_over_the_default_preset(self, corpora, tmp_path):
        _, data = self.prepare_with(corpora, tmp_path, PER_TO_O, preset="gazetteer-like")
        self.assert_per_maps_to_o(data)

    def test_missing_file_is_not_replaced_by_the_default_preset(self, corpora, tmp_path):
        path = tmp_path / "missing.csv"
        config = ExperimentConfig(train_path="", dev_path="", test_path="",
                                  clean_budget=100, embedding_dim=4,
                                  channel_matrix_path=str(path))
        assert config.channel_preset == "gazetteer-like"
        with pytest.raises(FileNotFoundError, match=re.escape(str(path))):
            prepare(config, *corpora)

    def test_header_in_another_order_is_rejected(self, corpora, tmp_path):
        text = reorder_classes(PER_TO_O, ["PER", "O", "ORG", "LOC", "MISC"])
        with pytest.raises(ValueError) as err:
            self.prepare_with(corpora, tmp_path, text)
        message = str(err.value)
        assert str(tmp_path / "channel.csv") in message
        assert "['PER', 'O', 'ORG', 'LOC', 'MISC']" in message
        assert "['O', 'PER', 'ORG', 'LOC', 'MISC']" in message

    def test_four_classes_for_five_labels_are_rejected(self, corpora, tmp_path):
        text = reorder_classes(PER_TO_O, ["O", "PER", "ORG", "LOC"])
        with pytest.raises(ValueError, match=r"\['O', 'PER', 'ORG', 'LOC'\] differ"):
            self.prepare_with(corpora, tmp_path, text)

    def test_row_names_must_follow_the_header(self, corpora, tmp_path):
        text = PER_TO_O.replace("\nORG,", "\nLOC,", 1).replace("\nLOC,0,0,0,1", "\nORG,0,0,0,1")
        with pytest.raises(ValueError, match="row names .*'LOC', 'ORG'.* differ"):
            self.prepare_with(corpora, tmp_path, text)

    def test_bad_cell_names_its_line(self, corpora, tmp_path):
        text = PER_TO_O.replace("ORG,0,0,1", "ORG,0,x,1")
        with pytest.raises(ValueError, match=r"channel\.csv: line 4: .*'x'"):
            self.prepare_with(corpora, tmp_path, text)

    def test_short_row_names_its_line(self, corpora, tmp_path):
        text = PER_TO_O.replace("LOC,0,0,0,1,0", "LOC,0,0,0,1")
        with pytest.raises(ValueError, match=r"channel\.csv: line 5: 4 values for 5 classes"):
            self.prepare_with(corpora, tmp_path, text)
