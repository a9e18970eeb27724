"""Classifier, noise layer, and cleaning network behavior, including an
independent straight-line re-implementation of the forward passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisylab.autodiff as ad
from noisylab import kernels, parallel
from noisylab.autodiff import Tensor, cross_entropy, gradient_check
from noisylab.config import ExperimentConfig
from noisylab.data import prepare
from noisylab.model import (
    WINDOW_RADIUS,
    CleaningNetwork,
    LabelSet,
    NoiseMatrix,
    WindowClassifier,
    noisy_forward,
    one_hot,
    theta_from_b,
    token_windows,
)
from noisylab.toydata import generate_splits


def build_window(sentence, target_index, pad):
    """The oracle of token_windows: the 2*RADIUS+1 items around
    ``target_index``, padded with ``pad``, one position at a time."""
    n = len(sentence)
    if n == 0:
        raise ValueError("cannot build a window over an empty sentence")
    if not 0 <= target_index < n:
        raise ValueError(f"target index {target_index} outside sentence of length {n}")
    window = []
    for pos in range(target_index - WINDOW_RADIUS, target_index + WINDOW_RADIUS + 1):
        window.append(sentence[pos] if 0 <= pos < n else pad)
    return window


def tiny_model(seed=0, vocab=11, embed=4, hidden=3, dense=2, k=3, **kw):
    rng = np.random.default_rng(seed + 100)
    table = rng.standard_normal((vocab, embed)) * 0.3
    table[0] = 0.0
    return WindowClassifier(table, k=k, hidden_size=hidden, dense_size=dense,
                            seed=seed, **kw)


def randomize(params, seed, scale=0.6):
    """Move parameters to generic, well-scaled values so no ReLU unit is
    dead and no gradient component is vanishingly small."""
    rng = np.random.default_rng(seed)
    for p in params:
        p.values[...] = rng.standard_normal(p.shape) * scale


class TestLabelSet:
    def test_default_classes(self):
        ls = LabelSet()
        assert ls.classes == ("O", "PER", "ORG", "LOC", "MISC")
        assert ls.k == 5
        assert ls.o_index == 0

    def test_requires_o(self):
        with pytest.raises(ValueError):
            LabelSet(("PER", "LOC"))

    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            LabelSet(("O",))

    def test_encode_unknown(self):
        with pytest.raises(ValueError):
            LabelSet().encode(["O", "THING"])


class TestBuildWindow:
    def test_interior_target_no_padding(self):
        sentence = "traders said profits at Veralon rose sharply today".split()
        window = build_window(sentence, 4, pad="<PAD>")
        assert window == ["said", "profits", "at", "Veralon", "rose", "sharply", "today"]
        window = build_window(sentence, 3, pad="<PAD>")
        assert window == sentence[:7]

    def test_first_token_padded(self):
        window = build_window(["a", "b", "c", "d"], 0, pad="P")
        assert window == ["P", "P", "P", "a", "b", "c", "d"]

    def test_single_token_sentence(self):
        assert build_window(["x"], 0, pad="P") == ["P", "P", "P", "x", "P", "P", "P"]

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            build_window([], 0, pad="P")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_window(["a"], 1, pad="P")

    def test_token_windows_matches_build_window(self):
        sentences = [[5, 6, 7, 8], [9], [1, 2]]
        mat = token_windows([t for s in sentences for t in s], [4, 1, 2], pad_id=0)
        rows = [build_window(s, i, pad=0) for s in sentences for i in range(len(s))]
        assert mat.dtype == np.int64 and mat.flags.c_contiguous
        assert mat.tolist() == rows

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=12),
                    max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_token_windows_is_build_window_of_every_token(self, sentences):
        flat = [t for s in sentences for t in s]
        mat = token_windows(flat, [len(s) for s in sentences], pad_id=-1)
        assert mat.shape == (len(flat), 7)
        assert mat.tolist() == [build_window(s, i, pad=-1)
                                for s in sentences for i in range(len(s))]


class TestThetaFromB:
    def test_zeros_give_uniform(self):
        theta = theta_from_b(np.zeros((5, 5)))
        np.testing.assert_allclose(theta, 0.2, atol=1e-15)

    def test_identity_weights(self):
        theta = theta_from_b(np.eye(5))
        e = np.e
        np.testing.assert_allclose(np.diag(theta), e / (e + 4), atol=1e-12)
        off = theta[0, 1]
        assert off == pytest.approx(1 / (e + 4), abs=1e-12)

    def test_log_of_distribution_is_inverted_exactly(self):
        row = np.array([0.7, 0.2, 0.1])
        theta = theta_from_b(np.log(row)[None, :])
        np.testing.assert_allclose(theta[0], row, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        theta = theta_from_b(rng.standard_normal((6, 6)) * 10)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-12)
        assert (theta > 0).all()


class TestNoiseMatrix:
    def test_theta_never_stale(self):
        noise = NoiseMatrix(k=3)
        first = noise.theta()
        noise.logits.values[0, 1] += 2.0
        second = noise.theta()
        assert not np.allclose(first, second)
        np.testing.assert_allclose(second, theta_from_b(noise.logits.values), atol=1e-15)

    def test_frozen_matrix_has_no_parameters(self):
        noise = NoiseMatrix(frozen_theta=np.eye(3))
        assert noise.parameters() == []
        np.testing.assert_array_equal(noise.theta(), np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            NoiseMatrix(b=np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            NoiseMatrix(b=np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestNoisyForward:
    def test_identity_channel_is_transparent(self):
        model = tiny_model()
        ids = np.array([[1, 2, 3, 4, 5, 6, 7]])
        noise = NoiseMatrix(frozen_theta=np.eye(3))
        base = model.probs(ids)
        noisy = noisy_forward(model.probs(ids), noise)
        np.testing.assert_allclose(noisy.values, base.values, atol=1e-12)

    def test_uniform_channel_erases_signal(self):
        model = tiny_model()
        ids = np.array([[1, 2, 3, 4, 5, 6, 7]])
        noise = NoiseMatrix(frozen_theta=np.full((3, 3), 1.0 / 3))
        noisy = noisy_forward(model.probs(ids), noise)
        np.testing.assert_allclose(noisy.values, 1.0 / 3, atol=1e-12)

    def test_hand_mixture(self):
        p = Tensor(np.array([[0.5, 0.5, 0.0]]))
        theta = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        out = noisy_forward(p, NoiseMatrix(frozen_theta=theta))
        np.testing.assert_allclose(out.values[0], [0.45, 0.45, 0.10], atol=1e-12)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            k = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(k))
            theta = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(k)])
            out = noisy_forward(Tensor(p[None, :]), NoiseMatrix(frozen_theta=theta)).values[0]
            brute = [sum(theta[i][j] * p[i] for i in range(k)) for j in range(k)]
            np.testing.assert_allclose(out, brute, atol=1e-12)

    def test_gradients_reach_both_weights_and_noise(self):
        model = tiny_model()
        randomize(model.parameters(), seed=50)
        noise = NoiseMatrix(b=np.eye(3))
        ids = np.random.default_rng(51).integers(0, 11, size=(6, 7))
        targets = np.array([2, 0, 1, 1, 0, 2])
        loss = cross_entropy(noisy_forward(model.probs(ids), noise), targets)
        loss.backward()
        assert np.abs(noise.logits.grad).max() > 0
        assert np.abs(model.out_w.grad).max() > 0


class TestBaseForward:
    def test_output_is_distribution(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 11, size=(8, 7))
        p = model.probs(ids).values
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all()

    def test_deterministic(self):
        model = tiny_model()
        ids = np.array([[1, 2, 3, 4, 5, 6, 7]])
        np.testing.assert_array_equal(model.probs(ids).values, model.probs(ids).values)

    def test_infer_matches_graph_forward(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 11, size=(6, 7))
        for pooling in ("final", "center"):
            model = tiny_model(pooling=pooling)
            scanned = model.infer(ids, lambda rows, feats: model.head(feats).values)
            np.testing.assert_allclose(scanned, model.probs(ids).values, atol=1e-14)

    def test_matches_straight_line_reimplementation(self):
        model = tiny_model(seed=7)
        ids = np.array([[1, 9, 3, 0, 5, 6, 2]])

        def lstm_scan(seq, w_in, w_rec, bias):
            h = np.zeros(w_rec.shape[0])
            c = np.zeros(w_rec.shape[0])
            hs = []
            for vec in seq:
                a = vec @ w_in + h @ w_rec + bias
                n = w_rec.shape[0]
                gi = 1 / (1 + np.exp(-a[:n]))
                gf = 1 / (1 + np.exp(-a[n:2 * n]))
                gc = np.tanh(a[2 * n:3 * n])
                go = 1 / (1 + np.exp(-a[3 * n:]))
                c = gf * c + gi * gc
                h = go * np.tanh(c)
                hs.append(h)
            return hs

        vectors = [model.embedding.values[i] for i in ids[0]]
        fwd = lstm_scan(vectors, model.fw_in.values, model.fw_rec.values, model.fw_bias.values)
        bwd = lstm_scan(vectors[::-1], model.bw_in.values, model.bw_rec.values, model.bw_bias.values)
        feats = np.concatenate([fwd[-1], bwd[-1]])
        hidden = np.maximum(feats @ model.dense_w.values + model.dense_b.values, 0.0)
        logits = hidden @ model.out_w.values + model.out_b.values
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()

        np.testing.assert_allclose(model.probs(ids).values[0], expected, atol=1e-10)

    def test_center_pooling_differs_and_is_valid(self):
        final = tiny_model(seed=1)
        center = tiny_model(seed=1, pooling="center")
        ids = np.array([[1, 2, 3, 4, 5, 6, 7]])
        p_final = final.probs(ids).values
        p_center = center.probs(ids).values
        np.testing.assert_allclose(p_center.sum(axis=1), 1.0, atol=1e-12)
        assert not np.allclose(p_final, p_center)

    @pytest.mark.parametrize("pooling, steps", [("final", 7), ("center", 4)])
    def test_training_scans_each_direction_up_to_the_pooled_step(
            self, pooling, steps, monkeypatch):
        scanned = []
        forward = kernels.lstm_forward

        def recording_forward(x, *weights):
            scanned.append(x.shape[1])
            return forward(x, *weights)

        monkeypatch.setattr(kernels, "lstm_forward", recording_forward)
        model = tiny_model(pooling=pooling)
        ids = np.random.default_rng(5).integers(0, 11, size=(4, 7))
        cross_entropy(model.probs(ids), np.array([0, 1, 2, 0])).backward()
        assert scanned == [steps, steps]

    def test_parameters_are_the_state_tensors_that_train(self):
        frozen = tiny_model()
        assert frozen.parameters() == [getattr(frozen, n) for n in frozen.STATE[1:]]
        trainable = tiny_model(trainable_embeddings=True)
        assert trainable.parameters() == [getattr(trainable, n) for n in trainable.STATE]


class TestFeaturesDependOnTheWindowAlone:
    """Every LSTM product is a GEMM, whose rows do not depend on each other,
    so prediction reads exactly the features training computes."""

    @pytest.fixture(scope="class")
    def dev(self):
        # the acceptance sizes on toy corpus 0, with LSTM biases away from
        # their zero start, as after training
        config = ExperimentConfig(seed=0, clean_budget=400, embedding_dim=16, hidden_size=24,
                                  dense_size=16)
        data = prepare(config, *generate_splits(0))
        model = WindowClassifier(data.embedding_table, k=data.k, hidden_size=24,
                                 dense_size=16, seed=1)
        rng = np.random.default_rng(0)
        for bias in (model.fw_bias, model.bw_bias):
            bias.values[...] = rng.standard_normal(bias.shape) * 0.5
        return model, np.unique(data.dev.token_ids, axis=0)

    @staticmethod
    def features(model, ids):
        with parallel.one_blas_thread():
            return model.features(ids).values

    @pytest.mark.parametrize("eval_batch", [None, 2, 3, 4, 64, 512])
    def test_infer_equals_features_for_every_eval_batch(self, dev, eval_batch):
        model, ids = dev
        got = model.infer(ids, lambda rows, feats: feats.values, eval_batch)
        assert got.tobytes() == self.features(model, ids).tobytes()

    def test_window_of_one_repeated_id(self, dev):
        model, ids = dev
        window = np.full((1, 7), ids[5, 3])
        assert (model.infer_features(window).tobytes()
                == self.features(model, window).tobytes())

    def test_batch_equals_each_window_scanned_alone(self, dev):
        model, ids = dev
        batch = ids[:64]
        alone = np.concatenate([self.features(model, batch[i:i + 1])
                                for i in range(batch.shape[0])])
        assert alone.tobytes() == self.features(model, batch).tobytes()


class TestCleaningNetwork:
    def test_zero_combiner_reproduces_noisy_label(self):
        cleaner = CleaningNetwork(feature_size=6, k=3, proj_size=4, seed=0)
        cleaner.comb_w.values[...] = 0.0
        cleaner.comb_b.values[...] = 0.0
        feats = np.random.default_rng(0).standard_normal((5, 6))
        onehot = one_hot(np.array([0, 1, 2, 1, 0]), 3)
        out = cleaner.forward(feats, onehot)
        np.testing.assert_array_equal(out.values, onehot)

    def test_output_clipped_to_unit_interval(self):
        cleaner = CleaningNetwork(feature_size=6, k=3, proj_size=4, seed=1)
        cleaner.comb_w.values[...] *= 50
        feats = np.random.default_rng(1).standard_normal((8, 6)) * 5
        onehot = one_hot(np.zeros(8, dtype=int), 3)
        out = cleaner.forward(feats, onehot).values
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_matches_straight_line_reimplementation(self):
        cleaner = CleaningNetwork(feature_size=4, k=3, proj_size=2, seed=2)
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((3, 4))
        onehot = one_hot(np.array([2, 0, 1]), 3)
        projected = feats @ cleaner.proj_w.values + cleaner.proj_b.values
        combined = np.concatenate([projected, onehot], axis=1)
        expected = np.clip(combined @ cleaner.comb_w.values + cleaner.comb_b.values + onehot, 0, 1)
        np.testing.assert_allclose(cleaner.forward(feats, onehot).values, expected, atol=1e-10)


class TestLoadState:
    def test_state_dict_round_trip(self):
        source, target = tiny_model(seed=1), tiny_model(seed=2)
        target.load_state(source.state_dict())
        for name, values in source.state_dict().items():
            np.testing.assert_array_equal(getattr(target, name).values, values)

    @pytest.mark.parametrize("name, values, message", [
        ("fw_bias", np.zeros(1), "fw_bias has shape (1,), expected (12,)"),
        ("out_w", np.zeros((2, 3), np.float32), "out_w has dtype float32, expected float64"),
        ("noise_b", np.eye(3), "noise_b is not one of embedding, fw_in, fw_rec, fw_bias, "
                               "bw_in, bw_rec, bw_bias, dense_w, dense_b, out_w, out_b"),
    ], ids=["bias-shape", "dtype", "unknown-name"])
    def test_bad_array_is_refused_naming_it(self, name, values, message):
        model = tiny_model()
        before = model.state_dict()
        # every other array differs, and the bad one comes after some of them
        state = {**tiny_model(seed=5).state_dict(), name: values}
        with pytest.raises(ValueError) as err:
            model.load_state(state)
        assert str(err.value) == message
        for key, values in model.state_dict().items():
            np.testing.assert_array_equal(values, before[key])


class TestPredict:
    def test_invariant_to_noise_and_cleaner_weights(self):
        model = tiny_model(seed=4)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 11, size=(20, 7))
        before = model.predict(ids)
        # prediction must not see either auxiliary component
        noise = NoiseMatrix(b=rng.standard_normal((3, 3)))
        cleaner = CleaningNetwork(feature_size=6, k=3, seed=9)
        noise.logits.values[...] = rng.standard_normal((3, 3))
        cleaner.comb_w.values[...] = rng.standard_normal(cleaner.comb_w.shape)
        after = model.predict(ids)
        np.testing.assert_array_equal(before, after)

    def test_tie_breaks_to_lowest_index(self):
        assert int(np.argmax(np.array([0.4, 0.4, 0.2]))) == 0

    def test_never_runs_the_training_scan(self, monkeypatch):
        model = tiny_model(seed=6)
        ids = np.random.default_rng(6).integers(0, 11, size=(9, 7))
        expected = np.argmax(model.probs(ids).values, axis=-1)

        def training_scan(*args):
            raise AssertionError("prediction ran kernels.lstm_forward")

        monkeypatch.setattr(kernels, "lstm_forward", training_scan)
        np.testing.assert_array_equal(model.predict(ids), expected)
        assert model.infer_features(ids).shape == (9, 6)

    def test_repeated_calls_stable(self):
        model = tiny_model(seed=5)
        ids = np.array([[1, 2, 3, 4, 5, 6, 7]])
        first = model.predict(ids)
        for _ in range(3):
            np.testing.assert_array_equal(model.predict(ids), first)


class TestFullPipelineGradients:
    def test_base_model_gradient_check(self):
        model = tiny_model(seed=6)
        randomize(model.parameters(), seed=60)
        ids = np.array([[1, 2, 3, 4, 5, 6, 7], [2, 0, 4, 9, 1, 0, 3]])
        targets = np.array([0, 2])

        def loss():
            return cross_entropy(model.probs(ids), targets)

        assert gradient_check(loss, model.parameters(), h=1e-5) < 1e-4

    def test_center_pooling_gradient_check_with_trainable_embeddings(self):
        model = tiny_model(seed=10, pooling="center", trainable_embeddings=True)
        randomize(model.parameters(), seed=62)
        ids = np.array([[1, 2, 3, 4, 5, 6, 7], [2, 0, 4, 9, 1, 0, 3]])
        targets = np.array([1, 0])

        def loss():
            return cross_entropy(model.probs(ids), targets)

        assert gradient_check(loss, model.parameters(), h=1e-5) < 1e-4

    def test_noisy_model_gradient_check_includes_noise_weights(self):
        model = tiny_model(seed=7)
        randomize(model.parameters(), seed=61)
        noise = NoiseMatrix(b=0.5 * np.eye(3))
        ids = np.array([[1, 2, 3, 4, 5, 6, 7]])
        targets = np.array([1])

        def loss():
            return cross_entropy(noisy_forward(model.probs(ids), noise), targets)

        params = model.parameters() + noise.parameters()
        assert gradient_check(loss, params, h=1e-5) < 1e-4

    def test_cleaning_network_gradient_check(self):
        model = tiny_model(seed=8)
        cleaner = CleaningNetwork(feature_size=6, k=3, proj_size=2, seed=8)
        ids = np.array([[1, 2, 3, 4, 5, 6, 7], [3, 5, 0, 0, 2, 8, 1]])
        onehot = one_hot(np.array([1, 2]), 3)
        target = Tensor(one_hot(np.array([0, 2]), 3))

        def loss():
            feats = Tensor(model.infer_features(ids))
            out = cleaner.forward(feats, onehot)
            return ad.mul(ad.reduce_sum(ad.absolute(ad.sub(out, target))), 0.5)

        assert gradient_check(loss, cleaner.parameters(), h=1e-5) < 1e-4

    def test_trainable_embeddings_receive_gradient(self):
        model = tiny_model(seed=9, trainable_embeddings=True)
        ids = np.array([[1, 2, 3, 4, 5, 6, 7]])
        cross_entropy(model.probs(ids), np.array([0])).backward()
        assert np.abs(model.embedding.grad).max() > 0
