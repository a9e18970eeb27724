"""Training schedule, variant dispatch, access discipline, and the
multi-seed harness."""

import dataclasses

import numpy as np
import pytest

from noisylab import kernels
from noisylab.autodiff import no_grad
from noisylab.config import ExperimentConfig
from noisylab.data import prepare
from noisylab.model import CleaningNetwork, NoiseMatrix
from noisylab.optim import Adam
from noisylab.rng import substream
from noisylab.toydata import generate_corpus
from noisylab.training import (
    VARIANTS,
    _clean_noisy_labels,
    evaluate_split,
    mean_and_se,
    predict_split,
    run_trials,
    schedule,
    subsample_noisy,
    sweep,
    sweep_csv,
    train_clean_epoch,
    train_noisy_epoch,
    train_variant,
)

TINY = ExperimentConfig(
    train_path="", dev_path="", test_path="",
    clean_budget=150,
    embedding_dim=8,
    hidden_size=10,
    dense_size=8,
    cleaner_proj_size=4,
    epochs=6,
    learning_rate=0.005,
    batch_size=32,
    eval_batch_size=256,
    n_seeds=2,
    channel_kind="empirical",
    channel_preset="gazetteer-like",
)


@pytest.fixture(scope="module")
def corpora():
    train = generate_corpus(11, 1600)
    dev = generate_corpus(12, 500)
    test = generate_corpus(13, 500)
    return train, dev, test


@pytest.fixture(scope="module")
def tiny_data(corpora):
    return prepare(TINY, *corpora)


def fresh_data(corpora, config):
    return prepare(config, *corpora)


class TestSubsampleNoisy:
    def test_full_size_is_permutation(self):
        sample = subsample_noisy(50, 50, seed=0)
        assert sorted(sample.tolist()) == list(range(50))

    def test_zero_size_is_empty(self):
        assert subsample_noisy(50, 0, seed=0).size == 0

    def test_reproducible_per_epoch_and_fresh_across_epochs(self):
        a = subsample_noisy(200, 10, seed=4, epoch=3)
        b = subsample_noisy(200, 10, seed=4, epoch=3)
        np.testing.assert_array_equal(a, b)
        seen = set()
        for epoch in range(100):
            sample = tuple(subsample_noisy(200, 10, seed=4, epoch=epoch).tolist())
            assert sample not in seen
            seen.add(sample)

    def test_oversized_sample_rejected(self):
        with pytest.raises(ValueError):
            subsample_noisy(10, 11, seed=0)


class TestSchedule:
    def test_noise_model_alternation(self):
        phases = schedule("noise-model", 40)
        assert phases[0] == "clean"
        assert phases[-1] == "noisy"
        assert phases == ["clean", "noisy"] * 20
        expected = ["clean"] + ["noisy", "clean"] * 19 + ["noisy"]
        assert phases == expected

    def test_base_model_all_clean(self):
        assert schedule("base-model", 5) == ["clean"] * 5

    def test_adaptation_all_noisy_full(self):
        assert schedule("noise-adaptation-model", 3) == ["noisy-full"] * 3

    def test_unknown_variant_lists_the_names(self):
        with pytest.raises(ValueError) as err:
            schedule("fancy-model", 3)
        assert "'fancy-model'" in str(err.value)
        assert ", ".join(VARIANTS) in str(err.value)
        assert len(VARIANTS) == 6

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_trained_phases_follow_the_schedule(self, tiny_data, name):
        config = dataclasses.replace(TINY, epochs=3, pretrain_epochs=1)
        records = []
        train_variant(name, tiny_data, config, trial_seed=4, metrics_sink=records.append)
        assert [r["phase"] for r in records] == schedule(name, 3)


class TestEpochFunctions:
    def test_clean_epoch_leaves_noise_weights_untouched(self, tiny_data):
        from noisylab.model import WindowClassifier
        model = WindowClassifier(tiny_data.embedding_table, k=5, hidden_size=10,
                                 dense_size=8, seed=0)
        noise = NoiseMatrix(k=5)
        before = noise.logits.values.copy()
        opt = Adam(model.parameters(), lr=0.005)
        train_clean_epoch(model, tiny_data.clean, opt, substream(0, "s"), 32)
        np.testing.assert_array_equal(noise.logits.values, before)

    def test_loss_decreases_with_full_batch_and_small_lr(self, tiny_data):
        from noisylab.autodiff import cross_entropy
        from noisylab.model import WindowClassifier
        model = WindowClassifier(tiny_data.embedding_table, k=5, hidden_size=10,
                                 dense_size=8, seed=1)
        ids, y = tiny_data.clean.take(slice(None), "y")

        def full_loss():
            return cross_entropy(model.probs(ids), y).item()

        opt = Adam(model.parameters(), lr=1e-3)
        before = full_loss()
        train_clean_epoch(model, tiny_data.clean, opt, substream(1, "s"),
                          batch_size=len(tiny_data.clean))
        assert full_loss() <= before

    def test_frozen_identity_channel_matches_clean_training(self, tiny_data):
        from noisylab.model import WindowClassifier

        def build():
            model = WindowClassifier(tiny_data.embedding_table, k=5, hidden_size=10,
                                     dense_size=8, seed=2)
            return model, Adam(model.parameters(), lr=0.005)

        # same windows, with z equal to y, consumed through both paths
        split = dataclasses.replace(tiny_data.clean, z=tiny_data.clean.y.copy())
        model_a, opt_a = build()
        train_clean_epoch(model_a, split, opt_a, substream(7, "x"), 32)
        model_b, opt_b = build()
        frozen = NoiseMatrix(frozen_theta=np.eye(5))
        train_noisy_epoch(model_b, frozen, split, slice(None), opt_b, None,
                          substream(7, "x"), 32)
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            np.testing.assert_array_equal(pa.values, pb.values)

    def test_theta_rows_stay_stochastic_through_updates(self, tiny_data):
        from noisylab.model import WindowClassifier
        model = WindowClassifier(tiny_data.embedding_table, k=5, hidden_size=10,
                                 dense_size=8, seed=3)
        noise = NoiseMatrix(k=5)
        opt_base = Adam(model.parameters(), lr=0.005)
        opt_noise = Adam(noise.parameters(), lr=0.005)
        for epoch in range(3):
            train_noisy_epoch(model, noise, tiny_data.noisy,
                              subsample_noisy(len(tiny_data.noisy), 100, 5, epoch),
                              opt_base, opt_noise, substream(5, "s", epoch), 32)
            np.testing.assert_allclose(noise.theta().sum(axis=1), 1.0, atol=1e-12)
        assert not np.allclose(noise.logits.values, np.eye(5))


class TestOverfitSanity:
    def test_separable_toy_data_reaches_full_accuracy(self, tiny_data):
        from noisylab.model import WindowClassifier
        # 3 distinct window patterns, one per class
        ids = np.array([
            [1, 2, 3, 4, 5, 6, 7],
            [2, 3, 4, 5, 6, 7, 8],
            [3, 4, 5, 6, 7, 8, 1],
        ])
        y = np.array([0, 1, 2])
        table = np.random.default_rng(0).standard_normal((9, 8)) * 0.5
        model = WindowClassifier(table, k=3, hidden_size=8, dense_size=6, seed=4)
        opt = Adam(model.parameters(), lr=0.01)
        from noisylab.autodiff import cross_entropy
        for _ in range(30):
            loss = cross_entropy(model.probs(ids), y)
            loss.backward()
            opt.step()
        assert (model.predict(ids) == y).all()


class TestTrainVariant:
    def test_unknown_variant_rejected(self, tiny_data):
        with pytest.raises(ValueError):
            train_variant("mystery-model", tiny_data, TINY, trial_seed=0)

    def test_base_model_never_touches_noisy_data(self, corpora):
        data = fresh_data(corpora, TINY)
        data.reset_counters()
        train_variant("base-model", data, TINY, trial_seed=0)
        assert data.noisy.reads == 0
        assert data.clean.reads > 0

    def test_adaptation_model_never_touches_clean_data(self, corpora):
        config = dataclasses.replace(TINY, epochs=2, pretrain_epochs=1)
        data = fresh_data(corpora, config)
        data.reset_counters()
        train_variant("noise-adaptation-model", data, config, trial_seed=0)
        assert data.clean.reads == 0
        assert data.noisy.reads > 0

    def test_selected_epoch_maximizes_dev_f1(self, tiny_data):
        result = train_variant("base-model", tiny_data, TINY, trial_seed=1)
        history = np.array(result.dev_f1_history)
        assert len(history) == TINY.epochs
        assert result.selected_epoch == int(np.argmax(history))
        assert history[result.selected_epoch] == history.max()

    def test_metrics_records_one_per_epoch(self, tiny_data):
        records = []
        train_variant("noise-model", tiny_data, TINY, trial_seed=2,
                      metrics_sink=records.append)
        assert len(records) == TINY.epochs
        assert [r["epoch"] for r in records] == list(range(TINY.epochs))
        assert records[0]["phase"] == "clean"
        assert records[1]["phase"] == "noisy"
        assert all("dev_f1" in r and "train_loss" in r for r in records)

    def test_all_variants_run_and_report(self, tiny_data):
        config = dataclasses.replace(TINY, epochs=2, pretrain_epochs=1)
        for name in VARIANTS:
            result = train_variant(name, tiny_data, config, trial_seed=3)
            assert 0.0 <= result.test_f1 <= 1.0
            _, noise_init = VARIANTS[name]
            if noise_init is not None:
                assert result.theta is not None
                np.testing.assert_allclose(result.theta.sum(axis=1), 1.0, atol=1e-12)
            else:
                assert result.theta is None

    @pytest.mark.parametrize("variant", ["noise-adaptation-model", "noise-cleaning-model"])
    def test_one_optimizer_per_parameter_list(self, tiny_data, monkeypatch, variant):
        import noisylab.training as training
        built = []

        def recording(params, **kwargs):
            built.append([id(p) for p in params])
            return Adam(params, **kwargs)

        monkeypatch.setattr(training, "Adam", recording)
        config = dataclasses.replace(TINY, epochs=2, pretrain_epochs=1)
        train_variant(variant, tiny_data, config, trial_seed=3)
        assert len(built) == 2  # base, then the noise layer or the cleaner
        assert not set(built[0]) & set(built[1])

    def test_float32_mode_runs(self, corpora):
        config = dataclasses.replace(TINY, dtype="float32", epochs=2)
        data = fresh_data(corpora, config)
        result = train_variant("noise-model", data, config, trial_seed=0)
        assert np.isfinite(result.test_f1)
        np.testing.assert_allclose(result.theta.sum(axis=1), 1.0, atol=1e-6)

    def test_float32_cleaner_stays_float32(self, corpora, monkeypatch):
        config = dataclasses.replace(TINY, dtype="float32", epochs=1)
        data = fresh_data(corpora, config)
        seen = []
        forward = CleaningNetwork.forward

        def spy(self, features, noisy_onehot):
            out = forward(self, features, noisy_onehot)
            seen.append((features.values.dtype, noisy_onehot.dtype, out.values.dtype))
            return out

        monkeypatch.setattr(CleaningNetwork, "forward", spy)
        train_variant("noise-cleaning-model", data, config, trial_seed=0)
        assert seen
        assert all(dtypes == (np.float32,) * 3 for dtypes in seen), seen

    @pytest.mark.parametrize("variant, poison_from_start, where", [
        ("noise-model", False, r"epoch 1 \(noisy\)"),
        ("noise-adaptation-model", True, r"epoch 0 \(pretrain\)"),
    ])
    def test_non_finite_gradient_names_epoch_and_phase(self, tiny_data, monkeypatch,
                                                       variant, poison_from_start, where):
        from noisylab import kernels, training
        from noisylab.autodiff import NonFiniteError

        poisoned = [poison_from_start]
        backward = kernels.lstm_backward
        noisy_epoch = training.train_noisy_epoch

        def nan_bias_gradient(*args):
            dx, dw_in, dw_rec, dbias = backward(*args)
            if poisoned[0]:
                dbias[0] = np.nan
            return dx, dw_in, dw_rec, dbias

        def poisoned_noisy_epoch(*args, **kwargs):
            poisoned[0] = True
            return noisy_epoch(*args, **kwargs)

        monkeypatch.setattr(kernels, "lstm_backward", nan_bias_gradient)
        monkeypatch.setattr(training, "train_noisy_epoch", poisoned_noisy_epoch)
        # the clean epoch before the noisy one takes one step per batch
        step = 1 if poison_from_start else -(-len(tiny_data.clean) // TINY.batch_size) + 1
        config = dataclasses.replace(TINY, pretrain_epochs=1)
        with pytest.raises(NonFiniteError, match=(
                rf"^{where}: Adam: non-finite gradient in parameter 2 of shape "
                rf"\(40,\) at step {step}$")):
            train_variant(variant, tiny_data, config, trial_seed=0)

    def test_trainable_embeddings_leave_the_dataset_table_unchanged(self, corpora):
        config = dataclasses.replace(TINY, trainable_embeddings=True, epochs=1)
        data = fresh_data(corpora, config)
        before = data.embedding_table.copy()
        result = train_variant("base-model", data, config, trial_seed=0)
        np.testing.assert_array_equal(data.embedding_table, before)
        assert not np.array_equal(result.model_state["embedding"], before)

    def test_noise_model_with_noiseless_copies_beats_base_model(self, corpora):
        # when N carries the true labels, the extra data cannot hurt
        config = dataclasses.replace(
            TINY, channel_kind="uniform", channel_rho=0.0, epochs=8,
            clean_budget=120, n_seeds=5,
        )
        data = fresh_data(corpora, config)
        base = run_trials("base-model", data, config)
        noisy = run_trials("noise-model", data, config)
        assert noisy.mean_f1 >= base.mean_f1


class TestRunTrials:
    def test_hand_computed_mean_and_se(self):
        mean, se = mean_and_se([70, 72, 68, 71, 69])
        assert mean == pytest.approx(70.0)
        assert se == pytest.approx(1.5811388300841898 / np.sqrt(5), abs=1e-12)
        assert se == pytest.approx(0.7071067811865476, abs=1e-9)

    def test_single_seed_is_degenerate_with_zero_se(self, tiny_data):
        config = dataclasses.replace(TINY, epochs=2)
        summary = run_trials("base-model", tiny_data, config, n_seeds=1)
        assert summary.se == 0.0
        assert summary.n_seeds == 1

    def test_bit_identical_across_repeated_runs(self, corpora):
        config = dataclasses.replace(TINY, epochs=3, n_seeds=2)
        a = run_trials("noise-model", fresh_data(corpora, config), config)
        b = run_trials("noise-model", fresh_data(corpora, config), config)
        assert a.mean_f1 == b.mean_f1
        assert a.se == b.se
        for ta, tb in zip(a.trials, b.trials):
            assert ta.dev_f1_history == tb.dev_f1_history
            assert ta.test_f1 == tb.test_f1
            np.testing.assert_array_equal(ta.theta, tb.theta)

    def test_zero_trials_rejected(self, tiny_data):
        with pytest.raises(ValueError):
            run_trials("base-model", tiny_data, TINY, n_seeds=0)


class TestSweep:
    def test_single_value_equals_run_trials(self, corpora):
        config = dataclasses.replace(TINY, epochs=2, n_seeds=1)
        rows = sweep("noisy-factor", [1.0], "base-model", *corpora, config)
        assert len(rows) == 1
        data = fresh_data(corpora, config)
        summary = run_trials("base-model", data, config)
        assert rows[0].mean_f1 == summary.mean_f1
        assert rows[0].n_seeds == 1

    def test_clean_size_rows_schema(self, corpora):
        config = dataclasses.replace(TINY, epochs=1, n_seeds=1)
        rows = sweep("clean-size", [100, 150, 200], "base-model", *corpora, config)
        assert [r.axis_value for r in rows] == [100.0, 150.0, 200.0]
        csv = sweep_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "axis_value,variant,mean_f1,se,n_seeds"
        assert len(lines) == 4

    def test_excessive_factor_rejected(self, corpora):
        config = dataclasses.replace(TINY, epochs=1, n_seeds=1)
        with pytest.raises(ValueError):
            sweep("noisy-factor", [1000.0], "noise-model", *corpora, config)

    @pytest.mark.parametrize("variant", ["noise-model", "base-model-with-noise",
                                         "noise-cleaning-model"])
    def test_excessive_factor_rejected_before_training(self, tiny_data, variant):
        records = []
        config = dataclasses.replace(TINY, noisy_factor=50.0)
        with pytest.raises(ValueError, match=r"noisy_factor 50\.0 x \|C\| \d+ = \d+ "
                                             r"exceeds the noisy pool of \d+"):
            train_variant(variant, tiny_data, config, trial_seed=1,
                          metrics_sink=records.append)
        assert records == []

    @pytest.mark.parametrize("axis, values, message", [
        ("noisy-factor", [0.5, 50.0], "exceeds the noisy pool"),
        ("clean-size", [150, 10 ** 6], "exceeds corpus size"),
    ])
    def test_every_value_checked_before_any_trial(self, corpora, monkeypatch,
                                                  axis, values, message):
        import noisylab.training as training
        trials = []
        monkeypatch.setattr(training, "run_trials", lambda *a, **k: trials.append(a))
        config = dataclasses.replace(TINY, epochs=1, n_seeds=1)
        with pytest.raises(ValueError, match=message):
            sweep(axis, values, "noise-model", *corpora, config)
        assert trials == []

    @pytest.mark.parametrize("axis, values", [
        ("clean-size", [100, 150, 200]),
        ("noisy-factor", [0.5, 1.0, 1.5]),
    ])
    def test_one_prepared_dataset_alive_at_each_trial_run(self, corpora, monkeypatch,
                                                          axis, values):
        import gc
        import weakref

        import noisylab.training as training
        made, alive_at_runs = [], []

        def preparing(*args, **kwargs):
            data = prepare(*args, **kwargs)
            made.append(weakref.ref(data))
            return data

        def running(variant, data, config, **kwargs):
            gc.collect()
            alive_at_runs.append(sum(ref() is not None for ref in made))
            return training.TrialsSummary(variant, 0.0, 0.0, 1, [])

        monkeypatch.setattr(training, "prepare", preparing)
        monkeypatch.setattr(training, "run_trials", running)
        sweep(axis, values, "noise-model", *corpora, dataclasses.replace(TINY, n_seeds=1))
        assert alive_at_runs == [1, 1, 1]
        assert len(made) == (6 if axis == "clean-size" else 1)

    def test_unknown_axis_rejected(self, corpora):
        with pytest.raises(ValueError):
            sweep("depth", [1], "base-model", *corpora, TINY)

    def test_empty_values_rejected(self, corpora):
        with pytest.raises(ValueError):
            sweep("clean-size", [], "base-model", *corpora, TINY)


class TestEvaluateSplit:
    def test_perfect_predictions_score_one(self, tiny_data):
        # a stand-in model that looks up each window's gold label
        split = tiny_data.dev
        gold_of = {}
        for window, label in zip(split.token_ids, split.y):
            assert gold_of.setdefault(window.tobytes(), label) == label
        assert len(gold_of) < len(split), "fixture needs repeated windows"

        class Oracle:
            hidden_size = 1  # predict_split sizes its chunks by the model's width

            def predict(self, ids, plans=None):
                return np.array([gold_of[window.tobytes()] for window in ids])

        f1, report = evaluate_split(Oracle(), split, tiny_data.label_set, 64)
        assert f1 == 1.0
        assert report.overall.recall == 1.0


class TestPredictSplit:
    @pytest.fixture(scope="class")
    def model(self, tiny_data):
        from noisylab.model import WindowClassifier
        return WindowClassifier(tiny_data.embedding_table, k=5, hidden_size=10,
                                dense_size=8, seed=3, pooling="center")

    def test_equals_row_by_row_predict(self, tiny_data, model):
        split = tiny_data.dev
        assert np.unique(split.token_ids, axis=0).shape[0] < len(split)
        expected = np.array([model.predict(window)[0] for window in split.token_ids])
        for eval_batch in (1, 64, 10_000):
            np.testing.assert_array_equal(predict_split(model, split, eval_batch), expected)

    def test_prediction_and_relabelling_never_run_the_training_scan(
            self, tiny_data, model, monkeypatch):
        split = tiny_data.dev
        expected = predict_split(model, split, 64)
        cleaner = CleaningNetwork(20, 5, proj_size=4, seed=0)
        indices = np.arange(50)
        _, relabelled = _clean_noisy_labels(model, cleaner, tiny_data.noisy, indices, 5, 16)

        def training_scan(*args):
            raise AssertionError("prediction ran kernels.lstm_forward")

        monkeypatch.setattr(kernels, "lstm_forward", training_scan)
        np.testing.assert_array_equal(predict_split(model, split, 64), expected)
        np.testing.assert_array_equal(
            _clean_noisy_labels(model, cleaner, tiny_data.noisy, indices, 5, 16)[1],
            relabelled)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pooling", ["final", "center"])
    def test_kept_plans_predict_as_inline_plans(self, tiny_data, pooling, dtype):
        from noisylab.model import WindowClassifier
        model = WindowClassifier(tiny_data.embedding_table, k=5, hidden_size=10,
                                 dense_size=8, seed=4, pooling=pooling, dtype=dtype)
        split = tiny_data.dev
        rows, inverse = np.unique(split.token_ids, axis=0, return_inverse=True)
        inline = np.concatenate([model.predict(rows[s:s + 64])
                                 for s in range(0, rows.shape[0], 64)])[inverse.reshape(-1)]
        kept = {}
        for _ in range(2):  # builds the plans, then reuses them
            np.testing.assert_array_equal(predict_split(model, split, 64, kept), inline)
        np.testing.assert_array_equal(kept["distinct"][0], rows)
        with no_grad():
            features = model.features(rows[:64])
            from_kept = model.features(rows[:64], kept[(0, 64)])
        assert features.values.dtype == dtype
        np.testing.assert_array_equal(from_kept.values, features.values)

    def test_plans_kept_per_step_count(self, tiny_data):
        from noisylab.model import WindowClassifier
        split = tiny_data.dev
        models = [WindowClassifier(tiny_data.embedding_table, k=5, hidden_size=10, dense_size=8,
                                   seed=5, pooling=pooling) for pooling in ("final", "center")]
        inline = [np.array([m.predict(window)[0] for window in split.token_ids])
                  for m in models]
        kept = {}
        for _ in range(2):  # one split scored by both poolings keeps plans for both
            for model, expected in zip(models, inline):
                np.testing.assert_array_equal(predict_split(model, split, 64, kept), expected)
        assert sorted(kept[(0, 64)]) == [4, 7]

    def test_plans_built_once_per_chunk_and_direction(self, tiny_data, monkeypatch):
        built = []
        build = kernels.prefix_plan

        def spy(ids, steps):
            built.append((ids.shape[0], steps))
            return build(ids, steps)

        monkeypatch.setattr(kernels, "prefix_plan", spy)
        config = dataclasses.replace(TINY, epochs=4, eval_batch_size=100)
        train_variant("noise-model", tiny_data, config, trial_seed=1)
        chunks = [-(-np.unique(split.token_ids, axis=0).shape[0] // 100)
                  for split in (tiny_data.dev, tiny_data.test)]
        assert len(built) == 2 * sum(chunks) == 16  # dev's kept over 4 epochs
        assert {steps for _, steps in built} == {7}
        train_variant("noise-model", tiny_data, config, trial_seed=2)
        assert len(built) == 32  # a trial owns its plans; the split keeps none

    def test_prediction_leaves_only_reads_on_a_split(self, corpora, model):
        data = prepare(TINY, *corpora)
        splits = (data.clean, data.noisy, data.dev, data.test)
        before = [dict(vars(split)) for split in splits]
        predict_split(model, data.dev, 64)
        config = dataclasses.replace(TINY, epochs=1, pretrain_epochs=1)
        train_variant("noise-adaptation-model", data, config, trial_seed=1)
        assert data.noisy.reads > before[1]["reads"]  # N was predicted
        for split, fields in zip(splits, before):
            assert vars(split).keys() == fields.keys()
            assert all(vars(split)[name] is value
                       for name, value in fields.items() if name != "reads")

    def test_empty_split(self, tiny_data, model):
        split = dataclasses.replace(tiny_data.test, token_ids=tiny_data.test.token_ids[:0],
                                    sentence_lengths=np.zeros(0, np.int64),
                                    y=tiny_data.test.y[:0])
        assert predict_split(model, split, 64).shape == (0,)
        f1, report = evaluate_split(model, split, tiny_data.label_set, 64)
        assert f1 == 0.0
        assert report.overall.support == 0

    def test_one_evaluation_is_one_read(self, tiny_data, model):
        split = tiny_data.test
        kept = {}
        for _ in range(2):  # the first call also works out the distinct windows
            before = split.reads
            evaluate_split(model, split, tiny_data.label_set, 64, kept)
            assert split.reads == before + 1
