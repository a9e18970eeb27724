"""End-to-end command-line runs on tiny bundled fixtures."""

import json
import os

import numpy as np
import pytest

from noisylab.cli import main
from noisylab.config import ExperimentConfig
from noisylab.conll import parse_conll, write_conll
from noisylab.evaluation import ClassScores, parse_matrix_csv
from noisylab.model import LabelSet


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    code = main(["toydata", "--out", str(out), "--seed", "5",
                 "--train-tokens", "1500", "--dev-tokens", "400",
                 "--test-tokens", "400"])
    assert code == 0
    return out


TINY_EPOCHS = 24


@pytest.fixture(scope="module")
def tiny_config_text(toy_dir):
    config = ExperimentConfig(
        variant="noise-model",
        seed=3,
        train_path=str(toy_dir / "train.conll"),
        dev_path=str(toy_dir / "dev.conll"),
        test_path=str(toy_dir / "test.conll"),
        clean_budget=400,
        embedding_dim=12,
        hidden_size=12,
        dense_size=8,
        cleaner_proj_size=4,
        epochs=TINY_EPOCHS,
        learning_rate=0.01,
        eval_batch_size=256,
        n_seeds=1,
    )
    return config.to_text()


class TestToydata:
    def test_files_written_and_parse(self, toy_dir):
        for name in ("train.conll", "dev.conll", "test.conll"):
            corpus = parse_conll(read(toy_dir / name), LabelSet())
            assert corpus.labeled
            assert corpus.token_count > 0
        assert "\t" in read(toy_dir / "gazetteer.tsv")


class TestAnnotate:
    def test_annotate_writes_labeled_corpus(self, toy_dir, tmp_path):
        out = tmp_path / "auto.conll"
        code = main(["annotate", "--input", str(toy_dir / "train.conll"),
                     "--gazetteer", str(toy_dir / "gazetteer.tsv"),
                     "--output", str(out)])
        assert code == 0
        auto = parse_conll(read(out), LabelSet())
        gold = parse_conll(read(toy_dir / "train.conll"), LabelSet())
        assert auto.token_count == gold.token_count
        labels = set()
        for s in auto.sentences:
            labels.update(s.labels)
        assert "MISC" not in labels
        assert "O" in labels

    def test_missing_file_exits_nonzero(self, tmp_path):
        code = main(["annotate", "--input", str(tmp_path / "nope.conll"),
                     "--gazetteer", str(tmp_path / "nope.tsv"),
                     "--output", str(tmp_path / "out.conll")])
        assert code == 2


class TestSimulateNoise:
    def test_preset_channel(self, toy_dir, tmp_path):
        out = tmp_path / "noisy.conll"
        code = main(["simulate-noise", "--input", str(toy_dir / "train.conll"),
                     "--output", str(out), "--kind", "empirical",
                     "--preset", "gazetteer-like", "--seed", "4"])
        assert code == 0
        noisy = parse_conll(read(out), LabelSet())
        gold = parse_conll(read(toy_dir / "train.conll"), LabelSet())
        assert noisy.token_count == gold.token_count
        assert noisy.flat_labels() != gold.flat_labels()

    def test_uniform_zero_is_identity(self, toy_dir, tmp_path):
        out = tmp_path / "same.conll"
        code = main(["simulate-noise", "--input", str(toy_dir / "train.conll"),
                     "--output", str(out), "--kind", "uniform", "--rho", "0"])
        assert code == 0
        assert parse_conll(read(out)).flat_labels() == \
            parse_conll(read(toy_dir / "train.conll")).flat_labels()

    # PER sent to O, written with PER's row and column first
    PER_FIRST = (
        "clean\\noisy,PER,O,ORG,LOC,MISC\n"
        "PER,0,1,0,0,0\n"
        "O,0,1,0,0,0\n"
        "ORG,0,0,1,0,0\n"
        "LOC,0,0,0,1,0\n"
        "MISC,0,0,0,0,1\n"
    )

    @pytest.mark.parametrize("text, message", [
        (PER_FIRST, "classes ['PER', 'O', 'ORG', 'LOC', 'MISC'] differ from the label set "
                    "['O', 'PER', 'ORG', 'LOC', 'MISC']"),
        (PER_FIRST.replace("ORG,0,0,1,0,0", "ORG,0,0,1,0,zero"), "line 4: "),
        (PER_FIRST.replace("LOC,0,0,0,1,0", "LOC,0,0,0,1"), "line 5: 4 values for 5 classes"),
    ], ids=["class-order", "bad-cell", "short-row"])
    def test_matrix_file_rejected_with_exit_2(self, toy_dir, tmp_path, capsys, text, message):
        matrix = tmp_path / "channel.csv"
        matrix.write_text(text, encoding="utf-8")
        out = tmp_path / "noisy.conll"
        code = main(["simulate-noise", "--input", str(toy_dir / "train.conll"),
                     "--output", str(out), "--kind", "empirical", "--matrix", str(matrix)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {matrix}: {message}" in err
        assert not out.exists()


    @pytest.mark.parametrize("flags, message", [
        (["--preset", "gazeteer-like"],
         "--preset = 'gazeteer-like' is not one of gazetteer-like, and no --matrix is set"),
        (["--kind", "uniform", "--rho", "1.5"], "--rho = 1.5 must be in [0, 1]"),
        (["--kind", "permutation", "--permutation", "O,PER,ORG,LOC,MISX"],
         "--permutation = 'O,PER,ORG,LOC,MISX' must name each of "
         "O, PER, ORG, LOC, MISC once"),
    ], ids=["preset", "rho", "permutation"])
    def test_bad_channel_flag_exits_2_naming_it(self, toy_dir, tmp_path, capsys, flags,
                                                message):
        out = tmp_path / "noisy.conll"
        code = main(["simulate-noise", "--input", str(toy_dir / "train.conll"),
                     "--output", str(out), *flags])
        assert code == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()


class TestInitTheta:
    def test_weights_from_aligned_files(self, toy_dir, tmp_path):
        noisy = tmp_path / "noisy.conll"
        main(["simulate-noise", "--input", str(toy_dir / "train.conll"),
              "--output", str(noisy), "--kind", "empirical",
              "--preset", "gazetteer-like", "--seed", "4"])
        out = tmp_path / "b.csv"
        code = main(["init-theta", "--clean", str(toy_dir / "train.conll"),
                     "--noisy", str(noisy), "--output", str(out)])
        assert code == 0
        classes, b = parse_matrix_csv(read(out))
        assert classes == ["O", "PER", "ORG", "LOC", "MISC"]
        assert b.shape == (5, 5)
        assert np.isfinite(b).all()

    @pytest.mark.parametrize("alpha", ["0", "-0.5"])
    def test_alpha_not_positive_exits_2_naming_the_flag(self, toy_dir, tmp_path, capsys,
                                                        alpha):
        out = tmp_path / "b.csv"
        code = main(["init-theta", "--clean", str(toy_dir / "train.conll"),
                     "--noisy", str(toy_dir / "train.conll"), "--alpha", alpha,
                     "--output", str(out)])
        assert code == 2
        assert f"error: --alpha = {float(alpha)!r} must be > 0" in capsys.readouterr().err
        assert not out.exists()


class TestLabelsRejected:
    @pytest.mark.parametrize("command", ["annotate", "simulate-noise", "init-theta"])
    def test_labels_flag_without_o_exits_2_naming_it(self, toy_dir, tmp_path, capsys,
                                                     command):
        train = str(toy_dir / "train.conll")
        inputs = {"annotate": ["--input", train, "--gazetteer", str(toy_dir / "gazetteer.tsv")],
                  "simulate-noise": ["--input", train],
                  "init-theta": ["--clean", train, "--noisy", train]}[command]
        out = tmp_path / "out"
        code = main([command, *inputs, "--labels", "A,B", "--output", str(out)])
        assert code == 2
        assert ("error: --labels = 'A,B': LabelSet must contain the null class O"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_labels_key_without_o_exits_2_naming_it(self, tiny_config_text, tmp_path, capsys):
        old = "\nlabels = O,PER,ORG,LOC,MISC\n"
        assert old in tiny_config_text
        cfg = tmp_path / "config.txt"
        cfg.write_text(tiny_config_text.replace(old, "\nlabels = A,B\n"), encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        assert ("error: labels = 'A,B': LabelSet must contain the null class O"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def run_dir(toy_dir, tiny_config_text, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "config.txt"
    cfg.write_text(tiny_config_text, encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return out


class TestTrainEvaluateReport:
    def test_train_outputs(self, run_dir):
        for name in ("resolved_config.txt", "metrics.jsonl", "checkpoint.npz",
                     "summary.json"):
            assert (run_dir / name).exists()
        records = [json.loads(line) for line in read(run_dir / "metrics.jsonl").splitlines()]
        assert len(records) == TINY_EPOCHS
        summary = json.loads(read(run_dir / "summary.json"))
        assert summary["variant"] == "noise-model"
        assert 0.0 <= summary["test_f1"] <= 1.0

    def test_metrics_hold_per_class_dev_scores(self, run_dir):
        records = [json.loads(line) for line in read(run_dir / "metrics.jsonl").splitlines()]
        for record in records:
            per_class = record["dev_per_class"]
            assert sorted(per_class) == ["LOC", "MISC", "ORG", "PER"]
            total = ClassScores(*(sum(row[c] for row in per_class.values())
                                  for c in ("tp", "fp", "fn")))
            assert total.f1 == record["dev_f1"]
            for row in per_class.values():
                scores = ClassScores(row["tp"], row["fp"], row["fn"])
                assert (row["precision"], row["recall"], row["f1"]) == (
                    scores.precision, scores.recall, scores.f1)
        assert any(record["dev_f1"] > 0 for record in records)

    def test_rerun_from_resolved_config_is_bit_identical(self, run_dir, tmp_path):
        out2 = tmp_path / "again"
        code = main(["train", "--config", str(run_dir / "resolved_config.txt"),
                     "--out", str(out2)])
        assert code == 0
        assert read(out2 / "metrics.jsonl") == read(run_dir / "metrics.jsonl")
        assert read(out2 / "summary.json") == read(run_dir / "summary.json")

    def test_evaluate_on_gold_fixture_scores_one(self, run_dir, toy_dir, tmp_path):
        # score the checkpoint against a file of its own predictions
        from noisylab.checkpoint import load_checkpoint
        from noisylab.data import corpus_windows

        model, vocab, label_set, config, _, _ = load_checkpoint(run_dir / "checkpoint.npz")
        corpus = parse_conll(read(toy_dir / "test.conll"), label_set)
        split = corpus_windows(corpus, vocab, "tmp", label_set,
                               y_names=corpus.flat_labels())
        preds = model.predict(split.token_ids)
        assert (preds != label_set.o_index).any(), "fixture needs entity predictions"
        pos = 0
        for sentence in corpus.sentences:
            sentence.labels = [label_set.name(i) for i in
                               preds[pos:pos + len(sentence)]]
            pos += len(sentence)
        fixture = tmp_path / "selfpred.conll"
        fixture.write_text(write_conll(corpus), encoding="utf-8")
        out = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.npz"),
                     "--test", str(fixture), "--out", str(out)])
        assert code == 0
        report = json.loads(read(out / "report.json"))
        assert report["overall"]["f1"] == 1.0
        csv_text = read(out / "report.csv")
        assert csv_text.startswith("class,precision,recall,f1,support")

    def test_report_writes_theta_and_b(self, run_dir, tmp_path):
        out = tmp_path / "rep"
        code = main(["report", "--checkpoint", str(run_dir / "checkpoint.npz"),
                     "--out", str(out)])
        assert code == 0
        classes, theta = parse_matrix_csv(read(out / "theta.csv"))
        assert classes == ["O", "PER", "ORG", "LOC", "MISC"]
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-9)
        _, b = parse_matrix_csv(read(out / "noise_b.csv"))
        assert b.shape == (5, 5)

    def test_cleaning_model_checkpoint_rescores_to_the_summary_f1(
            self, toy_dir, tiny_config_text, tmp_path):
        # the cleaning network never takes part in prediction, so the
        # classifier's state alone reproduces the test score
        cfg = tmp_path / "config.txt"
        cfg.write_text(tiny_config_text.replace("variant = noise-model",
                                                "variant = noise-cleaning-model"),
                       encoding="utf-8")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        summary = json.loads(read(run / "summary.json"))
        assert summary["variant"] == "noise-cleaning-model"
        assert summary["test_f1"] > 0, "fixture needs entity predictions"
        ev = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint", str(run / "checkpoint.npz"),
                     "--test", str(toy_dir / "test.conll"), "--out", str(ev)]) == 0
        report = json.loads(read(ev / "report.json"))
        assert report["overall"]["f1"] == summary["test_f1"]


class TestNonFiniteExit:
    def test_non_finite_error_exits_2_with_message(self, toy_dir, tiny_config_text,
                                                    tmp_path, monkeypatch, capsys):
        from noisylab import training
        from noisylab.autodiff import NonFiniteError

        def diverge(*args, **kwargs):
            raise NonFiniteError("Adam: non-finite gradient in parameter 0")

        monkeypatch.setattr(training, "train_variant", diverge)
        cfg = tmp_path / "config.txt"
        cfg.write_text(tiny_config_text, encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: Adam: non-finite gradient in parameter 0" in err
        assert "Traceback" not in err


class TestConfigRejected:
    def test_misspelt_dtype_exits_2_with_message(self, tiny_config_text, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text(tiny_config_text.replace("dtype = float64", "dtype = flaot32"),
                       encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: dtype = 'flaot32' is not one of float32, float64" in err
        assert not (tmp_path / "run").exists()


    def test_zero_eval_batch_size_exits_2_before_training(self, tiny_config_text,
                                                          tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text(tiny_config_text.replace("eval_batch_size = 256",
                                                "eval_batch_size = 0"), encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: eval_batch_size = 0 must be > 0" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edits, message", [
        ({"channel_preset = gazetteer-like": "channel_preset = gazeteer-like"},
         "error: channel_preset = 'gazeteer-like' is not one of gazetteer-like"),
        ({"channel_kind = empirical": "channel_kind = permutation",
          "channel_permutation = ": "channel_permutation = O,PER,ORG,LOC,MISX"},
         "error: channel_permutation = 'O,PER,ORG,LOC,MISX' must name each of "
         "O, PER, ORG, LOC, MISC once"),
        ({"channel_kind = empirical": "channel_kind = uniform",
          "channel_rho = 0.0": "channel_rho = 1.5"},
         "error: channel_rho = 1.5 must be in [0, 1]"),
    ], ids=["preset", "permutation", "rho"])
    def test_bad_channel_key_exits_2_naming_it(self, tiny_config_text, tmp_path, capsys,
                                              edits, message):
        text = tiny_config_text
        for old, new in edits.items():
            assert f"\n{old}\n" in text
            text = text.replace(f"\n{old}\n", f"\n{new}\n")
        cfg = tmp_path / "config.txt"
        cfg.write_text(text, encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("hidden_size = 12", "hidden_size = 0", "hidden_size = 0 must be > 0"),
        ("cleaner_proj_size = 4", "cleaner_proj_size = -1",
         "cleaner_proj_size = -1 must be > 0"),
        ("alpha = 1.0", "alpha = 0.0", "alpha = 0.0 must be > 0"),
    ], ids=["hidden_size", "cleaner_proj_size", "alpha"])
    def test_bad_size_or_alpha_exits_2_naming_it(self, tiny_config_text, tmp_path, capsys,
                                                 old, new, message):
        assert f"\n{old}\n" in tiny_config_text
        cfg = tmp_path / "config.txt"
        cfg.write_text(tiny_config_text.replace(f"\n{old}\n", f"\n{new}\n"),
                       encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_noisy_factor_beyond_the_pool_stops_before_training(
            self, tiny_config_text, tmp_path, capsys, monkeypatch):
        from noisylab import training
        records = []
        train_variant = training.train_variant

        def recording(*args, **kwargs):
            return train_variant(*args, **{**kwargs, "metrics_sink": records.append})

        monkeypatch.setattr(training, "train_variant", recording)
        cfg = tmp_path / "config.txt"
        cfg.write_text(tiny_config_text.replace("noisy_factor = 1.0", "noisy_factor = 50"),
                       encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: noisy_factor 50.0 x |C| " in err
        assert "exceeds the noisy pool of " in err
        assert records == []
        assert not (tmp_path / "run").exists()


class TestBadInputFilesExit2:
    def test_truncated_checkpoint(self, run_dir, toy_dir, tmp_path, capsys):
        damaged = tmp_path / "checkpoint.npz"
        damaged.write_bytes((run_dir / "checkpoint.npz").read_bytes()[:2000])
        code = main(["evaluate", "--checkpoint", str(damaged),
                     "--test", str(toy_dir / "test.conll"), "--out", str(tmp_path / "eval")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {damaged}: File is not a zip file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, array, values, message", [
        ("evaluate", "model_out_b", np.zeros(1), "model_out_b has shape (1,), expected (5,)"),
        ("report", "noise_b", np.zeros((3, 3)), "noise_b has shape (3, 3), expected (5, 5)"),
    ], ids=["evaluate-out_b", "report-noise_b"])
    def test_checkpoint_array_of_the_wrong_shape(self, run_dir, toy_dir, tmp_path, capsys,
                                                 command, array, values, message):
        damaged = tmp_path / "checkpoint.npz"
        with np.load(run_dir / "checkpoint.npz") as data:
            arrays = {key: data[key] for key in data.files}
        arrays[array] = values
        np.savez(damaged, **arrays)
        argv = [command, "--checkpoint", str(damaged), "--out", str(tmp_path / "out")]
        if command == "evaluate":
            argv += ["--test", str(toy_dir / "test.conll")]
        assert main(argv) == 2
        assert f"error: {damaged}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        # the config's embedding_dim is 12
        ("the" + " 0.1" * 12 + "\nof" + " 0.5" * 11 + " nan\n",
         "line 2: non-finite component"),
        ("the 0.1 0.2 0.3\nof 0.5 0.5 0.5\n", "line 1: expected 12 components, got 3"),
    ], ids=["non-finite", "width"])
    def test_bad_embedding_file(self, tiny_config_text, tmp_path, capsys, text, message):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(text, encoding="utf-8")
        cfg = tmp_path / "config.txt"
        cfg.write_text(tiny_config_text.replace("embeddings_path = \n",
                                                f"embeddings_path = {vectors}\n"),
                       encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"error: {vectors}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run" / "metrics.jsonl").exists()


    def test_tag_outside_the_label_set_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("a O\nb FOO\n", encoding="utf-8")
        code = main(["simulate-noise", "--input", str(bad), "--output",
                     str(tmp_path / "out.conll"), "--kind", "uniform"])
        assert code == 2
        assert f"error: {bad}: line 2: tag 'FOO' not in label set" in capsys.readouterr().err
        assert not (tmp_path / "out.conll").exists()

    @pytest.mark.parametrize("command", ["annotate", "train"])
    def test_gazetteer_class_outside_the_labels_names_file_and_line(
            self, command, toy_dir, tiny_config_text, tmp_path, capsys):
        gaz = tmp_path / "gazetteer.tsv"
        gaz.write_text("Paris\tLOC\njohn\tXYZ\n", encoding="utf-8")
        out = tmp_path / "out"
        if command == "annotate":
            argv = ["annotate", "--input", str(toy_dir / "train.conll"),
                    "--gazetteer", str(gaz), "--output", str(out)]
        else:
            cfg = tmp_path / "config.txt"
            cfg.write_text(tiny_config_text.replace(
                "noisy_source = channel", "noisy_source = gazetteer").replace(
                "gazetteer_path = \n", f"gazetteer_path = {gaz}\n"), encoding="utf-8")
            argv = ["train", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert f"error: {gaz}:2: class 'XYZ' is not one of O, PER" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_empty_corpus_file_names_the_file(self, command, run_dir, tiny_config_text,
                                              tmp_path, capsys):
        empty = tmp_path / "empty.conll"
        empty.write_text("\n", encoding="utf-8")
        out = tmp_path / "out"
        if command == "train":
            cfg = tmp_path / "config.txt"
            test_path = [line for line in tiny_config_text.splitlines()
                         if line.startswith("test_path")][0]
            cfg.write_text(tiny_config_text.replace(test_path, f"test_path = {empty}"),
                           encoding="utf-8")
            argv = ["train", "--config", str(cfg), "--out", str(out)]
        else:
            argv = ["evaluate", "--checkpoint", str(run_dir / "checkpoint.npz"),
                    "--test", str(empty), "--out", str(out)]
        assert main(argv) == 2
        assert f"error: {empty}: no sentences" in capsys.readouterr().err
        assert not out.exists()

class TestSweepCommand:
    def test_sweep_emits_table(self, toy_dir, tiny_config_text, tmp_path):
        cfg_text = tiny_config_text.replace(f"epochs = {TINY_EPOCHS}", "epochs = 2")
        cfg = tmp_path / "config.txt"
        cfg.write_text(cfg_text, encoding="utf-8")
        out = tmp_path / "sweepout"
        code = main(["sweep", "--config", str(cfg), "--axis", "noisy-factor",
                     "--values", "0.5,1", "--out", str(out)])
        assert code == 0
        lines = read(out / "sweep.csv").strip().split("\n")
        assert lines[0] == "axis_value,variant,mean_f1,se,n_seeds"
        assert len(lines) == 3
        assert lines[1].startswith("0.5,noise-model,")


    def test_value_beyond_the_pool_stops_before_any_trial(
            self, tiny_config_text, tmp_path, capsys, monkeypatch):
        from noisylab import training
        records = []
        run_trials = training.run_trials

        def recording(*args, **kwargs):
            return run_trials(*args, **{**kwargs, "metrics_sink": records.append})

        monkeypatch.setattr(training, "run_trials", recording)
        cfg = tmp_path / "config.txt"
        cfg.write_text(tiny_config_text, encoding="utf-8")
        out = tmp_path / "sweepout"
        code = main(["sweep", "--config", str(cfg), "--axis", "noisy-factor",
                     "--values", "0.5,50", "--out", str(out)])
        assert code == 2
        assert "error: noisy_factor 50.0 x |C| " in capsys.readouterr().err
        assert records == []
        assert not out.exists()


class TestPipelineSmoke:
    def test_annotate_train_evaluate_pipeline(self, toy_dir, tmp_path):
        auto = tmp_path / "auto.conll"
        assert main(["annotate", "--input", str(toy_dir / "train.conll"),
                     "--gazetteer", str(toy_dir / "gazetteer.tsv"),
                     "--output", str(auto)]) == 0
        config = ExperimentConfig(
            variant="noise-model",
            seed=1,
            train_path=str(toy_dir / "train.conll"),
            dev_path=str(toy_dir / "dev.conll"),
            test_path=str(toy_dir / "test.conll"),
            clean_budget=100,
            noisy_source="gazetteer",
            gazetteer_path=str(toy_dir / "gazetteer.tsv"),
            embedding_dim=8,
            hidden_size=10,
            dense_size=8,
            epochs=3,
            eval_batch_size=256,
        )
        cfg = tmp_path / "config.txt"
        cfg.write_text(config.to_text(), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ev = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                     "--test", str(toy_dir / "test.conll"), "--out", str(ev)]) == 0
        report = json.loads(read(ev / "report.json"))
        assert 0.0 <= report["overall"]["f1"] <= 1.0
