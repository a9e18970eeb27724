"""The benchmark's three workloads.

Each workload turns a corpus seed (run.py derives three from ``--seed``)
into inputs (CoNLL files, and a gazetteer where used, generated by
``noisylab.toydata``), prepares them the way a user's run would (the timed
set-up), runs one unit of work, and returns what the output checks need.  Why each workload exists and which layer it
stresses or bypasses is recorded on the workload itself.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from noisylab import checkpoint, cli, conll, data, gazetteer, training
from noisylab.config import ExperimentConfig
from noisylab.toydata import gazetteer_file_text, generate_splits, toy_gazetteer_pairs

# The acceptance experiment's model and schedule (E=16, H=24, dense 16,
# |C|=400, 40 epochs, evaluation batches of 512, gazetteer-like channel).
ACCEPTANCE = dict(
    clean_budget=400,
    embedding_dim=16,
    hidden_size=24,
    dense_size=16,
    cleaner_proj_size=8,
    epochs=40,
    learning_rate=0.005,
    eval_batch_size=512,
    channel_kind="empirical",
    channel_preset="gazetteer-like",
)


@dataclass
class TrialOutput:
    """What the output checks read from one trial."""

    seed: int
    test_f1: float
    theta: Optional[np.ndarray]
    selected_epoch: int
    reproduced_f1: Optional[float] = None  # test F1 re-scored from the checkpoint


class Workload:
    name = ""
    why = ""
    stresses = ""
    variant = ""
    overrides = {}

    def config(self, seed, workdir):
        return ExperimentConfig(
            variant=self.variant, seed=seed, **{**ACCEPTANCE, **self.overrides},
            train_path=os.path.join(workdir, "train.conll"),
            dev_path=os.path.join(workdir, "dev.conll"),
            test_path=os.path.join(workdir, "test.conll"),
            gazetteer_path=os.path.join(workdir, "gazetteer.tsv"),
        )

    def write_inputs(self, config):
        """Generated corpora (and gazetteer) for the config's seed."""
        splits = generate_splits(config.seed)
        for path, corpus in zip((config.train_path, config.dev_path, config.test_path), splits):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(conll.write_conll(corpus))
        with open(config.gazetteer_path, "w", encoding="utf-8") as fh:
            fh.write(gazetteer_file_text(toy_gazetteer_pairs(config.seed)))

    def setup(self, config):
        """From input files to a prepared SplitDataset (the timed set-up)."""
        label_set = config.label_set()
        corpora = []
        for path in (config.train_path, config.dev_path, config.test_path):
            with open(path, encoding="utf-8") as fh:
                corpora.append(conll.parse_conll(fh.read(), label_set))
        gaz = None
        if config.noisy_source == "gazetteer":
            gaz = gazetteer.Gazetteer.load(config.gazetteer_path)
        return data.prepare(config, *corpora, gazetteer=gaz)

    def run(self, config, dataset, workdir):
        """One unit of work; returns its raw result for ``outputs``."""
        raise NotImplementedError

    def outputs(self, config, raw, workdir):
        """TrialOutputs of a finished unit (not timed)."""
        raise NotImplementedError

    def trials(self, config):
        return 1

    def nominal_windows(self, config, dataset):
        """Windows trained plus windows scored by one unit, from split sizes
        and the variant's schedule; an input property, not a count of work
        done, so that skipping repeated windows shows as a gain."""
        n_clean, n_noisy = len(dataset.clean), len(dataset.noisy)
        scored = config.epochs * len(dataset.dev) + len(dataset.test)
        if config.variant == "noise-adaptation-model":
            trained = (config.pretrain_epochs + config.epochs) * n_noisy
            scored += n_noisy  # the pretrained model labels N for the channel init
        else:  # clean and noisy epochs alternate, starting clean
            subsample = int(round(config.noisy_factor * n_clean))
            trained = sum(n_clean if e % 2 == 0 else subsample for e in range(config.epochs))
        return self.trials(config) * (trained + scored)

    def batch_shapes(self):
        """(role, (B, T, E, H)) of the LSTM kernel calls in a unit."""
        merged = {**ACCEPTANCE, **self.overrides}
        e, h = merged["embedding_dim"], merged["hidden_size"]
        return [("train", (32, 7, e, h)), ("predict", (merged["eval_batch_size"], 7, e, h))]


class ToyTrials(Workload):
    name = "toy-trials"
    why = ("the acceptance harness in small: noise-model trials on two seeds; "
           "prediction-heavy with small GEMMs, so Python overhead and BLAS "
           "threading dominate")
    stresses = ("stresses model.infer_probs (dev scoring every epoch), "
                "evaluation.entity_prf and per-op Python overhead; the only "
                "workload with more than one trial seed, so a seed pool shows "
                "here and nowhere else")
    variant = "noise-model"
    overrides = {"n_seeds": 2}

    def trials(self, config):
        return config.n_seeds

    def run(self, config, dataset, workdir):
        return training.run_trials(self.variant, dataset, config)

    def outputs(self, config, raw, workdir):
        return [TrialOutput(t.seed, t.test_f1, t.theta, t.selected_epoch) for t in raw.trials]


class NoisyFullCli(Workload):
    name = "noisy-full-cli"
    why = ("`noisylab train` in-process: noise-adaptation-model on gazetteer "
           "labels at the acceptance model size; about 2.4k training batches "
           "of 32, dev scoring about 5% of the time")
    stresses = ("stresses the training graph: model.probs, autodiff backward, "
                "Adam and the noise-channel matmul; the only workload through "
                "conll, gazetteer, checkpoint and fileio; evaluation-side "
                "optimisations should not move it")
    variant = "noise-adaptation-model"
    overrides = {"noisy_source": "gazetteer", "epochs": 3, "pretrain_epochs": 1}

    def write_inputs(self, config):
        super().write_inputs(config)
        with open(self._config_path(config), "w", encoding="utf-8") as fh:
            fh.write(config.to_text())

    @staticmethod
    def _config_path(config):
        return os.path.join(os.path.dirname(config.train_path), "experiment.cfg")

    def run(self, config, dataset, workdir):
        out = os.path.join(workdir, "train-out")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--config", self._config_path(config), "--out", out])
        if code != 0:
            raise RuntimeError(f"noisylab train exited with {code}")
        return out

    def outputs(self, config, raw, workdir):
        with open(os.path.join(raw, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        model, vocab, label_set, saved, noise, _ = checkpoint.load_checkpoint(
            os.path.join(raw, "checkpoint.npz"))
        with open(config.test_path, encoding="utf-8") as fh:
            corpus = conll.parse_conll(fh.read(), label_set)
        split = data.corpus_windows(corpus, vocab, "checkpoint-test", label_set,
                                    y_names=corpus.flat_labels())
        reproduced, _ = training.evaluate_split(model, split, label_set,
                                                saved.eval_batch_size)
        theta = None if noise is None else noise.theta()
        return [TrialOutput(summary["seed"], summary["test_f1"], theta,
                            summary["selected_epoch"], reproduced)]


class PaperScale(Workload):
    name = "paper-scale"
    why = ("one noise-model trial at the paper's sizes (E=H=300, dense 100); "
           "BLAS-bound, with about 80% of the time in the LSTM kernels")
    stresses = ("stresses kernels.lstm_forward/lstm_backward GEMMs and the "
                "eval-time caches behind peak memory; per-op Python overhead "
                "is small, so BLAS-thread and GEMM-hoist changes show here in "
                "the opposite direction to toy-trials")
    variant = "noise-model"
    overrides = {"embedding_dim": 300, "hidden_size": 300, "dense_size": 100,
                 "epochs": 4, "noisy_factor": 2.0}

    def run(self, config, dataset, workdir):
        return training.train_variant(self.variant, dataset, config, trial_seed=config.seed)

    def outputs(self, config, raw, workdir):
        return [TrialOutput(raw.seed, raw.test_f1, raw.theta, raw.selected_epoch)]


WORKLOADS = {w.name: w for w in (ToyTrials(), NoisyFullCli(), PaperScale())}
