"""Command-line surface tying the pipeline together.

Subcommands: annotate, simulate-noise, init-theta, train, evaluate, sweep,
report, and toydata (writes the bundled synthetic corpus to disk).  Any
validation failure exits nonzero with a message; outputs are written
atomically so there is never partial silent output.
"""

import argparse
import os
import sys
from itertools import islice

import numpy as np

from . import checkpoint as ckpt
from . import evaluation, training
from .autodiff import NonFiniteError
from .config import ExperimentConfig, check_range, parse_labels
from .conll import parse_conll, write_conll
from .data import CHANNEL_CONFIG_KEYS, build_channel_spec, corpus_windows, prepare
from .fileio import atomic_write_json, atomic_write_text, jsonl_line
from .gazetteer import Gazetteer, annotate
from .noise import CHANNEL_KINDS, apply_channel, estimate_confusion, init_noise_weights
from .toydata import gazetteer_file_text, generate_splits, toy_gazetteer_pairs


def _parse(path, label_set=None):
    """The CoNLL corpus in the file at ``path``; an error names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            corpus = parse_conll(fh.read(), label_set)
            if not corpus.sentences:
                raise ValueError("no sentences")
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    return corpus


def _label_set(arg):
    return parse_labels(arg, "--labels")


def cmd_annotate(args):
    label_set = _label_set(args.labels)
    corpus = _parse(args.input)
    gaz = Gazetteer.load(args.gazetteer, blocklist_path=args.blocklist,
                         classes=label_set.classes)
    labeled = annotate((s.tokens for s in corpus.sentences), gaz)
    for sentence, labels in zip(corpus.sentences, labeled):
        sentence.labels = labels
    atomic_write_text(args.output, write_conll(corpus))
    print(f"annotated {corpus.token_count} tokens -> {args.output}")
    return 0


def cmd_simulate_noise(args):
    label_set = _label_set(args.labels)
    spec = build_channel_spec(args.kind, label_set, args.seed, rho=args.rho,
                              permutation=args.permutation, preset=args.preset,
                              matrix_path=args.matrix,
                              keys={key: f"--{key}" for key in CHANNEL_CONFIG_KEYS})
    corpus = _parse(args.input, label_set)
    if not corpus.labeled:
        raise ValueError("input corpus must be labeled")
    flat = label_set.encode(corpus.flat_labels())
    corrupted = apply_channel(flat, spec)
    names = map(label_set.name, corrupted)
    for sentence in corpus.sentences:
        sentence.labels = list(islice(names, len(sentence)))
    atomic_write_text(args.output, write_conll(corpus))
    changed = int((corrupted != np.asarray(flat)).sum())
    print(f"corrupted {changed}/{len(flat)} labels -> {args.output}")
    return 0


def cmd_init_theta(args):
    check_range("alpha", args.alpha, "--alpha")
    label_set = _label_set(args.labels)
    clean = _parse(args.clean, label_set)
    noisy = _parse(args.noisy, label_set)
    y = label_set.encode(clean.flat_labels())
    z = label_set.encode(noisy.flat_labels())
    counts = estimate_confusion(y, z, label_set.k)
    b = init_noise_weights(counts, alpha=args.alpha)
    atomic_write_text(args.output, evaluation.matrix_csv(b, label_set))
    print(f"noise weights from {len(y)} aligned labels -> {args.output}")
    return 0


def _load_corpora(config):
    label_set = config.label_set()
    train = _parse(config.train_path, label_set)
    dev = _parse(config.dev_path, label_set)
    test = _parse(config.test_path, label_set)
    return train, dev, test


def _maybe_gazetteer(config):
    if config.noisy_source != "gazetteer":
        return None
    return Gazetteer.load(
        config.gazetteer_path,
        blocklist_path=config.blocklist_path or None,
        classes=config.label_set().classes,
    )


def cmd_train(args):
    config = ExperimentConfig.load(args.config)
    train_corpus, dev_corpus, test_corpus = _load_corpora(config)
    data = prepare(config, train_corpus, dev_corpus, test_corpus,
                   gazetteer=_maybe_gazetteer(config))
    records = []
    result = training.train_variant(
        config.variant, data, config, trial_seed=config.seed,
        metrics_sink=records.append,
    )
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "resolved_config.txt"), config.to_text())
    atomic_write_text(
        os.path.join(args.out, "metrics.jsonl"),
        "".join(jsonl_line(r) + "\n" for r in records),
    )
    ckpt.save_checkpoint(
        os.path.join(args.out, "checkpoint.npz"), result.model_state, data.vocab,
        data.label_set, config, noise_b=result.noise_b,
        selected_epoch=result.selected_epoch,
        dev_f1_history=result.dev_f1_history,
    )
    atomic_write_json(os.path.join(args.out, "summary.json"), {
        "variant": result.variant,
        "seed": result.seed,
        "selected_epoch": result.selected_epoch,
        "dev_f1_history": result.dev_f1_history,
        "test_f1": result.test_f1,
        "test_report": result.test_report.as_dict(),
    })
    print(f"trained {result.variant}: dev-selected epoch {result.selected_epoch}, "
          f"test F1 {result.test_f1:.4f} -> {args.out}")
    return 0


def cmd_evaluate(args):
    model, vocab, label_set, config, _, _ = ckpt.load_checkpoint(args.checkpoint)
    corpus = _parse(args.test, label_set)
    if not corpus.labeled:
        raise ValueError("evaluation corpus must be labeled")
    split = corpus_windows(corpus, vocab, "eval", label_set,
                           y_names=corpus.flat_labels())
    _, report = training.evaluate_split(model, split, label_set,
                                        config.eval_batch_size)
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "report.csv"), report.as_csv())
    atomic_write_text(os.path.join(args.out, "report.json"), report.as_json() + "\n")
    print(f"overall F1 {report.overall.f1:.4f} -> {args.out}")
    return 0


def cmd_sweep(args):
    config = ExperimentConfig.load(args.config)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    train_corpus, dev_corpus, test_corpus = _load_corpora(config)
    rows = training.sweep(
        args.axis, values, config.variant, train_corpus, dev_corpus,
        test_corpus, config, gazetteer=_maybe_gazetteer(config),
    )
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "resolved_config.txt"), config.to_text())
    atomic_write_text(os.path.join(args.out, "sweep.csv"), training.sweep_csv(rows))
    print(f"swept {args.axis} over {len(values)} values -> {args.out}")
    return 0


def cmd_report(args):
    _, _, label_set, _, noise, extras = ckpt.load_checkpoint(args.checkpoint)
    if noise is None:
        raise ValueError("checkpoint has no noise layer")
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "theta.csv"),
                      evaluation.matrix_csv(noise.theta(), label_set))
    atomic_write_text(os.path.join(args.out, "noise_b.csv"),
                      evaluation.matrix_csv(noise.b_matrix(), label_set))
    print(f"noise channel report -> {args.out}")
    return 0


def cmd_toydata(args):
    os.makedirs(args.out, exist_ok=True)
    train, dev, test = generate_splits(
        args.seed, train_tokens=args.train_tokens,
        dev_tokens=args.dev_tokens, test_tokens=args.test_tokens,
    )
    for name, corpus in (("train", train), ("dev", dev), ("test", test)):
        atomic_write_text(os.path.join(args.out, f"{name}.conll"), write_conll(corpus))
    atomic_write_text(os.path.join(args.out, "gazetteer.tsv"),
                      gazetteer_file_text(toy_gazetteer_pairs(args.seed)))
    print(f"toy corpus ({train.token_count}/{dev.token_count}/{test.token_count} "
          f"tokens) -> {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="noisylab",
        description="Train windowed token classifiers on a mix of clean and "
                    "noisy labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="label a corpus by gazetteer lookup")
    p.add_argument("--input", required=True)
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--blocklist", default=None)
    p.add_argument("--labels", default="O,PER,ORG,LOC,MISC")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("simulate-noise", help="corrupt gold labels through a channel")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--kind", choices=CHANNEL_KINDS, default="empirical")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--permutation", default="")
    p.add_argument("--preset", default="")
    p.add_argument("--matrix", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", default="O,PER,ORG,LOC,MISC")
    p.set_defaults(func=cmd_simulate_noise)

    p = sub.add_parser("init-theta", help="noise weights from aligned clean/noisy files")
    p.add_argument("--clean", required=True)
    p.add_argument("--noisy", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--labels", default="O,PER,ORG,LOC,MISC")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_init_theta)

    p = sub.add_parser("train", help="train one variant from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run the clean-size or noisy-factor sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=list(training.SWEEP_AXES), required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="write the learned noise channel as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("toydata", help="write the bundled synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-tokens", type=int, default=20_000)
    p.add_argument("--dev-tokens", type=int, default=2_500)
    p.add_argument("--test-tokens", type=int, default=2_500)
    p.set_defaults(func=cmd_toydata)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NonFiniteError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
