"""Training variants, the alternating clean/noisy schedule, epoch selection
by dev F1, and the multi-seed trial harness.

Six variants are supported.  base-model trains on clean data only.
base-model-with-noise pools clean data with a fresh noisy subsample each
epoch, without noise handling.  noise-model alternates clean epochs with
noisy epochs that train through the noise layer, whose weights start from
the smoothed clean/noisy confusion of C; noise-model-with-identity-init is
identical but starts from the identity matrix.  noise-adaptation-model
trains through the noise layer on the full noisy set only, initializing
from the confusion between a noisy-pretrained model's predictions and the
noisy labels.  noise-cleaning-model trains a label cleaning network on C
each epoch and then trains the base model on cleaned noisy data plus C.

Training steps differentiate through ``WindowClassifier.probs``; every
prediction goes through ``WindowClassifier.predict`` or ``infer``, which
are passed ``eval_batch_size`` as it is and own every rule of prediction,
the BLAS pin and the chunk size among them.
"""

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import parallel
from .autodiff import NonFiniteError, Tensor, absolute_error, cross_entropy
from .data import SplitDataset, prepare
from .evaluation import PRFReport, entity_prf
from .model import (
    CleaningNetwork,
    NoiseMatrix,
    WindowClassifier,
    noisy_forward,
    one_hot,
    theta_from_b,
)
from .noise import estimate_confusion, init_noise_weights
from .optim import Adam
from .rng import substream

# name: (epoch phases, repeated in order over the epochs; how the noise
# layer's weights start, or None for a variant without a noise layer)
VARIANTS = {
    "base-model": (("clean",), None),
    "base-model-with-noise": (("pooled",), None),
    "noise-model": (("clean", "noisy"), "clean-confusion"),
    "noise-model-with-identity-init": (("clean", "noisy"), "identity"),
    "noise-adaptation-model": (("noisy-full",), "prediction-confusion"),
    "noise-cleaning-model": (("cleaning",), None),
}


def _variant(name):
    """The (phases, noise init) entry of ``name`` in VARIANTS."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown variant {name!r}; expected one of {', '.join(VARIANTS)}") from None


def schedule(variant, epochs):
    """Observable epoch phases, in order.  The alternating variants always
    start with a clean epoch and alternate strictly."""
    phases, _ = _variant(variant)
    return [phases[e % len(phases)] for e in range(epochs)]


def subsample_noisy(n_total, size, seed, epoch=0):
    """Uniform sample without replacement of ``size`` indices out of
    ``n_total``; deterministic in (seed, epoch), fresh across epochs."""
    if size > n_total:
        raise ValueError(f"subsample size {size} exceeds noisy pool {n_total}")
    rng = substream(seed, "subsample", epoch)
    return rng.permutation(n_total)[:size]


@dataclass
class TrialResult:
    seed: int
    variant: str
    records: list
    selected_epoch: int
    test_f1: float
    test_report: PRFReport
    theta: Optional[np.ndarray]
    noise_b: Optional[np.ndarray]
    model_state: dict


@dataclass
class TrialsSummary:
    variant: str
    mean_f1: float
    se: float
    n_seeds: int
    trials: list


def _supervised_pass(model, ids, labels, optimizers, rng, batch_size, noise=None):
    """One shuffled pass of cross-entropy training, through the noise layer
    ``noise`` when one is given; after each batch the ``optimizers`` step
    in order.  Returns the mean loss."""
    order = rng.permutation(ids.shape[0])
    total = 0.0
    for start in range(0, len(order), batch_size):
        batch = order[start:start + batch_size]
        predicted = model.probs(ids[batch])
        if noise is not None:
            predicted = noisy_forward(predicted, noise)
        loss = cross_entropy(predicted, labels[batch])
        loss.backward()
        for optimizer in optimizers:
            optimizer.step()
        total += loss.item() * len(batch)
    return total / max(ids.shape[0], 1)


def train_clean_epoch(model, clean_split, optimizer, rng, batch_size):
    """One pass over shuffled C with cross-entropy against the trusted
    labels; the noise layer is not part of this graph."""
    ids, y = clean_split.take(slice(None), "y")
    return _supervised_pass(model, ids, y, (optimizer,), rng, batch_size)


def train_noisy_epoch(model, noise, noisy_split, indices, opt_base, opt_noise,
                      rng, batch_size):
    """One pass over a noisy subsample through the noise layer; both the
    shared base weights and the noise weights are updated."""
    ids, z = noisy_split.take(indices, "z")
    optimizers = (opt_base,) if opt_noise is None else (opt_base, opt_noise)
    return _supervised_pass(model, ids, z, optimizers, rng, batch_size, noise)


def train_pooled_epoch(model, clean_split, noisy_split, indices, optimizer,
                       rng, batch_size):
    """One pass over C pooled with a noisy subsample, no noise handling."""
    clean_ids, y = clean_split.take(slice(None), "y")
    noisy_ids, z = noisy_split.take(indices, "z")
    ids = np.concatenate([clean_ids, noisy_ids])
    labels = np.concatenate([y, z])
    return _supervised_pass(model, ids, labels, (optimizer,), rng, batch_size)


def _train_cleaner_pass(model, cleaner, clean_split, optimizer, rng, batch_size, k):
    """Fit the cleaning network on (C features, noisy labels) -> clean labels
    with the absolute error loss.  Base weights are left untouched, so C's
    features are computed once, before the first batch."""
    ids, y = clean_split.take(slice(None), "y")
    _, z = clean_split.take(slice(None), "z")
    dtype = cleaner.proj_w.values.dtype
    features = model.infer_features(ids)
    order = rng.permutation(ids.shape[0])
    total = 0.0
    for start in range(0, len(order), batch_size):
        batch = order[start:start + batch_size]
        out = cleaner.forward(Tensor(features[batch]), one_hot(z[batch], k, dtype=dtype))
        loss = absolute_error(out, Tensor(one_hot(y[batch], k, dtype=dtype)))
        loss.backward()
        optimizer.step()
        total += loss.item()
    return total / max(ids.shape[0], 1)


def _clean_noisy_labels(model, cleaner, noisy_split, indices, k, eval_batch):
    """Hard labels for a noisy subsample: the cleaner output is renormalized
    to a distribution and its argmax is used; rows that clip to all zero
    fall back to the observed noisy label."""
    ids, z = noisy_split.take(indices, "z")
    dtype = cleaner.proj_w.values.dtype
    vec = model.infer(
        ids, lambda rows, feats: cleaner.forward(feats, one_hot(z[rows], k, dtype=dtype)).values,
        eval_batch)
    cleaned = np.argmax(vec, axis=1)
    dead = vec.sum(axis=1) <= 0.0
    cleaned[dead] = z[dead]
    return ids, cleaned


def evaluate_split(model, split, label_set, eval_batch, kept=None):
    """Entity-level report of the model's predictions on one split, which
    counts as one read; ``kept`` as in :meth:`WindowClassifier.predict`."""
    ids, _ = split.take(slice(None))
    preds = model.predict(ids, eval_batch, kept)
    report = entity_prf(split.y, preds, label_set, split.sentence_lengths)
    return report.overall.f1, report


@contextmanager
def _naming_epoch(epoch, phase):
    """Prefix a NonFiniteError raised inside with the epoch and the phase."""
    try:
        yield
    except NonFiniteError as err:
        raise NonFiniteError(f"epoch {epoch} ({phase}): {err}") from err


def _adam(params, config):
    return Adam(params, lr=config.learning_rate, beta1=config.beta1,
                beta2=config.beta2, eps=config.epsilon)


def _init_noise_matrix(init, model, opt_base, data, config, trial_seed):
    """Noise layer for the variant's init kind, or None without one; a
    pretraining init trains through ``opt_base`` and then resets it."""
    if init is None:
        return None
    if init == "identity":
        return NoiseMatrix(np.eye(data.k), dtype=config.numpy_dtype)
    if init == "clean-confusion":
        if data.clean.z is None:
            raise ValueError("noise-model needs noisy twins of the clean labels")
        labels, z = data.clean.y, data.clean.z
    else:
        # "prediction-confusion": pretrain on noisy labels only, then read
        # the confusion between the model's own predictions and those labels
        ids, z = data.noisy.take(slice(None), "z")
        for epoch in range(config.pretrain_epochs):
            rng = substream(trial_seed, "shuffle", "pretrain", epoch)
            with _naming_epoch(epoch, "pretrain"):
                _supervised_pass(model, ids, z, (opt_base,), rng, config.batch_size)
        opt_base.reset()
        labels = model.predict(ids, config.eval_batch_size)
    b = init_noise_weights(estimate_confusion(labels, z, data.k), config.alpha)
    return NoiseMatrix(b, dtype=config.numpy_dtype)


def noisy_subsample_size(variant, data, config):
    """Windows in each epoch's noisy subsample, noisy_factor x |C|; raises
    if the variant draws subsamples from a smaller noisy pool."""
    phases, _ = _variant(variant)
    size = int(round(config.noisy_factor * len(data.clean)))
    if {"noisy", "pooled", "cleaning"} & set(phases) and size > len(data.noisy):
        raise ValueError(f"noisy_factor {config.noisy_factor} x |C| {len(data.clean)} = "
                         f"{size} exceeds the noisy pool of {len(data.noisy)}")
    return size


@parallel.one_blas_thread()
def train_variant(variant, data: SplitDataset, config, trial_seed):
    """Run one seeded trial of a variant; selects the best epoch by dev F1
    (earliest epoch wins ties), reports test scores from that epoch, and
    returns each epoch's record, as ``metrics.jsonl`` holds it.  BLAS
    runs on one thread (:mod:`noisylab.parallel`), so the numbers do not
    depend on the machine's core count."""
    phases, init = _variant(variant)
    subsample_size = noisy_subsample_size(variant, data, config)
    k = data.k
    model = WindowClassifier(
        data.embedding_table, k=k, hidden_size=config.hidden_size,
        dense_size=config.dense_size, seed=trial_seed,
        trainable_embeddings=config.trainable_embeddings,
        pooling=config.pooling, dtype=config.numpy_dtype,
    )
    opt_base = _adam(model.parameters(), config)
    noise = _init_noise_matrix(init, model, opt_base, data, config, trial_seed)
    opt_noise = None if noise is None else _adam(noise.parameters(), config)
    cleaner = None
    if "cleaning" in phases:
        cleaner = CleaningNetwork(2 * config.hidden_size, k,
                                  proj_size=config.cleaner_proj_size,
                                  seed=trial_seed, dtype=config.numpy_dtype)
        opt_cleaner = _adam(cleaner.parameters(), config)

    dev_kept = {}  # dev's distinct rows and plans, reused by every epoch
    records = []
    best_f1 = -1.0

    for epoch, phase in enumerate(schedule(variant, config.epochs)):
        rng = substream(trial_seed, "shuffle", epoch)
        cleaner_loss = None
        with _naming_epoch(epoch, phase):
            if phase == "clean":
                loss = train_clean_epoch(model, data.clean, opt_base, rng, config.batch_size)
            else:
                indices = (np.arange(len(data.noisy)) if phase == "noisy-full" else
                           subsample_noisy(len(data.noisy), subsample_size, trial_seed, epoch))
                if phase in ("noisy", "noisy-full"):
                    loss = train_noisy_epoch(model, noise, data.noisy, indices,
                                             opt_base, opt_noise, rng, config.batch_size)
                elif phase == "pooled":
                    loss = train_pooled_epoch(model, data.clean, data.noisy, indices,
                                              opt_base, rng, config.batch_size)
                else:  # "cleaning"
                    cleaner_loss = _train_cleaner_pass(
                        model, cleaner, data.clean, opt_cleaner,
                        substream(trial_seed, "shuffle", epoch, "cleaner"),
                        config.batch_size, k)
                    noisy_ids, cleaned = _clean_noisy_labels(
                        model, cleaner, data.noisy, indices, k, config.eval_batch_size)
                    clean_ids, y = data.clean.take(slice(None), "y")
                    ids = np.concatenate([noisy_ids, clean_ids])
                    labels = np.concatenate([cleaned, y])
                    loss = _supervised_pass(model, ids, labels, (opt_base,), rng,
                                            config.batch_size)

        dev_f1, dev_report = evaluate_split(model, data.dev, data.label_set,
                                            config.eval_batch_size, dev_kept)
        # dev F1 >= 0, so epoch 0 always sets the best state
        if dev_f1 > best_f1:
            best_f1 = dev_f1
            best_epoch = epoch
            best_state = model.state_dict()
            best_noise_b = None if noise is None else noise.b_matrix()
        records.append({
            "variant": variant,
            "seed": trial_seed,
            "epoch": epoch,
            "phase": phase,
            "train_loss": loss,
            "dev_f1": dev_f1,
            "dev_per_class": dev_report.as_dict()["per_class"],
        })
        if cleaner_loss is not None:
            records[-1]["cleaner_loss"] = cleaner_loss

    model.load_state(best_state)
    test_f1, test_report = evaluate_split(model, data.test, data.label_set,
                                          config.eval_batch_size)
    return TrialResult(
        seed=trial_seed,
        variant=variant,
        records=records,
        selected_epoch=best_epoch,
        test_f1=test_f1,
        test_report=test_report,
        theta=None if noise is None else theta_from_b(best_noise_b),
        noise_b=best_noise_b,
        model_state=best_state,
    )


def run_trials(variant, data: SplitDataset, config):
    """``config.n_seeds`` independent seeded trials; reports mean test F1
    and standard error (sample standard deviation over the square root of
    the trial count)."""
    trials = [
        train_variant(variant, data, config, trial_seed=config.seed + i)
        for i in range(config.n_seeds)
    ]
    mean, se = mean_and_se([t.test_f1 for t in trials])
    return TrialsSummary(
        variant=variant,
        mean_f1=mean,
        se=se,
        n_seeds=config.n_seeds,
        trials=trials,
    )


def mean_and_se(values):
    """Mean and standard error of a sample; SE is 0 for a single value."""
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


@dataclass
class SweepRow:
    axis_value: float
    variant: str
    mean_f1: float
    se: float
    n_seeds: int


SWEEP_AXES = ("clean-size", "noisy-factor")


def sweep(axis, values, variant, train_corpus, dev_corpus, test_corpus, config,
          gazetteer=None):
    """Run the harness across clean-data sizes or noisy subsample factors.

    clean-size resamples C at each budget (the per-epoch noisy subsample
    stays tied to |C|); noisy-factor keeps C fixed and scales the
    subsample.  Every value is prepared and checked before any trial runs;
    a clean size's dataset is then dropped and prepared again for its
    trials, so one prepared dataset is held at a time.  Returns one row
    per value.
    """
    _variant(variant)
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if axis == "clean-size":
        cfgs = [dataclasses.replace(config, clean_budget=int(v)) for v in values]
    else:
        cfgs = [dataclasses.replace(config, noisy_factor=float(v)) for v in values]

    def prepared(cfg):
        return prepare(cfg, train_corpus, dev_corpus, test_corpus, gazetteer=gazetteer)

    # noisy_factor does not enter prepare, so one dataset serves every factor
    data = None if axis == "clean-size" else prepared(config)
    for cfg in cfgs:
        noisy_subsample_size(variant, prepared(cfg) if data is None else data, cfg)
    rows = []
    for value, cfg in zip(values, cfgs):
        if axis == "clean-size":
            data = None  # free the last value's dataset before preparing this one
            data = prepared(cfg)
        summary = run_trials(variant, data, cfg)
        rows.append(SweepRow(
            axis_value=float(value),
            variant=variant,
            mean_f1=summary.mean_f1,
            se=summary.se,
            n_seeds=summary.n_seeds,
        ))
    return rows


def sweep_csv(rows):
    lines = ["axis_value,variant,mean_f1,se,n_seeds"]
    for row in rows:
        lines.append(
            f"{row.axis_value!r},{row.variant},{row.mean_f1!r},{row.se!r},{row.n_seeds}"
        )
    return "\n".join(lines) + "\n"
