"""Experiment configuration: every hyperparameter of a run, serializable
as flat ``key = value`` text so a saved config reproduces its run."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .model import POOLINGS, LabelSet
from .data import check_channel
from .noise import CHANNEL_KINDS
from .training import VARIANTS


# keys whose value selects a code path: a value outside these would
# silently take the default path or fail only mid-run, so it is rejected
# instead
CHOICES = {
    "variant": tuple(VARIANTS),
    "pooling": POOLINGS,
    "channel_kind": CHANNEL_KINDS,
    "dtype": ("float32", "float64"),
    "noisy_scope": ("rest", "all"),
    "noisy_source": ("channel", "gazetteer"),
}

# numeric keys outside these ranges would fail late or train nothing
BOUNDS = {
    "> 0": lambda x: x > 0,
    ">= 0": lambda x: x >= 0,
    "in [0, 1)": lambda x: 0 <= x < 1,
}
RANGES = {
    "seed": ">= 0",
    "n_seeds": "> 0",
    "clean_budget": "> 0",
    "epochs": "> 0",
    "batch_size": "> 0",
    "eval_batch_size": "> 0",
    "pretrain_epochs": ">= 0",
    "learning_rate": "> 0",
    "epsilon": "> 0",
    "beta1": "in [0, 1)",
    "beta2": "in [0, 1)",
    "noisy_factor": ">= 0",
    "alpha": "> 0",
    "embedding_dim": "> 0",
    "hidden_size": "> 0",
    "dense_size": "> 0",
    "cleaner_proj_size": "> 0",
}


def check_range(key, value, name=None):
    """Raise unless ``value`` is finite and meets ``key``'s rule in RANGES;
    the message names ``name`` (a CLI flag, say), by default the key."""
    bound = RANGES[key]
    if not BOUNDS[bound](value):
        raise ValueError(f"{name or key} = {value!r} must be {bound}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name or key} = {value!r} must be finite")


def parse_labels(text, name="labels"):
    """The LabelSet of the comma-separated class names ``text``; an error
    names ``name`` (the key or a CLI flag) and the text."""
    try:
        return LabelSet([n.strip() for n in text.split(",")])
    except ValueError as err:
        raise ValueError(f"{name} = {text!r}: {err}") from None


@dataclass
class ExperimentConfig:
    # run identity
    variant: str = "noise-model"
    seed: int = 0
    n_seeds: int = 5
    # data
    train_path: str = ""
    dev_path: str = ""
    test_path: str = ""
    labels: str = "O,PER,ORG,LOC,MISC"
    clean_budget: int = 400
    noisy_scope: str = "rest"  # rest | all
    noisy_source: str = "channel"  # channel | gazetteer
    gazetteer_path: str = ""
    blocklist_path: str = ""
    # noise channel
    channel_kind: str = "empirical"  # uniform | permutation | empirical
    channel_rho: float = 0.0
    channel_permutation: str = ""
    channel_preset: str = "gazetteer-like"
    channel_matrix_path: str = ""
    # model
    embeddings_path: str = ""
    embedding_dim: int = 16
    hidden_size: int = 300
    dense_size: int = 100
    cleaner_proj_size: int = 30
    pooling: str = "final"  # final | center
    trainable_embeddings: bool = False
    dtype: str = "float64"  # float64 | float32
    # training
    epochs: int = 40
    batch_size: int = 32
    eval_batch_size: int = 512
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    alpha: float = 1.0  # confusion smoothing
    noisy_factor: float = 1.0  # |subsample| = round(factor * |C|)
    pretrain_epochs: int = 5  # noise-adaptation-model initialization

    def __post_init__(self):
        for key, allowed in CHOICES.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ValueError(
                    f"{key} = {value!r} is not one of {', '.join(allowed)}")
        for key in RANGES:
            check_range(key, getattr(self, key))
        self._label_set = parse_labels(self.labels)
        # only the keys that build the run's channel are checked, so a value
        # that nothing reads never stops a config from loading
        if self.noisy_source == "channel":
            check_channel(self.channel_kind, self._label_set, self.channel_rho,
                          self.channel_permutation, self.channel_preset,
                          self.channel_matrix_path)

    @property
    def numpy_dtype(self):
        """The numpy float type that ``dtype`` names."""
        return np.float32 if self.dtype == "float32" else np.float64

    def label_set(self):
        """The LabelSet of ``labels``, parsed when the config was made."""
        return self._label_set

    def to_text(self):
        lines = ["# noisylab experiment configuration"]
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values, set_on = {}, {}
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in fields:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key in set_on:
                raise ValueError(f"line {lineno}: key {key!r} already set on line {set_on[key]}")
            set_on[key] = lineno
            ftype = fields[key].type
            if ftype is bool:
                if value not in ("true", "false"):
                    raise ValueError(f"line {lineno}: {key} = {value!r} is not true or false")
                values[key] = value == "true"
            elif ftype in (int, float):
                number, article = (int, "an") if ftype is int else (float, "a")
                try:
                    values[key] = number(value)
                except ValueError:
                    raise ValueError(f"line {lineno}: {key} = {value!r} is not {article} "
                                     f"{number.__name__}") from None
            else:
                values[key] = value
        return cls(**values)

    @classmethod
    def load(cls, path):
        """The config in file ``path``; a parse or range error names the file."""
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            return cls.from_text(text)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
