"""Model checkpoints: parameter arrays, vocabulary, labels, and the
resolved configuration in one npz file."""

import zipfile

import numpy as np

from .config import ExperimentConfig
from .embeddings import Vocabulary
from .fileio import atomic_write
from .model import LabelSet, NoiseMatrix, WindowClassifier


def save_checkpoint(path, model_state, vocab, label_set, config, noise_b=None,
                    selected_epoch=None, dev_f1_history=None):
    """Write a classifier's ``state_dict()`` and, for a noise-layer
    variant, its noise weights ``noise_b``.  The config text is stored as
    its UTF-8 bytes."""
    arrays = {f"model_{k}": v for k, v in model_state.items()}
    arrays["vocab_words"] = np.array(vocab.words, dtype=str)
    arrays["classes"] = np.array(label_set.classes, dtype=str)
    arrays["config_text"] = np.frombuffer(config.to_text().encode("utf-8"), dtype=np.uint8)
    if noise_b is not None:
        arrays["noise_b"] = noise_b
    if selected_epoch is not None:
        arrays["selected_epoch"] = np.array(selected_epoch)
    if dev_f1_history is not None:
        arrays["dev_f1_history"] = np.asarray(dev_f1_history)
    atomic_write(path, lambda fh: np.savez(fh, **arrays), binary=True)


def _checked(name, array, expected, dtype=None):
    """``array``, once it is known to have shape ``expected``, a float
    dtype (``dtype`` where one is given) and only finite values."""
    if array.shape != expected:
        raise ValueError(f"{name} has shape {array.shape}, expected {expected}")
    if array.dtype.kind != "f":
        raise ValueError(f"{name} has dtype {array.dtype}, expected a float dtype")
    if dtype is not None and array.dtype != dtype:
        raise ValueError(f"{name} has dtype {array.dtype}, expected {np.dtype(dtype)}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} is not finite")
    return array


def load_checkpoint(path):
    """Returns (model, vocab, label_set, config, noise or None, extras).

    A damaged archive, or one that lacks an array the model needs or holds
    one of another shape than the config, the classes, the vocabulary and
    the embedding width imply, or a parameter array that is not finite or
    not of the config's float dtype, is a ValueError naming the file (and
    the array).  The config text may also be a unicode string array, as
    older checkpoints store it.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            text = data["config_text"]
            config = ExperimentConfig.from_text(
                text.tobytes().decode("utf-8") if text.dtype == np.uint8 else str(text))
            vocab = Vocabulary([str(w) for w in data["vocab_words"]])
            label_set = LabelSet([str(c) for c in data["classes"]])
            state = {name: data[f"model_{name}"] for name in WindowClassifier.STATE}
            noise = (NoiseMatrix(_checked("noise_b", data["noise_b"], (label_set.k,) * 2,
                                          config.numpy_dtype),
                                 dtype=config.numpy_dtype) if "noise_b" in data.files else None)
            extras = {}
            if "selected_epoch" in data.files:
                extras["selected_epoch"] = int(data["selected_epoch"])
            if "dev_f1_history" in data.files:
                extras["dev_f1_history"] = data["dev_f1_history"].tolist()
        embedding = state["embedding"]
        _checked("model_embedding", embedding, (vocab.size, *embedding.shape[-1:]))
        model = WindowClassifier(
            embedding, k=label_set.k, hidden_size=config.hidden_size,
            dense_size=config.dense_size, seed=config.seed,
            trainable_embeddings=config.trainable_embeddings,
            pooling=config.pooling, dtype=config.numpy_dtype,
        )
        for name, values in state.items():
            target = getattr(model, name).values
            _checked(f"model_{name}", values, target.shape, target.dtype)
    except KeyError as err:  # numpy's message names the missing array
        raise ValueError(f"{path}: {err.args[0]}") from None
    except (zipfile.BadZipFile, EOFError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from None
    model.load_state(state)
    return model, vocab, label_set, config, noise, extras
