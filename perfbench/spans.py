"""Outside-in span tracer for the benchmark's traced runs.

Spans are recorded by wrapping, from outside, the attribute each caller
in ``noisylab`` actually resolves at call time (a module global such as
``noisylab.training.evaluate_split``, or a class attribute such as
``Tensor.backward``).  No file of the package changes.  A wrap whose
target does not exist is skipped, so the tracer keeps working when a
later version of the package removes a function; its metrics then read 0.

Spans are kept in memory as (name, start, end, parent index, attrs) and
written out as JSON lines when the run ends.
"""

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import opcount

# Spans that partition a unit of work into phases; with the noise-init gap
# (trial start to first epoch) they give ``trace.coverage``, the share of
# unit time they cover.  They never nest inside each other.
PHASES = (
    "training.train_epoch",
    "training.evaluate_dev",
    "training.evaluate_test",
    "conll.parse_conll",
    "gazetteer.load",
    "data.prepare",
    "checkpoint.save_checkpoint",
    "fileio.write",
)

# A kernel call under any of these spans is prediction, not training.
PREDICT_ANCESTORS = ("model.predict", "model.infer_probs",
                     "training.evaluate_dev", "training.evaluate_test")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans around wrapped callables; single-threaded."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def _wrapper(self, name, fn, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            index = self.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if attrs_of is not None:
                try:
                    self.spans[index].attrs = attrs_of(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # a changed signature loses the span's counts, not the run
            return result
        return traced

    def wrap(self, owner, attr, name, attrs_of=None):
        """Replace ``owner.attr`` with a traced version until ``unwrap_all``.

        ``name`` is a span name or a function of the call's positional
        arguments; ``attrs_of(args, kwargs, result)`` returns the span's
        attributes, computed after the span has ended.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrapper(name, raw.__func__, attrs_of))
        else:
            replacement = self._wrapper(name, raw, attrs_of)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def unwrap_all(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                attrs = {k: v for k, v in s.attrs.items() if not isinstance(v, np.ndarray)}
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "attrs": attrs}) + "\n")


def _rows_attrs(args, kwargs, result):
    ids = np.atleast_2d(args[1])
    return {"rows": int(ids.shape[0]), "ids": ids}


def _forward_attrs(args, kwargs, result):
    x, _, w_rec, _ = args[:4]
    b, t, e = x.shape
    flop, nbytes = opcount.lstm_forward_cost(b, t, e, w_rec.shape[0], x.dtype.itemsize)
    return {"flop": flop, "bytes": nbytes}


def _backward_attrs(args, kwargs, result):
    x, w_rec = args[0], args[2]
    need_dx = bool(args[8]) if len(args) > 8 else bool(kwargs.get("need_dx", True))
    b, t, e = x.shape
    flop, nbytes = opcount.lstm_backward_cost(b, t, e, w_rec.shape[0],
                                              x.dtype.itemsize, need_dx)
    return {"flop": flop, "bytes": nbytes}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(os.fspath(args[0]))}


def _split_phase(args):
    split = args[1]
    return {"dev": "training.evaluate_dev", "test": "training.evaluate_test"}.get(
        getattr(split, "name", ""), "training.evaluate_split")


# (module, attribute path, span name, attributes) of every wrapped boundary.
# Callers resolve cross_entropy, noisy_forward and entity_prf through
# training's own globals.  autodiff.cross_entropy itself stays unwrapped
# because it counts clamp events on its own function attribute.
TARGETS = (
    ("kernels", "lstm_forward", "kernels.lstm_forward", _forward_attrs),
    ("kernels", "lstm_backward", "kernels.lstm_backward", _backward_attrs),
    ("autodiff", "Tensor.backward", "autodiff.backward", None),
    ("training", "cross_entropy", "autodiff.cross_entropy", None),
    ("training", "noisy_forward", "model.noisy_forward", None),
    ("training", "entity_prf", "evaluation.entity_prf", None),
    ("model", "WindowClassifier.probs", "model.probs", None),
    ("model", "WindowClassifier.infer_probs", "model.infer_probs", _rows_attrs),
    ("model", "WindowClassifier.predict", "model.predict", None),
    ("optim", "Adam.step", "optim.adam_step", None),
    ("training", "run_trials", "training.run_trials", None),
    ("training", "train_variant", "training.train_variant", None),
    ("training", "train_clean_epoch", "training.train_epoch", None),
    ("training", "train_noisy_epoch", "training.train_epoch", None),
    ("training", "train_pooled_epoch", "training.train_epoch", None),
    ("training", "evaluate_split", _split_phase, None),
    ("data", "prepare", "data.prepare", None),
    ("cli", "prepare", "data.prepare", None),
    ("data", "annotate", "gazetteer.annotate", None),
    ("conll", "parse_conll", "conll.parse_conll", None),
    ("cli", "parse_conll", "conll.parse_conll", None),
    ("gazetteer", "Gazetteer.load", "gazetteer.load", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", _file_bytes),
    ("cli", "atomic_write_text", "fileio.write", None),
    ("cli", "atomic_write_json", "fileio.write", None),
)


def install(tracer):
    """Wrap every boundary in TARGETS that exists in this version of noisylab."""
    for module_name, path, name, attrs_of in TARGETS:
        try:
            owner = importlib.import_module(f"noisylab.{module_name}")
        except ModuleNotFoundError:
            continue
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        if owner is not None:
            tracer.wrap(owner, attr, name, attrs_of)


def _ancestors(spans, i):
    parent = spans[i].parent
    while parent >= 0:
        yield parent
        parent = spans[parent].parent


def merge(tracers):
    """One span list from several tracers, parent indices shifted to match."""
    merged = []
    for tracer in tracers:
        offset = len(merged)
        merged.extend(Span(s.name, s.start, s.end, s.parent + offset if s.parent >= 0 else -1,
                           s.attrs) for s in tracer.spans)
    return merged


def layer_metrics(spans, units):
    """Per-layer metrics per unit of work from a finished span list.

    ``units`` is the number of traced repetitions the spans cover; busy
    times and counts are divided by it.  Also returns the time the phase
    spans cover inside "unit" spans, and the time of those unit spans.
    """
    # parents precede their children, so one pass marks spans inside a unit
    in_unit = []
    for s in spans:
        in_unit.append(s.name == "unit" or (s.parent >= 0 and in_unit[s.parent]))
    busy = {}
    calls = {}
    child_busy = {}
    for i, s in enumerate(spans):
        d = s.end - s.start
        busy[s.name] = busy.get(s.name, 0.0) + d
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.parent >= 0:
            key = spans[s.parent].name
            child_busy[key] = child_busy.get(key, 0.0) + d

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in spans if s.name == name)

    # noise_init: from the start of a trial to the start of its first epoch
    first_epoch = {}
    for i, s in enumerate(spans):
        if s.name == "training.train_epoch" and s.parent >= 0 and s.parent not in first_epoch:
            first_epoch[s.parent] = s.start
    noise_init = sum(start - spans[p].start for p, start in first_epoch.items()
                     if spans[p].name == "training.train_variant")
    covered = noise_init + sum(s.end - s.start for i, s in enumerate(spans)
                               if in_unit[i] and s.name in PHASES)

    predict_busy = 0.0
    for i, s in enumerate(spans):
        if s.name == "kernels.lstm_forward" and any(
                spans[a].name in PREDICT_ANCESTORS for a in _ancestors(spans, i)):
            predict_busy += s.end - s.start

    # unique windows among the rows predicted under one enclosing phase
    groups = {}
    for i, s in enumerate(spans):
        if s.name == "model.infer_probs" and "ids" in s.attrs:
            owner = next((a for a in _ancestors(spans, i)
                          if spans[a].name.startswith("training.")), -1)
            groups.setdefault(owner, []).append(s.attrs["ids"])
    rows = unique = 0
    for arrays in groups.values():
        stacked = np.ascontiguousarray(np.concatenate(arrays))
        rows += stacked.shape[0]
        unique += np.unique(stacked, axis=0).shape[0]

    unit_time = busy.get("unit", 0.0)
    n = float(units)
    m = {
        "kernels.lstm_forward.calls": calls.get("kernels.lstm_forward", 0) / n,
        "kernels.lstm_forward.busy_s": busy.get("kernels.lstm_forward", 0.0) / n,
        "kernels.lstm_forward.predict_busy_s": predict_busy / n,
        "kernels.lstm_forward.train_busy_s":
            (busy.get("kernels.lstm_forward", 0.0) - predict_busy) / n,
        "kernels.lstm_forward.gflop": total("kernels.lstm_forward", "flop") / 1e9 / n,
        "kernels.lstm_forward.mb_computed": total("kernels.lstm_forward", "bytes") / 1e6 / n,
        "kernels.lstm_backward.calls": calls.get("kernels.lstm_backward", 0) / n,
        "kernels.lstm_backward.busy_s": busy.get("kernels.lstm_backward", 0.0) / n,
        "kernels.lstm_backward.gflop": total("kernels.lstm_backward", "flop") / 1e9 / n,
        "kernels.lstm_backward.mb_computed": total("kernels.lstm_backward", "bytes") / 1e6 / n,
        "autodiff.backward.calls": calls.get("autodiff.backward", 0) / n,
        "autodiff.backward.busy_s": busy.get("autodiff.backward", 0.0) / n,
        "autodiff.backward.self_s":
            (busy.get("autodiff.backward", 0.0) - child_busy.get("autodiff.backward", 0.0)) / n,
        "autodiff.cross_entropy.busy_s": busy.get("autodiff.cross_entropy", 0.0) / n,
        "model.probs.calls": calls.get("model.probs", 0) / n,
        "model.probs.busy_s": busy.get("model.probs", 0.0) / n,
        "model.probs.self_s":
            (busy.get("model.probs", 0.0) - child_busy.get("model.probs", 0.0)) / n,
        "model.infer_probs.calls": calls.get("model.infer_probs", 0) / n,
        "model.infer_probs.rows": rows / n,
        "model.infer_probs.busy_s": busy.get("model.infer_probs", 0.0) / n,
        "model.infer_probs.self_s":
            (busy.get("model.infer_probs", 0.0) - child_busy.get("model.infer_probs", 0.0)) / n,
        "model.infer_probs.unique_row_ratio": unique / rows if rows else 0.0,
        "model.noisy_forward.busy_s": busy.get("model.noisy_forward", 0.0) / n,
        "optim.adam_step.calls": calls.get("optim.adam_step", 0) / n,
        "optim.adam_step.busy_s": busy.get("optim.adam_step", 0.0) / n,
        "training.train_epoch.busy_s": busy.get("training.train_epoch", 0.0) / n,
        "training.evaluate_dev.busy_s": busy.get("training.evaluate_dev", 0.0) / n,
        "training.evaluate_test.busy_s": busy.get("training.evaluate_test", 0.0) / n,
        "training.noise_init.busy_s": noise_init / n,
        "evaluation.entity_prf.calls": calls.get("evaluation.entity_prf", 0) / n,
        "evaluation.entity_prf.busy_s": busy.get("evaluation.entity_prf", 0.0) / n,
        "data.prepare.busy_s": busy.get("data.prepare", 0.0) / n,
        "gazetteer.annotate.busy_s": busy.get("gazetteer.annotate", 0.0) / n,
        "conll.parse_conll.busy_s": busy.get("conll.parse_conll", 0.0) / n,
        "checkpoint.save_checkpoint.busy_s": busy.get("checkpoint.save_checkpoint", 0.0) / n,
        "checkpoint.save_checkpoint.bytes": total("checkpoint.save_checkpoint", "bytes") / n,
    }
    return m, covered, unit_time
