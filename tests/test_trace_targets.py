"""Every boundary that the benchmark's tracer wraps (``TARGETS`` in
``perfbench/spans.py``) still exists in noisylab.  The tracer skips a wrap
whose target is gone, and its metrics then read 0 with no error; so a
rename must fail here instead."""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Wrapped by the tracer, but gone from noisylab: prediction runs through
# WindowClassifier.infer (ROADMAP item 2 moves the wrap onto it).
KNOWN_MISSING = {("model", "WindowClassifier.infer_probs")}


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # spans imports opcount by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def targets():
    with pytest.MonkeyPatch.context() as monkeypatch:
        _load("opcount", monkeypatch)
        spans = _load("spans", monkeypatch)
    return [(module, path) for module, path, *_ in spans.TARGETS]


def resolves(module, path):
    """Whether the tracer finds something to wrap at ``path`` in
    ``noisylab.<module>``: a class attribute must be the class's own, as
    ``Tracer.wrap`` reads it from the class's ``__dict__``."""
    owner = importlib.import_module(f"noisylab.{module}")
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
    if inspect.isclass(owner):
        return attr in owner.__dict__
    return owner is not None and getattr(owner, attr, None) is not None


def test_every_tracer_target_resolves(targets):
    assert len(targets) > 20
    missing = {target for target in targets if not resolves(*target)}
    assert missing == KNOWN_MISSING


def test_a_renamed_target_is_caught():
    assert resolves("model", "WindowClassifier.predict")
    assert not resolves("model", "WindowClassifier.predict_probs")
    assert not resolves("kernels", "lstm_scan")
