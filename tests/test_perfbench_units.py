"""One traced unit of each benchmark workload (``perfbench/``) runs against
this checkout, at 1 epoch with no pretraining, and its outputs pass the
benchmark's own checks (``check_trials`` in ``perfbench/run.py``).  So a
change that breaks what the benchmark calls, or what its tracer wraps,
fails here and not only when the benchmark runs.

The tracer keeps one span stack.  On a machine with two or more CPUs the
paper-scale unit scans the two LSTM directions on two threads, so a traced
kernel called from the worker thread closes a span out of order and the
unit fails.  On a 1-CPU machine that worker path does not run, and this
test cannot catch such a change there.
"""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's modules, loaded by path under the names they import each
    other by."""
    modules = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in ("checkout", "opcount", "spans", "workloads", "run"):
            spec = importlib.util.spec_from_file_location(
                name, os.path.join(ROOT, "perfbench", f"{name}.py"))
            modules[name] = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
        yield modules


@pytest.mark.parametrize("name", ["toy-trials", "noisy-full-cli", "paper-scale"])
def test_one_traced_unit_passes_the_benchmark_checks(perfbench, name, tmp_path,
                                                     monkeypatch, capsys):
    run, spans = perfbench["run"], perfbench["spans"]
    workload = perfbench["workloads"].WORKLOADS[name]
    monkeypatch.setattr(workload, "overrides",
                        {**workload.overrides, "epochs": 1, "pretrain_epochs": 0})
    corpus = run.Corpus(workload, 0, str(tmp_path / "corpus"))
    corpus.reference = None  # recorded at the workload's full schedule
    client = run.Client(workload, [corpus])
    tracer = spans.Tracer()
    elapsed = client.unit(0, tracer)
    err = capsys.readouterr().err
    assert elapsed is not None, err
    assert (client.attempted, client.failed) == (workload.trials(corpus.config), 0), err
    assert "training.train_variant" in {s.name for s in tracer.spans}
