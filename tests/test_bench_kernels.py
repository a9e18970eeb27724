"""benchmarks/bench_kernels.py runs end to end on small shapes, so a change
of a kernel's signature shows here and not first in a benchmark run."""

import importlib.util
import os

import pytest

from noisylab import parallel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bench_kernels(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", os.path.join(ROOT, "benchmarks", "bench_kernels.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SIZES", ((8, 7, 4, 3), (20, 7, 6, 5)))
    monkeypatch.setattr(module, "ADAM_SIZES", ((4, 3, 2),))
    monkeypatch.setattr(module, "REPEATS", 2)
    monkeypatch.setattr(module, "ADAM_STEPS", 2)
    return module


def test_runs_every_column_on_small_shapes(bench_kernels, capsys):
    bench_kernels.main()
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split(")")[0].strip() + ")": line for line in lines if line.lstrip().startswith("(")}
    assert set(rows) == {"(8, 7, 4, 3)", "(20, 7, 6, 5)", "(4, 3, 2)"}
    # one "median [q1, q3]" figure per column, and the Adam row's step time
    assert rows["(8, 7, 4, 3)"].count("[") == len(bench_kernels.COLUMNS)
    assert rows["(20, 7, 6, 5)"].count("[") == len(bench_kernels.COLUMNS)
    assert rows["(4, 3, 2)"].count("[") == 1


def test_times_under_one_blas_thread_and_says_whether_the_pin_took(bench_kernels,
                                                                   monkeypatch, capsys):
    counts = []
    time_ms = bench_kernels.time_ms

    def spy(fn):
        counts.append(parallel._blas_threads()[1]() if parallel.can_pin() else None)
        return time_ms(fn)

    monkeypatch.setattr(bench_kernels, "time_ms", spy)
    bench_kernels.main()
    lines = capsys.readouterr().out.splitlines()
    assert f"BLAS pinned to one thread: {'yes' if parallel.can_pin() else 'no'}" in lines
    assert counts and set(counts) == ({1} if parallel.can_pin() else {None})
