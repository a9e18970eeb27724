"""benchmarks/blas_threads.py's summary on fake child records, and the
products it hashes."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def blas_threads():
    spec = importlib.util.spec_from_file_location(
        "blas_threads", os.path.join(ROOT, "benchmarks", "blas_threads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_names_the_products_that_vary(blas_threads):
    def record(backward):
        """A child's hashes, whose unpinned lstm_backward starts with ``backward``."""
        unpinned = {"lstm_forward": ["a", "b"], "lstm_backward": [backward, "c"]}
        pinned = {"lstm_forward": ["a", "b"], "lstm_backward": ["x", "c"]}
        return {"unpinned": {"paper": unpinned}, "pinned": {"paper": pinned}}

    summary = blas_threads.summarize({2: record("y"), 1: record("x")})
    assert summary["threads"] == [1, 2]
    assert summary["varies"] == {"unpinned": ["paper.lstm_backward"], "pinned": []}
    assert summary["hashes"]["paper.lstm_backward"]["unpinned"] == {1: ["x", "c"],
                                                                    2: ["y", "c"]}


def test_products_cover_every_kernel(blas_threads):
    outputs = blas_threads.products(4, 3, 2, 3, 5, 6)
    assert sorted(outputs) == ["dense_backward", "dense_forward", "lstm_backward",
                               "lstm_forward", "lstm_last_hidden"]
    assert [o.shape for o in outputs["lstm_backward"]] == [(4, 3, 2), (2, 12), (3, 12), (12,)]
