"""benchmarks/fresh_process.py's summary on fake child records."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def fresh_process():
    spec = importlib.util.spec_from_file_location(
        "fresh_process", os.path.join(ROOT, "benchmarks", "fresh_process.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(wall, minflt, exit_code=0, f1=0.5):
    """A child record as ``run_child`` returns it."""
    out = {"seed": 0, "exit_code": exit_code, "wall_s": wall, "user_s": wall - 1.0,
           "sys_s": minflt / 1e5, "minflt": minflt, "maxrss_mb": 50.0}
    if exit_code == 0:
        out.update({"unit_s": wall - 2.0, "unit_user_s": wall - 2.5, "unit_sys_s": 0.1,
                    "unit_minflt": minflt - 1000, "test_f1": [f1, 0.25]})
    return out


def test_one_pair_of_child_records(fresh_process):
    summary = fresh_process.summarize([(4, record(6.0, 150_000), record(5.0, 4_000))])
    assert summary["pairs_ok"] == 1
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["test_f1_identical"] is True
    assert set(summary["metrics"]) == {name for name, _ in fresh_process.METRICS}
    wall = summary["metrics"]["wall_s"]
    assert wall["pairs"] == [{"seed": 4, "parent": 6.0, "change": 5.0}]
    assert wall["parent"] == {"median": 6.0, "q1": 6.0, "q3": 6.0}
    assert (wall["change_wins"], wall["median_gain"], wall["within_bound"]) == (1, 1.0, None)
    faults = summary["metrics"]["unit_minflt"]
    assert (faults["parent"]["median"], faults["change"]["median"]) == (149_000, 3_000)
    rss = summary["metrics"]["maxrss_mb"]
    assert (rss["change_wins"], rss["ties"]) == (0, 1)


def test_failed_child_and_differing_f1(fresh_process):
    pairs = [(0, record(6.0, 9), record(5.0, 9, exit_code=1)),
             (1, record(6.0, 9), record(5.0, 9, f1=0.75))]
    summary = fresh_process.summarize(pairs)
    assert summary["pairs_ok"] == 1
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["test_f1_identical"] is False
    assert [p["seed"] for p in summary["metrics"]["wall_s"]["pairs"]] == [1]
    failed = fresh_process.summarize(pairs[:1])
    assert (failed["pairs_ok"], failed["metrics"]) == (0, {})
