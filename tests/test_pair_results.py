"""benchmarks/pair_results.py on two tiny fake checkouts' result files."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def pair_results():
    spec = importlib.util.spec_from_file_location(
        "pair_results", os.path.join(ROOT, "benchmarks", "pair_results.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = {"end_to_end": [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "test_f1", "unit": "f1", "better": "higher", "bound": 0.25},
]}


def write_result(checkout, workload, seed, run_s, commit, failed=0, threads=None):
    work = checkout / ".bench_work"
    work.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": 30, "trace": 0,
        "environment": {"machine": "x86_64", "nproc": 2, "OPENBLAS_NUM_THREADS": threads,
                        "dtype": "float64", "git_commit": commit},
        "trials_attempted": 2, "trials_failed": failed,
        "metrics": {"run_s": run_s, "test_f1": 0.5},
    }
    (work / f"result-{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


@pytest.fixture
def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, (before, after) in enumerate([(4.0, 3.0), (5.0, 3.5), (4.5, 4.6), (6.0, 3.2)]):
        write_result(parent, "toy", seed, before, "aaa")
        write_result(change, "toy", seed, after, "bbb", failed=int(seed == 1))
    write_result(parent, "toy", 9, 1.0, "aaa")  # no change run for seed 9
    (parent / ".bench_work" / "result-toy-seed0-trace1.json").write_text("{}")  # traced: ignored
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(BENCHMARK))
    return parent, change, benchmark


def test_pairs_by_workload_and_seed(pair_results, checkouts, tmp_path):
    parent, change, benchmark = checkouts
    out = tmp_path / "BENCH_7.json"
    code = pair_results.main(["--parent", str(parent), "--change", str(change), "--number", "7",
                              "--out", str(out), "--benchmark", str(benchmark)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["number"] == 7
    assert report["git_commits"] == {"parent": ["aaa"], "change": ["bbb"]}
    assert report["environment"]["OPENBLAS_NUM_THREADS"] is None
    assert report["environment"]["dtype"] == "float64"
    assert report["environment"]["machine"] == "x86_64"
    toy = report["workloads"]["toy"]
    assert toy["seeds"] == [0, 1, 2, 3]
    assert toy["unpaired_seeds"] == [9]
    assert toy["trials"] == {"parent": {"attempted": 8, "failed": 0},
                             "change": {"attempted": 8, "failed": 1}}
    run = toy["metrics"]["run_s"]
    assert [(p["seed"], p["parent"], p["change"]) for p in run["pairs"]] == [
        (0, 4.0, 3.0), (1, 5.0, 3.5), (2, 4.5, 4.6), (3, 6.0, 3.2)]
    assert run["change_wins"] == 3
    assert run["parent"] == {"median": 4.75, "q1": 4.375, "q3": 5.25}
    assert run["change"]["median"] == pytest.approx(3.35)
    assert run["median_gain"] == pytest.approx(1.4)
    assert run["parent_iqr"] == pytest.approx(0.875)
    assert run["gain_exceeds_parent_iqr"] is True
    assert run["within_bound"] is True
    f1 = toy["metrics"]["test_f1"]
    assert (f1["change_wins"], f1["ties"], f1["median_gain"]) == (0, 4, 0.0)


def test_worse_metric_is_outside_its_bound(pair_results, checkouts, tmp_path):
    parent, change, benchmark = checkouts
    for seed in range(4):
        write_result(change, "toy", seed, 9.0, "bbb")
    report = pair_results.pair(str(parent), str(change), 7, BENCHMARK)
    run = report["workloads"]["toy"]["metrics"]["run_s"]
    assert run["change_wins"] == 0
    assert run["within_bound"] is False
    assert run["relative_change"] == pytest.approx(9.0 / 4.75 - 1)


def test_differing_environments_are_listed(pair_results, checkouts):
    parent, change, _ = checkouts
    write_result(change, "toy", 0, 3.0, "bbb", threads="1")
    report = pair_results.pair(str(parent), str(change), 7, BENCHMARK)
    assert report["environment"]["OPENBLAS_NUM_THREADS"] == [None, "1"]


def test_no_pairs_is_an_error(pair_results, tmp_path):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(BENCHMARK))
    code = pair_results.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                              "--number", "1", "--out", str(tmp_path / "out.json"),
                              "--benchmark", str(benchmark)])
    assert code == 1
    assert not (tmp_path / "out.json").exists()
