"""One BLAS thread per trial, and the two-worker paths: the pin is scoped to
the call, every concurrent path equals the serial one bit for bit, and a
run's numbers do not depend on the BLAS thread count."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import noisylab.autodiff as ad
from noisylab import kernels, optim, parallel, training
from noisylab.autodiff import NonFiniteError, Tensor, cross_entropy, gradient_check
from noisylab.config import ExperimentConfig
from noisylab.data import prepare
from noisylab.model import WindowClassifier
from noisylab.optim import Adam
from noisylab.toydata import generate_corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

needs_pin = pytest.mark.skipif(not parallel.can_pin(),
                               reason="numpy's OpenBLAS thread count cannot be set here")


def blas_threads():
    return parallel._blas_threads()[1]()


@pytest.fixture
def worker_threads(monkeypatch):
    """Names of the threads the worker-side kernels ran on."""
    seen = []
    for name in ("_lstm_forward", "_lstm_backward"):
        kernel = getattr(kernels, name)

        def spy(*args, kernel=kernel):
            seen.append(threading.current_thread().name)
            return kernel(*args)

        monkeypatch.setattr(kernels, name, spy)
    return seen


def run(fn, at_once, monkeypatch):
    """``fn()`` under the pin, with every split path concurrent (as on 2
    CPUs, whatever the block) or every one serial."""
    with monkeypatch.context() as m:
        m.setattr(parallel, "MIN_BLOCK", 0 if at_once else np.inf)
        m.setattr(parallel, "cpus", lambda: 2)
        with parallel.one_blas_thread():
            return fn()


def bilstm_inputs(seed, trainable, b=5, t=7, e=4, h=3, vocab=9):
    rng = np.random.default_rng(seed)
    table = Tensor(rng.standard_normal((vocab, e)), requires_grad=trainable)
    directions = [tuple(Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)
                        for shape in ((e, 4 * h), (h, 4 * h), (4 * h,)))
                  for _ in range(2)]
    ids = rng.integers(0, vocab, (b, t))
    coeffs = rng.standard_normal((b, 2 * h))
    return table, directions, ids, coeffs


def composed(table, scans, directions):
    """bilstm_last's value from the one-direction ops it stands for."""
    return ad.concat([
        ad.take_time(ad.lstm_sequence(ad.embedding_lookup(table, ids), *w), ids.shape[1] - 1)
        for ids, w in zip(scans, directions)], axis=1)


def value_and_grads(op, table, directions, scans, coeffs):
    params = [table, *directions[0], *directions[1]]
    for p in params:
        p.zero_grad()
    out = op(table, scans, directions)
    ad.reduce_sum(ad.mul(out, coeffs)).backward()
    return out.values.copy(), [p.grad.copy() for p in params]


def assert_identical(a, b):
    (va, ga), (vb, gb) = a, b
    np.testing.assert_array_equal(va, vb)
    assert len(ga) == len(gb)
    for x, y in zip(ga, gb):
        np.testing.assert_array_equal(x, y)


class TestPin:
    @needs_pin
    def test_count_is_one_inside_and_restored_after(self):
        set_, get = parallel._blas_threads()
        before = get()
        try:
            set_(2)
            outer = get()
            with parallel.one_blas_thread():
                assert get() == 1
                with parallel.one_blas_thread():
                    assert get() == 1
                assert get() == 1
            assert get() == outer
        finally:
            set_(before)

    def test_without_the_symbols_blas_is_left_as_found_and_work_stays_serial(
            self, monkeypatch):
        monkeypatch.setattr(parallel, "_blas_threads", lambda: None)
        monkeypatch.setattr(parallel, "cpus", lambda: 2)
        assert not parallel.can_pin()
        with parallel.one_blas_thread():
            assert not parallel.concurrent(10 ** 6, 10 ** 6)

    @needs_pin
    def test_concurrent_only_under_the_pin_on_2_cpus_for_large_blocks(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpus", lambda: 2)
        big = parallel.MIN_BLOCK
        assert not parallel.concurrent(big, 1)
        with parallel.one_blas_thread():
            assert parallel.concurrent(big, 1)
            assert not parallel.concurrent(big - 1, 1)
            monkeypatch.setattr(parallel, "cpus", lambda: 1)
            assert not parallel.concurrent(big, 1)


class TestBoth:
    def test_runs_the_second_on_the_worker(self):
        names = parallel.both(lambda: threading.current_thread().name,
                              lambda: threading.current_thread().name)
        assert names[0] == threading.current_thread().name != names[1]
        serial = parallel.both(lambda: threading.current_thread().name,
                               lambda: threading.current_thread().name, at_once=False)
        assert serial == (names[0], names[0])

    def test_worker_error_is_raised_on_the_caller(self):
        def fail():
            raise NonFiniteError("on the worker")

        with pytest.raises(NonFiniteError, match="on the worker"):
            parallel.both(lambda: 1, fail)

    def test_caller_error_waits_for_the_worker(self):
        done = []
        started = threading.Event()

        def slow():
            started.wait(5)
            done.append(True)

        def fail():
            started.set()
            raise ValueError("on the caller")

        with pytest.raises(ValueError, match="on the caller"):
            parallel.both(fail, slow)
        assert done == [True]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_starts_its_own_worker(self):
        import multiprocessing

        parallel.both(lambda: None, lambda: None)  # the parent's worker is running
        child = multiprocessing.get_context("fork").Process(
            target=parallel.both, args=(lambda: None, lambda: None))
        child.start()
        child.join(10)
        if child.exitcode is None:
            child.kill()
        assert child.exitcode == 0


class TestBilstmLast:
    @pytest.mark.parametrize("trainable", [False, True])
    @pytest.mark.parametrize("steps", [7, 4])  # final and center pooling
    def test_equals_the_ops_it_fuses(self, trainable, steps):
        table, directions, ids, coeffs = bilstm_inputs(1, trainable)
        scans = [ids[:, :steps], ids[:, ::-1][:, :steps]]
        assert_identical(value_and_grads(ad.bilstm_last, table, directions, scans, coeffs),
                         value_and_grads(composed, table, directions, scans, coeffs))

    @needs_pin
    @pytest.mark.parametrize("trainable", [False, True])
    @pytest.mark.parametrize("steps", [7, 4])
    def test_concurrent_equals_serial(self, monkeypatch, worker_threads, trainable, steps):
        table, directions, ids, coeffs = bilstm_inputs(2, trainable)
        scans = [ids[:, :steps], ids[:, ::-1][:, :steps]]

        def once():
            return value_and_grads(ad.bilstm_last, table, directions, scans, coeffs)

        serial = run(once, False, monkeypatch)
        assert worker_threads == []
        assert_identical(run(once, True, monkeypatch), serial)
        assert len(worker_threads) == 2 and threading.current_thread().name not in worker_threads

    def test_matches_finite_differences(self):
        table, directions, ids, coeffs = bilstm_inputs(3, True, b=2, t=4, e=3, h=2, vocab=5)
        scans = [ids, ids[:, ::-1]]

        def loss():
            return ad.reduce_sum(ad.mul(ad.bilstm_last(table, scans, directions), coeffs))

        params = [table, *directions[0], *directions[1]]
        assert gradient_check(loss, params, h=1e-5) < 1e-4

    def test_scans_of_different_shapes_rejected(self):
        table, directions, ids, _ = bilstm_inputs(4, False)
        with pytest.raises(ad.ShapeMismatch, match="bilstm_last"):
            ad.bilstm_last(table, [ids, ids[:, :4]], directions)


@pytest.fixture(scope="module")
def tiny():
    config = ExperimentConfig(clean_budget=150, embedding_dim=8, hidden_size=10,
                              dense_size=8, epochs=2, eval_batch_size=64, n_seeds=1)
    corpora = [generate_corpus(s, n) for s, n in ((11, 1600), (12, 500), (13, 500))]
    return config, prepare(config, *corpora)


class TestModelPaths:
    @needs_pin
    @pytest.mark.parametrize("pooling", ["final", "center"])
    def test_training_step_concurrent_equals_serial(self, tiny, monkeypatch, worker_threads,
                                                    pooling):
        config, data = tiny
        ids, y = data.clean.take(slice(0, 32), "y")

        def grads():
            model = WindowClassifier(data.embedding_table, k=data.k, hidden_size=10,
                                     dense_size=8, seed=1, trainable_embeddings=True,
                                     pooling=pooling)
            cross_entropy(model.probs(ids), y).backward()
            return [p.grad.copy() for p in model.parameters()]

        serial = run(grads, False, monkeypatch)
        for a, b in zip(run(grads, True, monkeypatch), serial):
            np.testing.assert_array_equal(a, b)
        assert worker_threads

    @needs_pin
    def test_prediction_in_half_chunks_equals_one_chunk(self, tiny, monkeypatch):
        config, data = tiny
        model = WindowClassifier(data.embedding_table, k=data.k, hidden_size=10,
                                 dense_size=8, seed=2)
        split = data.dev
        calls = []
        predict = WindowClassifier.predict

        def spy(self, rows, plans=None):
            calls.append(rows.shape[0])
            return predict(self, rows, plans)

        scans = []
        scan = kernels.lstm_last_hidden

        def scan_spy(*args):
            scans.append(threading.current_thread().name)
            return scan(*args)

        monkeypatch.setattr(WindowClassifier, "predict", spy)
        monkeypatch.setattr(kernels, "lstm_last_hidden", scan_spy)
        rows = np.unique(split.token_ids, axis=0).shape[0]
        one_chunk = run(lambda: training.predict_split(model, split, rows), False, monkeypatch)
        assert calls == [rows] and len(set(scans)) == 1
        calls.clear()
        halves = run(lambda: training.predict_split(model, split, rows), True, monkeypatch)
        # at most `rows` rows in flight across the two workers
        assert max(calls) == rows // 2 and sum(calls) == rows
        assert len(set(scans)) == 2
        np.testing.assert_array_equal(halves, one_chunk)


class TestAdamHalves:
    @needs_pin
    def test_concurrent_halves_equal_one_pass(self, monkeypatch):
        rng = np.random.default_rng(5)
        shapes = [(optim.BLOCK + 7,), (3, optim.BLOCK // 2), (optim.BLOCK - 5, 1)]
        start = [rng.standard_normal(s) for s in shapes]
        grads = [[rng.standard_normal(s) for s in shapes] for _ in range(3)]

        def steps():
            params = [Tensor(v.copy(), requires_grad=True) for v in start]
            opt = Adam(params, lr=0.01)
            assert opt.pack.values.size > 3 * optim.BLOCK
            for step in grads:
                for p, g in zip(params, step):
                    p.grad[...] = g
                opt.step()
            return [opt.pack.values, opt._m, opt._v, opt.pack.grads]

        ran = []
        update = Adam._update

        def spy(self, start, stop, t, scratch):
            ran.append((start, stop, threading.current_thread().name))
            return update(self, start, stop, t, scratch)

        monkeypatch.setattr(Adam, "_update", spy)
        serial = run(steps, False, monkeypatch)
        ran.clear()
        for a, b in zip(run(steps, True, monkeypatch), serial):
            np.testing.assert_array_equal(a, b)
        half = 2 * optim.BLOCK  # four blocks, split two and two
        assert {r[:2] for r in ran} == {(0, half), (half, serial[0].size)}
        assert len({r[2] for r in ran}) == 2


class TestPinAroundTrialsAndPrediction:
    @pytest.fixture
    def caller_count(self):
        set_, get = parallel._blas_threads()
        before = get()
        set_(2)
        yield get()
        set_(before)

    @needs_pin
    def test_restored_after_train_variant_and_predict_split(self, tiny, caller_count):
        config, data = tiny
        inside = []
        result = training.train_variant("base-model", data, config, trial_seed=0,
                                        metrics_sink=lambda r: inside.append(blas_threads()))
        assert inside == [1] * config.epochs
        assert blas_threads() == caller_count
        model = WindowClassifier(data.embedding_table, k=data.k, hidden_size=10,
                                 dense_size=8)
        model.load_state(result.model_state)
        training.predict_split(model, data.dev, 64)
        assert blas_threads() == caller_count

    @needs_pin
    def test_restored_when_a_non_finite_error_escapes(self, tiny, caller_count,
                                                      monkeypatch):
        config, data = tiny

        def diverge(self, rows, plans=None):
            assert blas_threads() == 1
            raise NonFiniteError("diverged")

        def nan_step(self):
            assert blas_threads() == 1
            raise NonFiniteError("Adam: non-finite gradient")

        monkeypatch.setattr(Adam, "step", nan_step)
        with pytest.raises(NonFiniteError, match="epoch 0"):
            training.train_variant("base-model", data, config, trial_seed=0)
        assert blas_threads() == caller_count
        monkeypatch.setattr(WindowClassifier, "predict", diverge)
        model = WindowClassifier(data.embedding_table, k=data.k, hidden_size=10, dense_size=8)
        with pytest.raises(NonFiniteError, match="diverged"):
            training.predict_split(model, data.dev, 64)
        assert blas_threads() == caller_count


def train_in_child(config_path, out, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "noisylab.cli", "train", "--config",
                    str(config_path), "--out", str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    with open(out / "metrics.jsonl", "rb") as fh:
        metrics = fh.read()
    with np.load(out / "checkpoint.npz") as npz:
        arrays = {name: npz[name] for name in npz.files}
    return metrics, arrays


@pytest.mark.skipif(not parallel.can_pin() or parallel.cpus() < 2,
                    reason="needs a pinnable OpenBLAS and 2 CPUs")
def test_paper_size_training_is_bit_identical_under_1_and_2_blas_threads(tmp_path):
    from noisylab.cli import main

    assert main(["toydata", "--out", str(tmp_path / "toy"), "--seed", "4",
                 "--train-tokens", "2000", "--dev-tokens", "300", "--test-tokens", "300"]) == 0
    config = ExperimentConfig(
        variant="noise-model", seed=1, train_path=str(tmp_path / "toy" / "train.conll"),
        dev_path=str(tmp_path / "toy" / "dev.conll"),
        test_path=str(tmp_path / "toy" / "test.conll"), clean_budget=300,
        embedding_dim=300, hidden_size=300, dense_size=100, epochs=2)
    path = tmp_path / "experiment.cfg"
    path.write_text(config.to_text(), encoding="utf-8")
    one = train_in_child(path, tmp_path / "one", 1)
    two = train_in_child(path, tmp_path / "two", 2)
    assert one[0] == two[0]
    assert json.loads(one[0].splitlines()[0])["epoch"] == 0
    assert one[1].keys() == two[1].keys()
    for name in one[1]:
        assert one[1][name].tobytes() == two[1][name].tobytes(), name
