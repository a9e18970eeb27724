"""One BLAS thread per trial, and the two-worker paths: the pin is scoped to
the call, every concurrent path equals the serial one bit for bit, and a
run's numbers do not depend on the BLAS thread count."""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import noisylab.autodiff as ad
from noisylab import kernels, optim, parallel, training
from noisylab.autodiff import NonFiniteError, Tensor, cross_entropy, gradient_check
from noisylab.config import ExperimentConfig
from noisylab.data import prepare
from noisylab.model import WindowClassifier
from noisylab.optim import Adam
from noisylab.toydata import generate_corpus, generate_splits

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

        def spy(*args, kernel=kernel, **kwargs):
            seen.append(threading.current_thread().name)
            return kernel(*args, **kwargs)

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


def bilstm_inputs(seed, trainable, b=5, t=7, e=4, h=3, vocab=9, tokens="repeated"):
    """Table, two directions' weights, ids (B, T) and output coefficients;
    the ids repeat tokens, are all distinct, or are all one token."""
    rng = np.random.default_rng(seed)
    if tokens == "distinct":
        vocab = max(vocab, b * t)
    table = Tensor(rng.standard_normal((vocab, e)), requires_grad=trainable)
    directions = [tuple(Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)
                        for shape in ((e, 4 * h), (h, 4 * h), (4 * h,)))
                  for _ in range(2)]
    ids = {"repeated": lambda: rng.integers(0, vocab, (b, t)),
           "distinct": lambda: rng.permutation(vocab)[:b * t].reshape(b, t),
           "one": lambda: np.full((b, t), vocab - 1)}[tokens]()
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

    @pytest.mark.parametrize("at_once", [False, True])
    def test_each_runs_every_item_once(self, at_once):
        done = []

        def work(item):
            time.sleep(0.005)  # long enough for both threads to take items
            done.append((item, threading.current_thread().name))

        parallel.each(work, range(8), at_once)
        assert sorted(item for item, _ in done) == list(range(8))
        assert len({name for _, name in done}) == (2 if at_once else 1)

    def test_each_takes_every_item_once_under_frequent_thread_switches(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        done = []
        try:
            parallel.each(done.append, range(20000))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(done) == list(range(20000))

    def test_each_raises_and_takes_no_item_after_an_error(self):
        taken = []

        def work(item):
            taken.append(item)
            if item == 1:
                raise NonFiniteError("item 1")
            time.sleep(0.05)

        with pytest.raises(NonFiniteError, match="item 1"):
            parallel.each(work, range(10))
        # item 0 on one thread, item 1 fails on the other; at most one more
        # is taken, by the thread that finishes item 0 after the failure
        assert len(taken) <= 3

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

    @pytest.mark.parametrize("tokens", ["distinct", "one"])
    @pytest.mark.parametrize("steps", [7, 4])
    def test_equals_the_ops_it_fuses_when_no_token_or_every_token_repeats(self, tokens, steps):
        table, directions, ids, coeffs = bilstm_inputs(7, True, tokens=tokens)
        assert np.unique(ids).size == (ids.size if tokens == "distinct" else 1)
        scans = [ids[:, :steps], ids[:, ::-1][:, :steps]]
        assert_identical(value_and_grads(ad.bilstm_last, table, directions, scans, coeffs),
                         value_and_grads(composed, table, directions, scans, coeffs))

    @pytest.mark.parametrize("steps", [7, 4])
    def test_weights_that_are_op_outputs_get_their_gradients(self, steps):
        table, directions, ids, coeffs = bilstm_inputs(8, True)
        scans = [ids[:, :steps], ids[:, ::-1][:, :steps]]

        def scaled(op):
            """``op`` over weights that are the outputs of an op, not leaves."""
            return lambda table, scans, directions: op(
                table, scans, [tuple(ad.mul(w, 1.5) for w in d) for d in directions])

        got = value_and_grads(scaled(ad.bilstm_last), table, directions, scans, coeffs)
        assert_identical(got, value_and_grads(scaled(composed), table, directions, scans, coeffs))
        assert all(g.any() for g in got[1])

    @pytest.mark.parametrize("case", ["shared", "one-op-output"])
    def test_a_shared_or_op_output_weight_gets_its_gradient_through_the_engine(self, case):
        table, directions, ids, coeffs = bilstm_inputs(10, True)
        scans = [ids, ids[:, ::-1]]
        if case == "shared":  # the backward direction reads the forward one's bias
            directions[1] = (*directions[1][:2], directions[0][2])

        def mixed(op):
            """``op`` where only the backward direction's w_rec is an op's output."""
            if case == "shared":
                return op
            return lambda table, scans, directions: op(table, scans, [
                directions[0], (directions[1][0], ad.mul(directions[1][1], 1.5),
                                directions[1][2])])

        got = value_and_grads(mixed(ad.bilstm_last), table, directions, scans, coeffs)
        assert_identical(got, value_and_grads(mixed(composed), table, directions, scans, coeffs))
        assert all(g.any() for g in got[1])

    def test_float32_stays_float32(self):
        table, directions, ids, coeffs = bilstm_inputs(11, True)
        table = Tensor(table.values.astype(np.float32), requires_grad=True)
        directions = [tuple(Tensor(w.values.astype(np.float32), requires_grad=True) for w in d)
                      for d in directions]
        scans = [ids, ids[:, ::-1]]
        got = value_and_grads(ad.bilstm_last, table, directions, scans, coeffs.astype(np.float32))
        assert got[0].dtype == np.float32
        assert [g.dtype for g in got[1]] == [np.float32] * 7
        assert_identical(got, value_and_grads(composed, table, directions, scans,
                                              coeffs.astype(np.float32)))

    @needs_pin
    @pytest.mark.parametrize("at_once", [False, True])
    def test_two_passes_without_zeroing_give_twice_the_weight_gradients(self, monkeypatch,
                                                                         at_once):
        table, directions, ids, coeffs = bilstm_inputs(9, True)
        scans = [ids, ids[:, ::-1]]
        weights = [*directions[0], *directions[1]]

        def two_passes():
            grads = []
            for _ in range(2):
                out = ad.bilstm_last(table, scans, directions)
                ad.reduce_sum(ad.mul(out, coeffs)).backward()
                grads.append([w.grad.copy() for w in weights])
            return grads

        once, twice = run(two_passes, at_once, monkeypatch)
        for a, b in zip(once, twice):
            assert a.any()
            np.testing.assert_array_equal(b, 2 * a)

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
        scans = []
        scan = kernels.lstm_last_hidden

        def scan_spy(proj, chunk, w_rec):
            scans.append((threading.current_thread().name, chunk[1].size))
            time.sleep(0.01)  # long enough for both workers to take a task
            return scan(proj, chunk, w_rec)

        monkeypatch.setattr(kernels, "lstm_last_hidden", scan_spy)
        rows = np.unique(split.token_ids, axis=0).shape[0]
        # eval_batch 2 * rows: one chunk of all rows, one scan at a time
        one_chunk = run(lambda: model.predict(split.token_ids, 2 * rows), False, monkeypatch)
        assert [size for _, size in scans] == [rows, rows]
        assert len({name for name, _ in scans}) == 1
        scans.clear()
        halves = run(lambda: model.predict(split.token_ids, rows), True, monkeypatch)
        # tasks of at most rows // 2 rows, one at a time per worker, so at
        # most `rows` rows in flight across the two workers
        assert max(size for _, size in scans) == rows // 2
        assert sum(size for _, size in scans) == 2 * rows
        assert len({name for name, _ in scans}) == 2
        np.testing.assert_array_equal(halves, one_chunk)

    def test_streamed_prediction_equals_serial_one_chunk_at_a_time(self, tiny, monkeypatch):
        # two workers, with chunk 0's fn held back while the other worker
        # finishes the later chunks: results still come back in chunk
        # order, bit for bit as serial, and no fn sees more than its chunk
        config, data = tiny
        model = WindowClassifier(data.embedding_table, k=data.k, hidden_size=10,
                                 dense_size=8, seed=2)
        ids = np.unique(data.dev.token_ids, axis=0)
        eval_batch = 64
        chunk = eval_batch // 2
        assert ids.shape[0] > 4 * chunk
        calls = []
        infer = model.infer

        def infer_spy(token_ids, fn, *args):
            def fn_spy(rows, feats):
                calls.append((rows.start, threading.current_thread().name, feats.values,
                              blas_threads() if parallel.can_pin() else 1))
                if rows.start == 0:
                    time.sleep(0.05)
                return fn(rows, feats)
            return infer(token_ids, fn_spy, *args)

        monkeypatch.setattr(model, "infer", infer_spy)

        def outputs(at_once):
            with monkeypatch.context() as m:
                m.setattr(parallel, "concurrent", lambda rows, width: at_once)
                return (model.predict(ids, eval_batch),
                        model.infer(ids, lambda rows, feats: feats.values, eval_batch),
                        model.infer_features(ids[:chunk]))

        serial = outputs(False)
        calls.clear()
        streamed = outputs(True)
        for a, b in zip(streamed, serial):
            assert a.tobytes() == b.tobytes()
        starts = list(range(0, ids.shape[0], chunk))
        assert sorted(start for start, *_ in calls) == sorted(2 * starts + [0])
        for _, _, feats, count in calls:
            assert feats.shape[0] <= chunk
            assert feats.base is None or feats.base.shape[0] <= chunk
            assert count == 1
        assert len({name for _, name, _, _ in calls}) == 2

    @needs_pin
    def test_prediction_does_not_depend_on_the_cpu_count(self, monkeypatch):
        # the acceptance sizes (4H = 96, eval_batch 512) on toy corpus 31,
        # whose N scans levels that hold one prefix under some chunkings
        config = ExperimentConfig(seed=31, clean_budget=400, embedding_dim=16, hidden_size=24,
                                  dense_size=16, eval_batch_size=512)
        data = prepare(config, *generate_splits(31))
        model = WindowClassifier(data.embedding_table, k=data.k, hidden_size=24,
                                 dense_size=16, seed=1)
        ids = np.unique(data.noisy.token_ids, axis=0)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "cpus", lambda cpus=cpus: cpus)
            with parallel.one_blas_thread():
                outputs.append((model.infer(ids, lambda rows, feats: feats.values, 512),
                                model.predict(data.noisy.token_ids, 512)))
        for one_cpu, two_cpus in zip(*outputs):
            assert one_cpu.tobytes() == two_cpus.tobytes()


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


    @needs_pin
    @pytest.mark.parametrize("bad", ["first half", "second half"])
    def test_non_finite_in_either_half_raises_before_any_write(self, monkeypatch, bad):
        rng = np.random.default_rng(6)
        shapes = [(optim.BLOCK + 7,), (3, optim.BLOCK // 2), (optim.BLOCK - 5, 1)]
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        opt = Adam(params, lr=0.01)
        size, half = opt.pack.values.size, 2 * optim.BLOCK  # four blocks, split two and two
        assert size > 3 * optim.BLOCK
        checked = []
        check = Adam._check

        def spy(self, start, stop, t):
            checked.append((start, stop, threading.current_thread().name))
            return check(self, start, stop, t)

        monkeypatch.setattr(Adam, "_check", spy)

        def steps():
            for p in params:
                p.grad[...] = rng.standard_normal(p.shape)
            opt.step()
            for p in params:
                p.grad[...] = rng.standard_normal(p.shape)
            opt.pack.grads[5 if bad == "first half" else half + 5] = np.nan
            before = [a.copy() for a in (opt.pack.values, opt.pack.grads, opt._m, opt._v)]
            checked.clear()
            with pytest.raises(NonFiniteError) as err:
                opt.step()
            return before, str(err.value)

        before, message = run(steps, True, monkeypatch)
        i, shape = (0, shapes[0]) if bad == "first half" else (1, shapes[1])
        assert message == f"Adam: non-finite gradient in parameter {i} of shape {shape} at step 2"
        assert opt.step_count == 1
        for now, then in zip((opt.pack.values, opt.pack.grads, opt._m, opt._v), before):
            assert now.tobytes() == then.tobytes()
        assert {c[:2] for c in checked} == {(0, half), (half, size)}
        assert len({c[2] for c in checked}) == 2


class TestPinAroundTrialsAndPrediction:
    @pytest.fixture
    def caller_count(self):
        set_, get = parallel._blas_threads()
        before = get()
        set_(2)
        yield get()
        set_(before)

    @needs_pin
    def test_restored_after_train_variant_and_predict_on_a_split(self, tiny, caller_count,
                                                                 monkeypatch):
        config, data = tiny
        inside = []
        evaluate_split = training.evaluate_split

        def probed(*args, **kwargs):
            inside.append(blas_threads())
            return evaluate_split(*args, **kwargs)

        monkeypatch.setattr(training, "evaluate_split", probed)
        result = training.train_variant("base-model", data, config, trial_seed=0)
        # dev is scored once per epoch, and test once at the end
        assert inside == [1] * (config.epochs + 1)
        assert blas_threads() == caller_count
        model = WindowClassifier(data.embedding_table, k=data.k, hidden_size=10,
                                 dense_size=8)
        model.load_state(result.model_state)
        model.predict(data.dev.token_ids, 64)
        assert blas_threads() == caller_count

    @needs_pin
    def test_restored_when_a_non_finite_error_escapes(self, tiny, caller_count,
                                                      monkeypatch):
        config, data = tiny

        def diverge(*args):
            assert blas_threads() == 1
            raise NonFiniteError("diverged")

        def nan_step(self):
            assert blas_threads() == 1
            raise NonFiniteError("Adam: non-finite gradient")

        monkeypatch.setattr(Adam, "step", nan_step)
        with pytest.raises(NonFiniteError, match="epoch 0"):
            training.train_variant("base-model", data, config, trial_seed=0)
        assert blas_threads() == caller_count
        monkeypatch.setattr(kernels, "lstm_last_hidden", diverge)
        model = WindowClassifier(data.embedding_table, k=data.k, hidden_size=10, dense_size=8)
        with pytest.raises(NonFiniteError, match="diverged"):
            model.predict(data.dev.token_ids, 64)
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
