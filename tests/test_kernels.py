"""LSTM kernel checks: the fused forward and the cache-free prediction scan
must match an independently written step-by-step oracle, the backward must
match a step-by-step backward oracle, and the hand-derived backward must
match finite differences."""

import numpy as np
import pytest

import noisylab.autodiff as ad
from noisylab import kernels
from noisylab.autodiff import Tensor, gradient_check


def make_inputs(rng, b=3, t=5, e=4, h=3):
    x = rng.standard_normal((b, t, e))
    w_in = rng.standard_normal((e, 4 * h)) * 0.5
    w_rec = rng.standard_normal((h, 4 * h)) * 0.5
    bias = rng.standard_normal(4 * h) * 0.1
    return x, w_in, w_rec, bias


def oracle_forward(x, w_in, w_rec, bias):
    """Separate, deliberately plain re-implementation of the LSTM scan."""
    b, t, _ = x.shape
    h = w_rec.shape[0]
    hs = np.zeros((b, t, h))
    h_prev = np.zeros((b, h))
    c_prev = np.zeros((b, h))
    for step in range(t):
        a = x[:, step, :] @ w_in + h_prev @ w_rec + bias
        gi = 1 / (1 + np.exp(-a[:, 0 * h:1 * h]))
        gf = 1 / (1 + np.exp(-a[:, 1 * h:2 * h]))
        gc = np.tanh(a[:, 2 * h:3 * h])
        go = 1 / (1 + np.exp(-a[:, 3 * h:4 * h]))
        c_prev = gf * c_prev + gi * gc
        h_prev = go * np.tanh(c_prev)
        hs[:, step, :] = h_prev
    return hs


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(0)
    x, w_in, w_rec, bias = make_inputs(rng)
    h_all, _, _, _ = kernels.lstm_forward(x, w_in, w_rec, bias)
    np.testing.assert_allclose(h_all, oracle_forward(x, w_in, w_rec, bias), atol=1e-12)


def make_window_inputs(rng, b=3, t=7, e=4, h=3, vocab=12):
    """An embedding table, token ids (b, t) into it, and LSTM weights."""
    table = rng.standard_normal((vocab, e))
    ids = rng.integers(0, vocab, size=(b, t))
    w_in = rng.standard_normal((e, 4 * h)) * 0.5
    w_rec = rng.standard_normal((h, 4 * h)) * 0.5
    bias = rng.standard_normal(4 * h) * 0.1
    return table, ids, w_in, w_rec, bias


def scan_plan(table, plan, w_in, w_rec, bias):
    """The prediction scan of every chunk of ``plan`` over ``table``, each
    from one projection of the plan's distinct tokens."""
    proj = kernels.project(table.take(plan.tokens, axis=0), w_in, bias)
    return np.concatenate([kernels.lstm_last_hidden(proj, part, w_rec) for part in plan.chunks])


def last_hidden(table, ids, w_in, w_rec, bias, steps):
    """The prediction scan over ``table[ids]`` for ``steps`` steps, on a
    prefix plan built for this call."""
    return scan_plan(table, kernels.prefix_plan(ids, steps), w_in, w_rec, bias)


def oracle_last_hidden(table, ids, w_in, w_rec, bias, steps):
    return oracle_forward(table[ids], w_in, w_rec, bias)[:, steps - 1, :]


# (forward steps, backward steps) scanned for the pooled state of a
# 7-token window: "final" pooling reads both directions after the whole
# window, "center" pooling reads both at the middle token
POOLED_STEPS = {"final": (7, 7), "center": (4, 4)}


@pytest.mark.parametrize("pooling", sorted(POOLED_STEPS))
@pytest.mark.parametrize("b", [1, 5])
def test_last_hidden_equals_training_scan_at_pooled_step(pooling, b):
    rng = np.random.default_rng(5)
    table, ids, w_in, w_rec, bias = make_window_inputs(rng, b=b, t=7, e=4, h=3)
    for steps, seq in zip(POOLED_STEPS[pooling], (ids, ids[:, ::-1])):
        h_all = kernels.lstm_forward(table[seq], w_in, w_rec, bias)[0]
        h_last = last_hidden(table, seq, w_in, w_rec, bias, steps)
        assert h_last.shape == (b, 3)
        np.testing.assert_array_equal(h_last, h_all[:, steps - 1, :])


@pytest.mark.parametrize("steps", [1, 4, 7])
def test_last_hidden_matches_straight_line_oracle(steps):
    rng = np.random.default_rng(6)
    table, ids, w_in, w_rec, bias = make_window_inputs(rng, b=4, t=7, e=5, h=4)
    expected = oracle_last_hidden(table, ids, w_in, w_rec, bias, steps)
    got = last_hidden(table, ids, w_in, w_rec, bias, steps)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_last_hidden_keeps_float32():
    rng = np.random.default_rng(7)
    table, ids, w_in, w_rec, bias = make_window_inputs(rng, t=7)
    table, w_in, w_rec, bias = (a.astype(np.float32) for a in (table, w_in, w_rec, bias))
    h = last_hidden(table, ids, w_in, w_rec, bias, 4)
    assert h.dtype == np.float32
    table, w_in, w_rec, bias = (a.astype(np.float64) for a in (table, w_in, w_rec, bias))
    expected = oracle_last_hidden(table, ids, w_in, w_rec, bias, 4)
    np.testing.assert_allclose(h, expected, atol=1e-5)


@pytest.mark.parametrize("steps", [0, 8])
def test_last_hidden_rejects_steps_outside_window(steps):
    table, ids, w_in, w_rec, bias = make_window_inputs(np.random.default_rng(8), t=7)
    with pytest.raises(ValueError):
        last_hidden(table, ids, w_in, w_rec, bias, steps)


@pytest.fixture
def cell_rows(monkeypatch):
    """Rows advanced by each ``_cell_step`` call, in call order."""
    rows = []
    step = kernels._cell_step

    def counted(a, *args):
        rows.append(a.shape[0])
        return step(a, *args)

    monkeypatch.setattr(kernels, "_cell_step", counted)
    return rows


def test_last_hidden_all_rows_identical(cell_rows):
    rng = np.random.default_rng(12)
    table, ids, w_in, w_rec, bias = make_window_inputs(rng, b=1, t=7)
    rows = np.repeat(ids, 6, axis=0)
    for steps in (1, 4, 7):
        alone = last_hidden(table, ids, w_in, w_rec, bias, steps)
        cell_rows.clear()
        got = last_hidden(table, rows, w_in, w_rec, bias, steps)
        assert cell_rows == [1] * steps
        np.testing.assert_array_equal(got, np.repeat(alone, 6, axis=0))
        np.testing.assert_allclose(
            got, oracle_last_hidden(table, rows, w_in, w_rec, bias, steps), rtol=0, atol=1e-12)


def test_last_hidden_rows_sharing_only_prefixes(cell_rows):
    rng = np.random.default_rng(13)
    table, _, w_in, w_rec, bias = make_window_inputs(rng, vocab=60)
    # two groups of three rows: a group shares its first four tokens, and
    # no two rows share any later token; neighbouring rows are from
    # different groups, and so are rows next to each other by last token
    a, b = [1, 2, 3, 4], [5, 2, 3, 4]
    ids = np.array([
        a + [10, 11, 12], b + [20, 21, 22],
        a + [30, 31, 32], b + [40, 41, 42],
        a + [50, 51, 52], b + [54, 55, 56],
    ])
    for steps in (3, 4, 5, 7):
        cell_rows.clear()
        got = last_hidden(table, ids, w_in, w_rec, bias, steps)
        assert cell_rows == [2] * min(steps, 4) + [6] * (steps - 4)
        np.testing.assert_allclose(
            got, oracle_last_hidden(table, ids, w_in, w_rec, bias, steps), rtol=0, atol=1e-12)


def test_last_hidden_rows_sharing_only_suffixes(cell_rows):
    # suffixes are what the backward direction shares, as prefixes of the
    # reversed rows; the forward direction shares nothing
    rng = np.random.default_rng(14)
    table, _, w_in, w_rec, bias = make_window_inputs(rng, vocab=60)
    # six rows with the same last four tokens and no other token in common
    ids = np.hstack([20 + np.arange(18).reshape(6, 3), np.tile([7, 8, 9, 10], (6, 1))])
    shared_steps = {"forward": 0, "backward": 4}
    for direction, seq in (("forward", ids), ("backward", ids[:, ::-1])):
        for steps in (3, 4, 5, 7):
            cell_rows.clear()
            got = last_hidden(table, seq, w_in, w_rec, bias, steps)
            shared = min(steps, shared_steps[direction])
            assert cell_rows == [1] * shared + [6] * (steps - shared)
            np.testing.assert_allclose(
                got, oracle_last_hidden(table, seq, w_in, w_rec, bias, steps),
                rtol=0, atol=1e-12)


def test_last_hidden_single_row():
    rng = np.random.default_rng(15)
    table, ids, w_in, w_rec, bias = make_window_inputs(rng, b=1, t=7)
    for steps in (1, 4, 7):
        got = last_hidden(table, ids, w_in, w_rec, bias, steps)
        assert got.shape == (1, 3)
        h_all = kernels.lstm_forward(table[ids], w_in, w_rec, bias)[0]
        np.testing.assert_array_equal(got, h_all[:, steps - 1, :])
        np.testing.assert_allclose(
            got, oracle_last_hidden(table, ids, w_in, w_rec, bias, steps), rtol=0, atol=1e-12)


@pytest.mark.parametrize("k, n", [(16, 96), (24, 96), (300, 1200)])
def test_gemm_of_one_row_is_that_row_of_a_larger_gemm(k, n):
    # numpy runs a one-row np.dot as GEMV, which rounds otherwise
    rng = np.random.default_rng(21)
    a, b = rng.standard_normal((300, k)), rng.standard_normal((k, n))
    full = np.dot(a, b)
    for i in (0, 7, 299):
        assert kernels._gemm(a[i:i + 1], b).tobytes() == full[i:i + 1].tobytes()
        out = np.empty((1, n))
        assert kernels._gemm(a[i:i + 1], b, out=out) is out
        assert out.tobytes() == full[i:i + 1].tobytes()


def test_last_hidden_empty_batch():
    table, ids, w_in, w_rec, bias = make_window_inputs(np.random.default_rng(18), t=7)
    got = last_hidden(table, ids[:0], w_in, w_rec, bias, 7)
    assert got.shape == (0, 3)


def test_last_hidden_permuted_rows_give_permuted_output():
    rng = np.random.default_rng(16)
    table, ids, w_in, w_rec, bias = make_window_inputs(rng, b=40, t=7, vocab=4)
    ids[10:20] = ids[:10]  # repeated rows as well as shared prefixes
    perm = rng.permutation(len(ids))
    for seq in (ids, ids[:, ::-1]):
        for steps in (1, 4, 7):
            got = last_hidden(table, seq, w_in, w_rec, bias, steps)
            permuted = last_hidden(table, seq[perm], w_in, w_rec, bias, steps)
            np.testing.assert_array_equal(permuted, got[perm])


def test_last_hidden_random_shapes_match_oracle():
    rng = np.random.default_rng(17)
    for _ in range(6):
        e, h = (int(v) for v in rng.integers(1, 41, size=2))
        b = int(rng.integers(1, 701))
        vocab = int(rng.integers(1, 80))
        table, ids, w_in, w_rec, bias = make_window_inputs(rng, b=b, t=7, e=e, h=h, vocab=vocab)
        steps = int(rng.integers(1, 8))
        for seq in (ids, ids[:, ::-1]):
            got = last_hidden(table, seq, w_in, w_rec, bias, steps)
            assert got.shape == (b, h)
            np.testing.assert_allclose(
                got, oracle_last_hidden(table, seq, w_in, w_rec, bias, steps),
                rtol=0, atol=1e-12)


def test_kept_plan_serves_every_weight_update():
    # a split keeps its plans across epochs, so the scan must leave its plan
    # as it found it: one plan scanned under new weights again and again
    # gives what a plan built per call gives
    rng = np.random.default_rng(19)
    table, ids, _, _, _ = make_window_inputs(rng, b=60, t=7, vocab=9)
    for steps in (1, 4, 7):
        plan = kernels.prefix_plan(ids, steps)
        for _ in range(3):
            _, _, w_in, w_rec, bias = make_window_inputs(rng, b=1, t=7)
            np.testing.assert_array_equal(scan_plan(table, plan, w_in, w_rec, bias),
                                          last_hidden(table, ids, w_in, w_rec, bias, steps))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("chunk", [1, 7, 25, 60])
def test_chunks_of_a_plan_scan_as_the_chunks_on_their_own(dtype, chunk):
    # one projection of all the rows' distinct tokens serves every chunk,
    # bit for bit as if each chunk were scanned on its own
    rng = np.random.default_rng(20)
    table, ids, w_in, w_rec, bias = (a.astype(dtype) if a.dtype.kind == "f" else a
                                     for a in make_window_inputs(rng, b=60, t=7, vocab=30))
    for steps in (4, 7):
        plan = kernels.prefix_plan(ids, steps, chunk)
        assert [out.size for _, out in plan.chunks] == [
            min(chunk, 60 - start) for start in range(0, 60, chunk)]
        got = scan_plan(table, plan, w_in, w_rec, bias)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, np.concatenate([
            last_hidden(table, ids[start:start + chunk], w_in, w_rec, bias, steps)
            for start in range(0, 60, chunk)]))


def oracle_backward(x, w_in, w_rec, h_all, c_all, tc_all, gates, dh_all):
    """Plain step-by-step backward over ``lstm_forward``'s caches: every
    gradient is accumulated one step at a time."""
    b, t_len, e = x.shape
    h = w_rec.shape[0]
    dw_in = np.zeros_like(w_in)
    dw_rec = np.zeros_like(w_rec)
    dbias = np.zeros(4 * h, x.dtype)
    dx = np.zeros((b, t_len, e), x.dtype)
    dh_next = np.zeros((b, h), x.dtype)
    dc_next = np.zeros((b, h), x.dtype)
    for t in range(t_len - 1, -1, -1):
        g = gates[t]
        gi, gf, gc, go = g[:, :h], g[:, h:2 * h], g[:, 2 * h:3 * h], g[:, 3 * h:]
        tc = tc_all[t]
        dh = dh_all[:, t, :] + dh_next
        dc = dc_next + dh * go * (1 - tc * tc)
        c_prev = c_all[t - 1] if t > 0 else np.zeros((b, h), x.dtype)
        da = np.concatenate([
            dc * gc * gi * (1 - gi),
            dc * c_prev * gf * (1 - gf),
            dc * gi * (1 - gc * gc),
            dh * tc * go * (1 - go),
        ], axis=1)
        dw_in += x[:, t, :].T @ da
        if t > 0:
            dw_rec += h_all[:, t - 1, :].T @ da
        dbias += da.sum(0)
        dx[:, t, :] = da @ w_in.T
        dh_next = da @ w_rec.T
        dc_next = dc * gf
    return dx, dw_in, dw_rec, dbias


@pytest.mark.parametrize("need_dx", [True, False])
@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("t", [1, 2, 7])
def test_backward_matches_step_by_step_oracle(t, b, need_dx):
    rng = np.random.default_rng(9)
    x, w_in, w_rec, bias = make_inputs(rng, b=b, t=t, e=4, h=3)
    caches = kernels.lstm_forward(x, w_in, w_rec, bias)
    dh_all = rng.standard_normal((b, t, 3))
    saved = [c.copy() for c in caches]
    dx, dw_in, dw_rec, dbias = kernels.lstm_backward(
        x, w_in, w_rec, *caches, dh_all, need_dx)
    for cache, before in zip(caches, saved):
        np.testing.assert_array_equal(cache, before)  # caches are only read
    want_dx, want_in, want_rec, want_bias = oracle_backward(x, w_in, w_rec, *caches, dh_all)
    if need_dx:
        np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-12)
    else:
        assert dx is None
    np.testing.assert_allclose(dw_in, want_in, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dw_rec, want_rec, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dbias, want_bias, rtol=0, atol=1e-12)
    if t == 1:
        np.testing.assert_array_equal(dw_rec, 0.0)


def test_backward_keeps_float32():
    rng = np.random.default_rng(10)
    x, w_in, w_rec, bias = (a.astype(np.float32) for a in make_inputs(rng, t=7))
    caches = kernels.lstm_forward(x, w_in, w_rec, bias)
    dh_all = rng.standard_normal((3, 7, 3)).astype(np.float32)
    grads = kernels.lstm_backward(x, w_in, w_rec, *caches, dh_all, True)
    assert [g.dtype for g in grads] == [np.float32] * 4
    buffers = [np.zeros_like(w_in), None, np.zeros_like(bias)]
    dx, dw_in, dw_rec, dbias = kernels.lstm_backward(x, w_in, w_rec, *caches, dh_all, True,
                                                     grads=buffers)
    assert dw_in is None and dbias is None
    assert [a.dtype for a in (dx, dw_rec, buffers[0], buffers[2])] == [np.float32] * 4


@pytest.mark.parametrize("t", [1, 7])
@pytest.mark.parametrize("given", [(a, b, c) for a in (False, True) for b in (False, True)
                                   for c in (False, True)])
def test_backward_adds_each_given_gradient_into_its_buffer(given, t):
    rng = np.random.default_rng(12)
    x, w_in, w_rec, bias = make_inputs(rng, b=4, t=t)
    caches = kernels.lstm_forward(x, w_in, w_rec, bias)
    dh_all = rng.standard_normal((4, t, 3))
    want = kernels.lstm_backward(x, w_in, w_rec, *caches, dh_all, True)
    prefill = [rng.standard_normal(w.shape) if g else None
               for w, g in zip((w_in, w_rec, bias), given)]
    buffers = [None if p is None else p.copy() for p in prefill]
    got = kernels.lstm_backward(x, w_in, w_rec, *caches, dh_all, True, grads=buffers)
    assert got[0].tobytes() == want[0].tobytes()
    for k in range(3):
        if given[k]:
            assert got[k + 1] is None
            assert buffers[k].tobytes() == (prefill[k] + want[k + 1]).tobytes()
        else:
            assert got[k + 1].tobytes() == want[k + 1].tobytes()


def test_two_backward_passes_give_twice_the_gradient():
    rng = np.random.default_rng(11)
    xv, w_in_v, w_rec_v, bias_v = make_inputs(rng, b=4, t=7, e=3, h=3)
    params = [Tensor(v, requires_grad=True) for v in (xv, w_in_v, w_rec_v, bias_v)]
    x_rev = Tensor(np.ascontiguousarray(xv[:, ::-1]), requires_grad=True)
    params.append(x_rev)
    coeffs = rng.standard_normal((4, 7, 3))
    loss = ad.add(
        ad.reduce_sum(ad.mul(ad.lstm_sequence(*params[:4]), coeffs)),
        ad.reduce_sum(ad.mul(ad.lstm_sequence(x_rev, *params[1:4]), coeffs)),
    )
    loss.backward()
    once = [p.grad.copy() for p in params]
    loss.backward()
    for p, g in zip(params, once):
        np.testing.assert_array_equal(p.grad, 2 * g)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    xv, w_in_v, w_rec_v, bias_v = make_inputs(rng, b=2, t=4, e=3, h=3)
    x = Tensor(xv, requires_grad=True)
    w_in = Tensor(w_in_v, requires_grad=True)
    w_rec = Tensor(w_rec_v, requires_grad=True)
    bias = Tensor(bias_v, requires_grad=True)
    coeffs = Tensor(rng.standard_normal((2, 4, 3)))

    def loss():
        return ad.reduce_sum(ad.mul(ad.lstm_sequence(x, w_in, w_rec, bias), coeffs))

    assert gradient_check(loss, [x, w_in, w_rec, bias], h=1e-5) < 1e-4


def test_reverse_scan_gradient():
    rng = np.random.default_rng(3)
    xv, w_in_v, w_rec_v, bias_v = make_inputs(rng, b=2, t=5, e=3, h=2)
    x = Tensor(np.ascontiguousarray(xv[:, ::-1]), requires_grad=True)
    w_in = Tensor(w_in_v, requires_grad=True)
    w_rec = Tensor(w_rec_v, requires_grad=True)
    bias = Tensor(bias_v, requires_grad=True)
    coeffs = Tensor(rng.standard_normal((2, 2)))

    def loss():
        h = ad.lstm_sequence(x, w_in, w_rec, bias)
        return ad.reduce_sum(ad.mul(ad.take_time(h, 4), coeffs))

    assert gradient_check(loss, [x, w_in, w_rec, bias], h=1e-5) < 1e-4


def test_reverse_scan_equals_forward_on_reversed_input():
    rng = np.random.default_rng(4)
    x, w_in, w_rec, bias = make_inputs(rng)
    fwd = kernels.lstm_forward(np.ascontiguousarray(x[:, ::-1, :]), w_in, w_rec, bias)[0]
    rev = ad.lstm_sequence(Tensor(x[:, ::-1, :]), Tensor(w_in), Tensor(w_rec), Tensor(bias))
    np.testing.assert_array_equal(rev.values, fwd)


def test_shapes_validated():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ad.ShapeMismatch):
        ad.lstm_sequence(x, Tensor(np.zeros((5, 8))), Tensor(np.zeros((2, 8))), Tensor(np.zeros(8)))
