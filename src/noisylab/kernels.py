"""LSTM sequence kernels in plain numpy: the training scan with its
backward pass, and a prediction scan that keeps no caches.

Both scans compute the input projection ``x @ w_in + bias`` as one GEMM
before the time loop, leaving one recurrent GEMM per step (Appleyard et
al., *Optimizing Performance of RNNs on GPUs*, arXiv 1604.01946), and both
advance the cell through ``_cell_step``, so the LSTM equations are written
once.  The training scan projects every step of every row; the prediction
scan projects each distinct token once and advances each distinct prefix
of its rows once, following a :class:`PrefixPlan` worked out from the ids
alone, which a caller that scans the same ids again may keep.

Gate layout along the last axis of the packed weight matrices is
(input, forget, cell, output), each block of width H.  Internally the
scans work time-major: the projection, the gates and the cell caches are
(T, B, .) so each step reads and writes contiguous (B, .) blocks.
Literal constants go through the input's scalar type so float32 inputs
stay float32.
"""

from typing import NamedTuple

import numpy as np


def _input_projection(x, w_in, bias):
    """Pre-activations ``x @ w_in + bias`` as one GEMM, time-major (T, B, 4H)."""
    B, T, E = x.shape
    xs = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(T * B, E)
    a = np.dot(xs, w_in)
    a += bias
    return a.reshape(T, B, -1)


def _cell_step(a, c_prev, c, tc, h):
    """Advance every row one LSTM step, with no temporaries.

    ``a`` (B, 4H) holds the pre-activations on entry and the gates on exit.
    The new cell state, its tanh and the hidden state are written into
    ``c``, ``tc`` and ``h``; ``c`` may be ``c_prev`` itself.
    """
    H = c.shape[1]
    one = a.dtype.type(1)
    gc = a[:, 2 * H:3 * H]
    np.tanh(gc, out=tc)  # tc and h serve as scratch until their own values are due
    # one contiguous sigmoid over all four blocks beats three strided ones;
    # the cell block is then restored from tc
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += one
    np.divide(one, a, out=a)
    gc[...] = tc
    np.multiply(a[:, H:2 * H], c_prev, out=c)
    np.multiply(a[:, :H], tc, out=h)
    c += h
    np.tanh(c, out=tc)
    np.multiply(a[:, 3 * H:], tc, out=h)


def lstm_forward(x, w_in, w_rec, bias):
    """Run an LSTM over x (B, T, E), scanning left to right.

    Returns h_all (B, T, H) and the caches ``lstm_backward`` reads: the
    cell states and their tanh (each (T, B, H)) and the post-activation
    gates (T, B, 4H).
    """
    B, T, _ = x.shape
    H = w_rec.shape[0]
    gates = _input_projection(x, w_in, bias)
    h_tm = np.empty((T, B, H), x.dtype)
    c_all = np.empty((T, B, H), x.dtype)
    tc_all = np.empty((T, B, H), x.dtype)
    c_prev = np.zeros((B, H), x.dtype)
    rec = np.empty((B, 4 * H), x.dtype)
    for t in range(T):
        a = gates[t]
        if t > 0:
            a += np.dot(h_tm[t - 1], w_rec, out=rec)
            c_prev = c_all[t - 1]
        _cell_step(a, c_prev, c_all[t], tc_all[t], h_tm[t])
    return h_tm.transpose(1, 0, 2), c_all, tc_all, gates


class PrefixPlan(NamedTuple):
    """What the prediction scan over some ids needs besides the weights.

    ``tokens`` are the distinct ids, projected once.  ``levels[t]`` is the
    (token, parent) pair of level t, which holds the distinct prefixes of
    length t + 1: the index into ``tokens`` of each prefix's last token,
    and the index of the prefix it extends in level t - 1 (None at level
    0).  ``out`` is, for every row of the ids, its prefix's index in the
    last level.  The indices are int32, which halves a kept plan.
    """

    tokens: np.ndarray
    levels: tuple
    out: np.ndarray


def prefix_plan(ids, steps):
    """:class:`PrefixPlan` of the scan over ids (B, T), in scan order, for
    its first ``steps`` steps.

    A pure function of the ids and the step count, so a caller that scans
    the same ids again may keep it.  The rows are sorted once; in sorted
    order a row starts a new prefix of length t + 1 wherever it differs
    from the row before it in its first t + 1 tokens.
    """
    B, T = ids.shape
    if not 1 <= steps <= T:
        raise ValueError(f"steps {steps} outside 1..{T}")
    ids = ids[:, :steps]
    tokens, tok = np.unique(ids, return_inverse=True)
    order = np.lexsort(ids.T[::-1])
    tok = tok.reshape(B, steps)[order].astype(np.int32)
    # new[r, t]: sorted row r starts a prefix of length t + 1 that the row
    # before it does not share; prefix[r, t] is that prefix's index in level t
    new = np.empty((B, steps), bool)
    new[:1] = True
    np.not_equal(tok[1:], tok[:-1], out=new[1:])
    np.logical_or.accumulate(new, axis=1, out=new)
    prefix = np.cumsum(new, axis=0, dtype=np.int32)
    prefix -= 1
    levels = []
    for t in range(steps):
        first = np.flatnonzero(new[:, t])
        levels.append((tok[first, t], None if t == 0 else prefix[first, t - 1]))
    out = np.empty(B, np.int32)
    out[order] = prefix[:, -1]
    return PrefixPlan(tokens, tuple(levels), out)


def lstm_last_hidden(table, plan, w_in, w_rec, bias):
    """Hidden state (B, H) of the same scan over ``table[ids]`` after its
    first ``steps`` steps, for the ids and step count ``plan`` was built
    from (:func:`prefix_plan`).

    For prediction: nothing is cached.  The state after t tokens depends
    only on those t tokens, so each distinct token is projected once (one
    GEMM, then ``bias``) and each distinct prefix is advanced once: level
    t's recurrent term is one GEMM over the distinct prefixes of level
    t - 1, gathered by parent.
    """
    H = w_rec.shape[0]
    proj = np.dot(table.take(plan.tokens, axis=0), w_in)
    proj += bias
    rows = max(tok.size for tok, _ in plan.levels)
    tc_buf = np.empty((rows, H), table.dtype)
    h_buf = np.empty((rows, H), table.dtype)
    for tok, parent in plan.levels:
        a = proj.take(tok, axis=0)
        if parent is None:
            c = np.zeros((tok.size, H), table.dtype)
        else:
            a += np.dot(h, w_rec).take(parent, axis=0)
            c = c.take(parent, axis=0)
        h = h_buf[:tok.size]
        _cell_step(a, c, c, tc_buf[:tok.size], h)
    return h.take(plan.out, axis=0)


def lstm_backward(x, w_in, w_rec, h_all, c_all, tc_all, gates, dh_all, need_dx):
    """Backpropagate dh_all (B, T, H) through the scan of ``lstm_forward``.

    Returns (dx, dw_in, dw_rec, dbias); dx is None when need_dx is False.

    Each gate derivative is a local factor, read from the caches, times dc
    (input, forget and cell blocks) or dh (output block).  The local
    factors of all steps are computed first, in place, into one time-major
    (T, B, 4H) buffer; the time loop then follows only the recurrent
    chain, scaling one step of that buffer per iteration.  The weight
    gradients and dx are one GEMM each over all steps (Appleyard et al.,
    arXiv 1604.01946).  The caches are only read.
    """
    B, T, E = x.shape
    H = w_rec.shape[0]
    one = x.dtype.type(1)
    g4 = gates.reshape(T, B, 4, H)
    gi, gf, gc, go = (g4[:, :, k] for k in range(4))
    da_all = np.empty((T, B, 4 * H), x.dtype)
    d4 = da_all.reshape(T, B, 4, H)
    # sigmoid derivative g * (1 - g) of every block, then 1 - gc^2 for
    # the cell block
    np.subtract(one, gates, out=da_all)
    da_all *= gates
    dcell = d4[:, :, 2]
    np.multiply(gc, gc, out=dcell)
    np.subtract(one, dcell, out=dcell)
    # local factors: gc for i, c_prev for f (zero before the first
    # step), gi for the cell, tanh(c) for o
    d4[:, :, 0] *= gc
    d4[1:, :, 1] *= c_all[:-1]
    d4[0, :, 1] = 0
    dcell *= gi
    d4[:, :, 3] *= tc_all
    # dc picks up dh * go * (1 - tanh(c)^2) at each step
    dh_to_dc = np.multiply(tc_all, tc_all)
    np.subtract(one, dh_to_dc, out=dh_to_dc)
    dh_to_dc *= go
    w_rec_t = w_rec.T
    # dh and dc carry dh_next and dc_next between steps
    dh = np.zeros((B, H), x.dtype)
    dc = np.zeros((B, H), x.dtype)
    u = np.empty((B, H), x.dtype)
    for t in range(T - 1, -1, -1):
        dh += dh_all[:, t, :]
        np.multiply(dh, dh_to_dc[t], out=u)
        dc += u
        d4[t, :, :3] *= dc[:, None, :]
        d4[t, :, 3] *= dh
        if t > 0:
            np.dot(da_all[t], w_rec_t, out=dh)
            dc *= gf[t]
    da_flat = da_all.reshape(T * B, 4 * H)
    xs = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(T * B, E)
    dw_in = np.dot(xs.T, da_flat)
    if T > 1:
        h_prev = h_all.transpose(1, 0, 2)[:T - 1].reshape((T - 1) * B, H)
        dw_rec = np.dot(h_prev.T, da_flat[B:])
    else:
        dw_rec = np.zeros_like(w_rec)
    dbias = da_flat.sum(0)
    dx = None
    if need_dx:
        dx = np.dot(da_flat, w_in.T).reshape(T, B, E).transpose(1, 0, 2)
    return dx, dw_in, dw_rec, dbias


# The same two kernels under names that perfbench's tracer does not wrap.
# autodiff.bilstm_last calls them for the direction it runs on the worker
# thread (see noisylab.parallel), since the tracer keeps one stack of spans
# and so must see the main thread only.
_lstm_forward = lstm_forward
_lstm_backward = lstm_backward
