"""LSTM sequence kernels in plain numpy: the training scan with its
backward pass, and a prediction scan that keeps no caches.

Both scans compute the input projection ``x @ w_in + bias`` as one GEMM
(:func:`project`) before the time loop, leaving one recurrent GEMM per step
(Appleyard et al., *Optimizing Performance of RNNs on GPUs*, arXiv
1604.01946), and both advance the cell through ``_cell_step``, so the LSTM
equations are written once.  The training scan projects every step of
every row, or starts from gates its caller gathered from a projection of
the distinct tokens; the prediction scan starts from a projection of the
distinct tokens of all its chunks of rows and advances each distinct
prefix of a chunk once, following a :class:`PrefixPlan` worked out from
the ids alone, which a caller that scans the same ids again may keep.
Every product over rows of tokens, prefixes, windows or positions goes
through :func:`_gemm`, so a row's result does not depend on the rows
computed with it (see there).

Gate layout along the last axis of the packed weight matrices is
(input, forget, cell, output), each block of width H.  Internally the
scans work time-major: the projection, the gates and the cell caches are
(T, B, .) so each step reads and writes contiguous (B, .) blocks.
Literal constants go through the input's scalar type so float32 inputs
stay float32.
"""

from typing import NamedTuple

import numpy as np


def _gemm(a, b, out=None):
    """``np.dot(a, b, out=out)`` for a 2-d ``a``, always computed as a GEMM.

    A row of a GEMM does not depend on the other rows, but numpy computes
    a one-row product as GEMV, which rounds otherwise.  So a one-row ``a``
    is stacked twice and the first result row kept: a distinct token's
    projection then equals, bit for bit, that of each of its occurrences,
    and a window's state does not depend on the windows scanned with it.
    That holds while OpenBLAS runs every row count through kernels that
    round alike, as it does for the scans' products at K = 16, 24 or 300;
    at K = 600 or 1200 its small-matrix kernel (M * N * K up to about 1e6)
    rounds otherwise than its blocked one.
    """
    if a.shape[0] != 1:
        return np.dot(a, b, out=out)
    row = np.dot(np.concatenate((a, a)), b)[:1]
    if out is None:
        return row
    out[...] = row
    return out


def project(rows, w_in, bias):
    """Pre-activations ``rows @ w_in + bias`` of rows (N, E), as one GEMM
    and then the bias."""
    a = _gemm(rows, w_in)
    a += bias
    return a


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


def lstm_forward(x, w_in, w_rec, bias, gates=None):
    """Run an LSTM over x (B, T, E), scanning left to right.

    ``gates``, when given, holds the pre-activations ``x @ w_in + bias``
    time-major (T, B, 4H), as the caller projected them; the scan then
    computes no projection and overwrites ``gates`` with the gates.
    Returns h_all (B, T, H) and the caches ``lstm_backward`` reads: the
    cell states and their tanh (each (T, B, H)) and the post-activation
    gates (T, B, 4H).
    """
    B, T, E = x.shape
    H = w_rec.shape[0]
    if gates is None:
        xs = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(T * B, E)
        gates = project(xs, w_in, bias).reshape(T, B, -1)
    h_tm = np.empty((T, B, H), x.dtype)
    c_all = np.empty((T, B, H), x.dtype)
    tc_all = np.empty((T, B, H), x.dtype)
    c_prev = np.zeros((B, H), x.dtype)
    rec = np.empty((B, 4 * H), x.dtype)
    for t in range(T):
        a = gates[t]
        if t > 0:
            a += _gemm(h_tm[t - 1], w_rec, out=rec)
            c_prev = c_all[t - 1]
        _cell_step(a, c_prev, c_all[t], tc_all[t], h_tm[t])
    return h_tm.transpose(1, 0, 2), c_all, tc_all, gates


class PrefixPlan(NamedTuple):
    """What the prediction scan over some ids needs besides the weights.

    ``tokens`` are the distinct ids of all the rows, projected once.  The
    rows are scanned in chunks of consecutive rows, one (levels, out) pair
    per chunk in ``chunks``.  ``levels[t]`` is the (token, parent) pair of
    level t, which holds the chunk's distinct prefixes of length t + 1: the
    index into ``tokens`` of each prefix's last token, and the index of
    the prefix it extends in level t - 1 (None at level 0).  ``out`` is,
    for every row of the chunk, its prefix's index in the last level.  The
    indices are int32, which halves a kept plan.
    """

    tokens: np.ndarray
    chunks: tuple


def prefix_plan(ids, steps, chunk=None):
    """:class:`PrefixPlan` of the scan over ids (B, T), in scan order, for
    its first ``steps`` steps, in chunks of ``chunk`` rows (all rows in one
    chunk by default; no rows are one empty chunk).

    A pure function of the ids, the step count and the chunk size, so a
    caller that scans the same ids again may keep it.  Each chunk's rows
    are sorted once; in sorted order a row starts a new prefix of length
    t + 1 wherever it differs from the row before it in its first t + 1
    tokens.  The sort of the token indices is the sort of the ids, since
    ``np.unique`` numbers the distinct ids in increasing order.
    """
    B, T = ids.shape
    if not 1 <= steps <= T:
        raise ValueError(f"steps {steps} outside 1..{T}")
    tokens, tok = np.unique(ids[:, :steps], return_inverse=True)
    tok = tok.reshape(B, steps).astype(np.int32)
    chunk = chunk or max(B, 1)
    return PrefixPlan(tokens, tuple(_chunk_levels(tok[start:start + chunk])
                                    for start in range(0, max(B, 1), chunk)))


def _chunk_levels(tok):
    """(levels, out) of one chunk of token indices (B, steps); see
    :class:`PrefixPlan`."""
    B, steps = tok.shape
    order = np.lexsort(tok.T[::-1])
    tok = tok[order]
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
    return tuple(levels), out


def lstm_last_hidden(proj, chunk, w_rec):
    """Hidden state (B, H), after the plan's ``steps`` steps, of the scan
    over one chunk of rows of a :class:`PrefixPlan`: ``chunk`` is one
    (levels, out) pair of the plan's ``chunks``, and ``proj`` is the
    projection ``project(table[plan.tokens], w_in, bias)`` of the plan's
    distinct tokens, shared by all its chunks.

    For prediction: nothing is cached.  The state after t tokens depends
    only on those t tokens, so each distinct prefix of the chunk is
    advanced once: level t's recurrent term is one GEMM over the chunk's
    distinct prefixes of level t - 1, gathered by parent.  The states are
    those of the chunk's rows scanned on their own.
    """
    levels, out = chunk
    H = w_rec.shape[0]
    rows = max(tok.size for tok, _ in levels)
    tc_buf = np.empty((rows, H), proj.dtype)
    h_buf = np.empty((rows, H), proj.dtype)
    for tok, parent in levels:
        if parent is None:
            a = proj.take(tok, axis=0)
            c = np.zeros((tok.size, H), proj.dtype)
        else:
            # the GEMM's result is freed before the projection is gathered,
            # so two gate-sized arrays are alive, not three
            a = _gemm(h, w_rec).take(parent, axis=0)
            a += proj.take(tok, axis=0)
            c = c.take(parent, axis=0)
        h = h_buf[:tok.size]
        _cell_step(a, c, c, tc_buf[:tok.size], h)
    return h.take(out, axis=0)


def _add_into(buffer, value):
    """``value``, or None once it is added into ``buffer`` where one is given."""
    if buffer is None:
        return value
    np.add(buffer, value, out=buffer)
    return None


def lstm_backward(x, w_in, w_rec, h_all, c_all, tc_all, gates, dh_all, need_dx,
                  grads=None):
    """Backpropagate dh_all (B, T, H) through the scan of ``lstm_forward``.

    Returns (dx, dw_in, dw_rec, dbias); dx is None when need_dx is False.
    ``grads``, when given, is (g_in, g_rec, g_bias), each an array or None:
    a weight's gradient is added into its array as soon as it is computed
    (dw_in, then dw_rec, then dbias) and None is returned in its place, so
    at most one weight-gradient temporary is alive at a time.

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
            _gemm(da_all[t], w_rec_t, out=dh)
            dc *= gf[t]
    da_flat = da_all.reshape(T * B, 4 * H)
    xs = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(T * B, E)
    g_in, g_rec, g_bias = grads or (None, None, None)
    dw_in = _add_into(g_in, np.dot(xs.T, da_flat))
    if T > 1:
        h_prev = h_all.transpose(1, 0, 2)[:T - 1].reshape((T - 1) * B, H)
        dw_rec = _add_into(g_rec, np.dot(h_prev.T, da_flat[B:]))
    else:
        dw_rec = _add_into(g_rec, np.zeros_like(w_rec))
    dbias = _add_into(g_bias, da_flat.sum(0))
    dx = None
    if need_dx:
        dx = _gemm(da_flat, w_in.T).reshape(T, B, E).transpose(1, 0, 2)
    return dx, dw_in, dw_rec, dbias


# The same two kernels under names that perfbench's tracer does not wrap.
# autodiff.bilstm_last calls them for the direction it runs on the worker
# thread (see noisylab.parallel), since the tracer keeps one stack of spans
# and so must see the main thread only.
_lstm_forward = lstm_forward
_lstm_backward = lstm_backward
