"""LSTM sequence kernels in plain numpy: the training scan with its
backward pass, and a prediction scan that keeps no caches.

Both scans compute the input projection ``x @ w_in + bias`` for every
step as one GEMM before the time loop, leaving one recurrent GEMM per
step (Appleyard et al., *Optimizing Performance of RNNs on GPUs*,
arXiv 1604.01946), and both advance the cell through ``_cell_step``, so
the LSTM equations are written once.

Gate layout along the last axis of the packed weight matrices is
(input, forget, cell, output), each block of width H.  Internally the
scans work time-major: the projection, the gates and the cell caches are
(T, B, .) so each step reads and writes contiguous (B, .) blocks.
Literal constants go through the input's scalar type so float32 inputs
stay float32.
"""

import numpy as np


def _input_projection(x, w_in, bias, steps):
    """Pre-activations ``x[:, :steps] @ w_in + bias`` as one GEMM, time-major
    (steps, B, 4H)."""
    B, _, E = x.shape
    xs = np.ascontiguousarray(x[:, :steps].transpose(1, 0, 2)).reshape(steps * B, E)
    a = np.dot(xs, w_in)
    a += bias
    return a.reshape(steps, B, -1)


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
    gates = _input_projection(x, w_in, bias, T)
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


def lstm_last_hidden(x, w_in, w_rec, bias, steps):
    """Hidden state (B, H) of the same scan after its first ``steps`` steps.

    For prediction: nothing is cached, and gates are computed in place in
    the projection of the steps actually scanned.
    """
    B, T, _ = x.shape
    if not 1 <= steps <= T:
        raise ValueError(f"steps {steps} outside 1..{T}")
    H = w_rec.shape[0]
    pre = _input_projection(x, w_in, bias, steps)
    c = np.zeros((B, H), x.dtype)
    tc = np.empty((B, H), x.dtype)
    h = np.empty((B, H), x.dtype)
    rec = np.empty((B, 4 * H), x.dtype)
    for t in range(steps):
        a = pre[t]
        if t > 0:
            a += np.dot(h, w_rec, out=rec)
        _cell_step(a, c, c, tc, h)
    return h


def lstm_backward(x, w_in, w_rec, h_all, c_all, tc_all, gates, dh_all, need_dx):
    """Backpropagate dh_all (B, T, H) through the scan of ``lstm_forward``.

    Returns (dx, dw_in, dw_rec, dbias).  dx is all-zero when need_dx is
    False; the caller skips it in that case.
    """
    B, T, E = x.shape
    H = w_rec.shape[0]
    one = x.dtype.type(1)
    h_tm = h_all.transpose(1, 0, 2)
    dw_in = np.zeros_like(w_in)
    dw_rec = np.zeros_like(w_rec)
    dbias = np.zeros(4 * H, x.dtype)
    dx = np.zeros((B, T, E), x.dtype)
    dh_next = np.zeros((B, H), x.dtype)
    dc_next = np.zeros((B, H), x.dtype)
    c_zero = np.zeros((B, H), x.dtype)
    da = np.zeros((B, 4 * H), x.dtype)
    w_in_t = np.ascontiguousarray(w_in.T)
    w_rec_t = np.ascontiguousarray(w_rec.T)
    for t in range(T - 1, -1, -1):
        g = gates[t]
        gi = g[:, :H]
        gf = g[:, H:2 * H]
        gc = g[:, 2 * H:3 * H]
        go = g[:, 3 * H:]
        tc = tc_all[t]
        dh = dh_all[:, t, :] + dh_next
        dc = dc_next + dh * go * (one - tc * tc)
        c_prev = c_all[t - 1] if t > 0 else c_zero
        da[:, :H] = dc * gc * gi * (one - gi)
        da[:, H:2 * H] = dc * c_prev * gf * (one - gf)
        da[:, 2 * H:3 * H] = dc * gi * (one - gc * gc)
        da[:, 3 * H:] = dh * tc * go * (one - go)
        xt = np.ascontiguousarray(x[:, t, :])
        dw_in += np.dot(np.ascontiguousarray(xt.T), da)
        if t > 0:  # the state before the first step is zero
            dw_rec += np.dot(np.ascontiguousarray(h_tm[t - 1].T), da)
        dbias += da.sum(0)
        if need_dx:
            dx[:, t, :] = np.dot(da, w_in_t)
        dh_next = np.dot(da, w_rec_t)
        dc_next = dc * gf
    return dx, dw_in, dw_rec, dbias
