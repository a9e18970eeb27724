"""LSTM kernel checks: the fused forward and the cache-free prediction scan
must match an independently written step-by-step oracle, and the
hand-derived backward must match finite differences."""

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


# (forward steps, backward steps) scanned for the pooled state of a
# 7-token window: "final" pooling reads both directions after the whole
# window, "center" pooling reads both at the middle token
POOLED_STEPS = {"final": (7, 7), "center": (4, 4)}


@pytest.mark.parametrize("pooling", sorted(POOLED_STEPS))
@pytest.mark.parametrize("b", [1, 5])
def test_last_hidden_equals_training_scan_at_pooled_step(pooling, b):
    rng = np.random.default_rng(5)
    x, w_in, w_rec, bias = make_inputs(rng, b=b, t=7, e=4, h=3)
    xr = x[:, ::-1, :]
    for steps, seq in zip(POOLED_STEPS[pooling], (x, xr)):
        h_all = kernels.lstm_forward(np.ascontiguousarray(seq), w_in, w_rec, bias)[0]
        h_last = kernels.lstm_last_hidden(seq, w_in, w_rec, bias, steps)
        assert h_last.shape == (b, 3)
        np.testing.assert_array_equal(h_last, h_all[:, steps - 1, :])


@pytest.mark.parametrize("steps", [1, 4, 7])
def test_last_hidden_matches_straight_line_oracle(steps):
    rng = np.random.default_rng(6)
    x, w_in, w_rec, bias = make_inputs(rng, b=4, t=7, e=5, h=4)
    expected = oracle_forward(x, w_in, w_rec, bias)[:, steps - 1, :]
    got = kernels.lstm_last_hidden(x, w_in, w_rec, bias, steps)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_last_hidden_keeps_float32():
    rng = np.random.default_rng(7)
    x, w_in, w_rec, bias = (a.astype(np.float32) for a in make_inputs(rng, t=7))
    h = kernels.lstm_last_hidden(x, w_in, w_rec, bias, 4)
    assert h.dtype == np.float32
    expected = oracle_forward(*(a.astype(np.float64) for a in (x, w_in, w_rec, bias)))
    np.testing.assert_allclose(h, expected[:, 3, :], atol=1e-5)


@pytest.mark.parametrize("steps", [0, 8])
def test_last_hidden_rejects_steps_outside_window(steps):
    x, w_in, w_rec, bias = make_inputs(np.random.default_rng(8), t=7)
    with pytest.raises(ValueError):
        kernels.lstm_last_hidden(x, w_in, w_rec, bias, steps)


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
    x = Tensor(xv, requires_grad=True)
    w_in = Tensor(w_in_v, requires_grad=True)
    w_rec = Tensor(w_rec_v, requires_grad=True)
    bias = Tensor(bias_v, requires_grad=True)
    coeffs = Tensor(rng.standard_normal((2, 2)))

    def loss():
        h = ad.lstm_sequence(x, w_in, w_rec, bias, reverse=True)
        return ad.reduce_sum(ad.mul(ad.take_time(h, 0), coeffs))

    assert gradient_check(loss, [x, w_in, w_rec, bias], h=1e-5) < 1e-4


def test_reverse_scan_equals_forward_on_reversed_input():
    rng = np.random.default_rng(4)
    x, w_in, w_rec, bias = make_inputs(rng)
    fwd = kernels.lstm_forward(np.ascontiguousarray(x[:, ::-1, :]), w_in, w_rec, bias)[0]
    rev = ad.lstm_sequence(Tensor(x), Tensor(w_in), Tensor(w_rec), Tensor(bias), reverse=True)
    np.testing.assert_allclose(rev.values, fwd[:, ::-1, :], atol=1e-15)


def test_shapes_validated():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ad.ShapeMismatch):
        ad.lstm_sequence(x, Tensor(np.zeros((5, 8))), Tensor(np.zeros((2, 8))), Tensor(np.zeros(8)))
