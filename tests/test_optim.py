"""Adam optimizer behavior, checked against hand-computed update steps."""

import numpy as np
import pytest

import noisylab.autodiff as ad
from noisylab.autodiff import NonFiniteError, Tensor
from noisylab.optim import Adam


def test_single_step_on_square_loss():
    # g = 2 at w=1; bias-corrected m_hat = 2, v_hat = 4, so the step is
    # lr * 2 / (2 + eps), essentially lr.
    w = Tensor(np.array(1.0), requires_grad=True)
    opt = Adam([w], lr=0.1)
    ad.mul(w, w).backward()
    opt.step()
    assert float(w.values) == pytest.approx(0.9, abs=1e-9)
    assert opt.step_count == 1


def test_zero_gradient_leaves_parameter_unchanged():
    w = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    opt = Adam([w], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(w.values, np.array([1.5, -2.0]))


def test_constant_gradient_moves_by_learning_rate():
    w = Tensor(np.array(0.0), requires_grad=True)
    opt = Adam([w], lr=0.1)
    previous = float(w.values)
    for _ in range(2):
        w.grad = w.grad + 1.0
        opt.step()
        delta = previous - float(w.values)
        assert delta == pytest.approx(0.1, rel=1e-6)
        previous = float(w.values)


def test_step_zeroes_gradients():
    w = Tensor(np.array(1.0), requires_grad=True)
    opt = Adam([w])
    ad.mul(w, w).backward()
    opt.step()
    np.testing.assert_array_equal(w.grad, 0.0)


def test_moment_shapes_match_parameters():
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    b = Tensor(np.zeros(5), requires_grad=True)
    opt = Adam([a, b])
    assert opt.first_moment[0].shape == (2, 3)
    assert opt.second_moment[1].shape == (5,)


def test_step_count_strictly_increases():
    w = Tensor(np.array(1.0), requires_grad=True)
    opt = Adam([w])
    counts = []
    for _ in range(3):
        opt.step()
        counts.append(opt.step_count)
    assert counts == [1, 2, 3]


def test_non_finite_gradient_detected():
    w = Tensor(np.array(1.0), requires_grad=True)
    opt = Adam([w])
    w.grad = w.grad + np.nan
    with pytest.raises(NonFiniteError):
        opt.step()


def test_converges_on_quadratic():
    w = Tensor(np.array(3.0), requires_grad=True)
    opt = Adam([w], lr=0.05)
    for _ in range(500):
        ad.mul(w, w).backward()
        opt.step()
    assert abs(float(w.values)) < 0.05


def textbook_adam(values, grads, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam written out as in Kingma & Ba, one fresh array per operation."""
    m = np.zeros_like(values)
    v = np.zeros_like(values)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        values = values - lr * m_hat / (np.sqrt(v_hat) + eps)
    return values


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bit_identical_to_textbook_update(dtype):
    rng = np.random.default_rng(0)
    start = [rng.standard_normal((4, 3)).astype(dtype), rng.standard_normal(5).astype(dtype),
             np.asfortranarray(rng.standard_normal((3, 4)).astype(dtype))]
    grads = [[rng.standard_normal(s.shape).astype(dtype) for _ in range(20)] for s in start]
    params = [Tensor(s.copy(), requires_grad=True) for s in start]
    opt = Adam(params, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
    for step in range(20):
        for p, g in zip(params, grads):
            p.grad = g[step].copy()
        opt.step()
    for p, s, g in zip(params, start, grads):
        want = textbook_adam(s, g, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
        assert p.values.dtype == dtype
        np.testing.assert_array_equal(p.values, want)


def test_non_finite_message_names_parameter_and_step():
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros((2, 3)), requires_grad=True)
    opt = Adam([a, b])
    opt.step()
    b.grad = np.full((2, 3), np.inf)
    with pytest.raises(NonFiniteError, match=r"parameter 1 of shape \(2, 3\) at step 2"):
        opt.step()
