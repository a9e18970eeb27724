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
        w.grad[...] = w.grad + 1.0
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


def test_reset_steps_on_as_a_new_optimizer_would():
    rng = np.random.default_rng(3)
    start = [rng.standard_normal((2, 3)), rng.standard_normal(5)]
    grads = [[rng.standard_normal(s.shape) for _ in range(4)] for s in start]
    params = [Tensor(s.copy(), requires_grad=True) for s in start]
    opt = Adam(params, lr=0.01)
    for step in range(2):
        for p, g in zip(params, grads):
            p.grad[...] = g[step]
        opt.step()
    opt.reset()
    assert opt.step_count == 0
    assert not opt._m.any() and not opt._v.any()
    # a new optimizer over copies of the reset parameters, for the next steps
    copies = [Tensor(p.values.copy(), requires_grad=True) for p in params]
    fresh = Adam(copies, lr=0.01)
    for step in range(2, 4):
        for p, c, g in zip(params, copies, grads):
            p.grad[...] = g[step]
            c.grad[...] = g[step]
        opt.step()
        fresh.step()
    assert opt.step_count == fresh.step_count == 2
    for p, c in zip(params, copies):
        np.testing.assert_array_equal(p.values, c.values)


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
    w.grad[...] = w.grad + np.nan
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
    params = [Tensor(s.copy(order="K"), requires_grad=True) for s in start]
    assert params[2].values.flags.f_contiguous and not params[2].values.flags.c_contiguous
    opt = Adam(params, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
    for step in range(20):
        for p, g in zip(params, grads):
            p.grad[...] = g[step].copy()
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
    b.grad[...] = np.full((2, 3), np.inf)
    with pytest.raises(NonFiniteError, match=r"parameter 1 of shape \(2, 3\) at step 2"):
        opt.step()


def test_packing_keeps_values_shapes_and_memory_order():
    start = [np.arange(6.0).reshape(2, 3), np.asfortranarray(np.arange(12.0).reshape(3, 4)),
             np.array(5.0)]
    params = [Tensor(s.copy(order="K"), requires_grad=True) for s in start]
    assert params[1].values.flags.f_contiguous
    params[1].grad[...] = np.ones((3, 4))
    opt = Adam(params)
    for p, s in zip(params, start):
        assert p.values.base is opt.pack.values
        assert p.grad.base is opt.pack.grads
        np.testing.assert_array_equal(p.values, s)
    assert params[1].values.flags.f_contiguous and params[1].grad.flags.f_contiguous
    np.testing.assert_array_equal(params[1].grad, 1.0)
    np.testing.assert_array_equal(opt.pack.grads[:6], 0.0)


def test_grad_buffer_is_a_view_into_the_pack():
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    opt = Adam([w])
    w.grad[...] = np.full((2, 2), 3.0)
    np.testing.assert_array_equal(opt.pack.grads, 3.0)
    ad.reduce_sum(ad.mul(w, w)).backward()
    np.testing.assert_array_equal(opt.pack.grads, 3.0)  # d(w*w)/dw = 0 at w = 0


def test_second_optimizer_over_the_same_parameters_raises():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(4), requires_grad=True)
    first = Adam([a, b], lr=0.1)
    with pytest.raises(ValueError, match=r"parameter 0 of shape \(2, 3\) is already packed"):
        Adam([a, b], lr=0.1)
    # the first optimizer still owns and updates both parameters
    a.grad[...] = np.ones((2, 3))
    b.grad[...] = np.ones(4)
    first.step()
    np.testing.assert_allclose(a.values, 0.9, rtol=1e-6)
    np.testing.assert_allclose(b.values, 0.9, rtol=1e-6)
    assert a.values.base is first.pack.values and b.values.base is first.pack.values


@pytest.mark.parametrize("other", [
    lambda a, b, c: [a],
    lambda a, b, c: [b, a],
    lambda a, b, c: [a, b, c],
    lambda a, b, c: [c, b],
    lambda a, b, c: [a, b],
])
def test_packing_a_parameter_of_another_pack_raises(other):
    a, b, c = (Tensor(np.zeros(3), requires_grad=True) for _ in range(3))
    first = Adam([a, b])
    with pytest.raises(ValueError, match="already packed"):
        Adam(other(a, b, c))
    assert a.values.base is first.pack.values and b.values.base is first.pack.values
    assert c._pack is None


def test_parameter_listed_twice_rejected():
    a = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError, match="listed twice"):
        Adam([a, a])


def test_non_finite_gradient_raises_before_any_write():
    rng = np.random.default_rng(1)
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in ((3, 2), (4,), (2, 5))]
    opt = Adam(params)
    for p in params:
        p.grad[...] = rng.standard_normal(p.shape)
    opt.step()
    for p in params:
        p.grad[...] = rng.standard_normal(p.shape)
    params[2].grad[1, 3] = np.nan
    values = opt.pack.values.copy()
    grads = opt.pack.grads.copy()
    moments = opt._m.copy(), opt._v.copy()
    with pytest.raises(NonFiniteError, match=r"parameter 2 of shape \(2, 5\) at step 2"):
        opt.step()
    assert opt.step_count == 1
    for now, before in ((opt.pack.values, values), (opt.pack.grads, grads),
                        (opt._m, moments[0]), (opt._v, moments[1])):
        assert now.tobytes() == before.tobytes()


def test_finite_gradients_whose_sum_overflows_still_step():
    g = np.array([1e308, 1e308, -1.0])
    w = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([w], lr=0.1)
    w.grad[...] = g
    with np.errstate(over="ignore"):
        opt.step()
        want = textbook_adam(np.zeros(3), [g], lr=0.1)
    np.testing.assert_array_equal(w.values, want)
    assert want[2] == pytest.approx(0.1)


def test_empty_parameter_list_steps_as_a_no_op():
    opt = Adam([])
    opt.step()
    opt.step()
    assert opt.step_count == 2
    assert opt.pack.values.size == 0


def test_mixed_dtypes_rejected():
    a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError, match="mixed dtypes float32, float64"):
        Adam([a, b])
    assert a._pack is None and b._pack is None


def test_blocks_cover_a_parameter_store_larger_than_one_block():
    # sizes straddle block boundaries; the result must still be textbook
    from noisylab.optim import BLOCK
    rng = np.random.default_rng(2)
    start = [rng.standard_normal(BLOCK + 3), rng.standard_normal((7, BLOCK // 7 + 1))]
    grads = [[rng.standard_normal(s.shape) for _ in range(3)] for s in start]
    params = [Tensor(s.copy(), requires_grad=True) for s in start]
    opt = Adam(params, lr=0.01)
    for step in range(3):
        for p, g in zip(params, grads):
            p.grad[...] = g[step]
        opt.step()
        assert not opt.pack.grads.any()
    for p, s, g in zip(params, start, grads):
        np.testing.assert_array_equal(p.values, textbook_adam(s, g, lr=0.01))
