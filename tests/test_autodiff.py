"""Engine-level tests: op gradients against finite differences, loss values
against hand evaluation, and the backward-pass accounting rules."""

from types import SimpleNamespace

import numpy as np
import pytest

import noisylab.autodiff as ad
from noisylab.autodiff import (
    NonFiniteError,
    ShapeMismatch,
    Tensor,
    absolute_error,
    cross_entropy,
    gradient_check,
)


def rand(rng, *shape):
    return rng.standard_normal(shape)


def weighted_scalar(out, rng):
    """Reduce an op output to a scalar with fixed random weights so the
    incoming gradient of the op is non-uniform."""
    w = Tensor(rng.standard_normal(out.shape))
    return ad.reduce_sum(ad.mul(out, w))


class TestOpGradients:
    """Central finite differences agree with every op's backward."""

    def check(self, loss_fn, params, tol=1e-4):
        err = gradient_check(loss_fn, params, h=1e-5)
        assert err < tol, f"gradient error {err}"

    def test_matmul(self):
        rng = np.random.default_rng(0)
        a = Tensor(rand(rng, 3, 4), requires_grad=True)
        b = Tensor(rand(rng, 4, 2), requires_grad=True)
        self.check(lambda: weighted_scalar(ad.matmul(a, b), np.random.default_rng(1)), [a, b])

    def test_add_broadcast(self):
        rng = np.random.default_rng(2)
        a = Tensor(rand(rng, 3, 4), requires_grad=True)
        b = Tensor(rand(rng, 4), requires_grad=True)
        self.check(lambda: weighted_scalar(ad.add(a, b), np.random.default_rng(3)), [a, b])

    def test_mul(self):
        rng = np.random.default_rng(4)
        a = Tensor(rand(rng, 2, 5), requires_grad=True)
        b = Tensor(rand(rng, 2, 5), requires_grad=True)
        self.check(lambda: weighted_scalar(ad.mul(a, b), np.random.default_rng(5)), [a, b])

    def test_concat(self):
        rng = np.random.default_rng(6)
        a = Tensor(rand(rng, 2, 3), requires_grad=True)
        b = Tensor(rand(rng, 2, 2), requires_grad=True)
        self.check(
            lambda: weighted_scalar(ad.concat([a, b], axis=1), np.random.default_rng(7)),
            [a, b],
        )

    @pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh, ad.relu, ad.absolute])
    def test_elementwise(self, op):
        rng = np.random.default_rng(8)
        # offset keeps values away from the relu/abs kinks
        x = Tensor(rand(rng, 3, 3) + 0.7, requires_grad=True)
        self.check(lambda: weighted_scalar(op(x), np.random.default_rng(9)), [x])

    def test_softmax(self):
        rng = np.random.default_rng(10)
        x = Tensor(rand(rng, 3, 4), requires_grad=True)
        self.check(lambda: weighted_scalar(ad.softmax(x), np.random.default_rng(11)), [x])

    def test_log(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.uniform(0.5, 2.0, (2, 4)), requires_grad=True)
        self.check(lambda: weighted_scalar(ad.log(x), np.random.default_rng(13)), [x])

    def test_reduce_sum_axis(self):
        rng = np.random.default_rng(14)
        x = Tensor(rand(rng, 3, 4), requires_grad=True)
        self.check(
            lambda: weighted_scalar(ad.reduce_sum(x, axis=0), np.random.default_rng(15)),
            [x],
        )

    def test_take_per_row(self):
        rng = np.random.default_rng(16)
        x = Tensor(rand(rng, 4, 3), requires_grad=True)
        idx = np.array([0, 2, 1, 2])
        self.check(
            lambda: weighted_scalar(ad.take_per_row(x, idx), np.random.default_rng(17)),
            [x],
        )

    def test_take_time(self):
        rng = np.random.default_rng(18)
        x = Tensor(rand(rng, 2, 5, 3), requires_grad=True)
        self.check(
            lambda: weighted_scalar(ad.take_time(x, 2), np.random.default_rng(19)), [x]
        )

    def test_embedding_lookup(self):
        rng = np.random.default_rng(20)
        table = Tensor(rand(rng, 6, 3), requires_grad=True)
        ids = np.array([[0, 2, 2], [5, 1, 0]])
        self.check(
            lambda: weighted_scalar(ad.embedding_lookup(table, ids), np.random.default_rng(21)),
            [table],
        )

    def test_clip(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.uniform(-2.0, 2.0, (3, 4)), requires_grad=True)
        self.check(
            lambda: weighted_scalar(ad.clip(x, 0.0, 1.0), np.random.default_rng(23)), [x]
        )

    def test_cross_entropy_after_softmax(self):
        rng = np.random.default_rng(24)
        w = Tensor(rand(rng, 4, 3), requires_grad=True)
        x = Tensor(rand(rng, 2, 4))
        targets = np.array([0, 2])
        self.check(
            lambda: cross_entropy(ad.softmax(ad.matmul(x, w)), targets), [w]
        )


class TestBackwardSemantics:
    def test_square_gradient(self):
        w = Tensor(np.array(3.0), requires_grad=True)
        loss = ad.mul(w, w)
        loss.backward()
        assert w.grad == pytest.approx(6.0)

    def test_softmax_sum_has_zero_gradient(self):
        v = Tensor(np.random.default_rng(0).standard_normal(7), requires_grad=True)
        ad.reduce_sum(ad.softmax(v)).backward()
        np.testing.assert_allclose(v.grad, 0.0, atol=1e-12)

    def test_accumulation_is_exactly_double(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 3)))

        def loss():
            return ad.reduce_sum(ad.tanh(ad.matmul(x, w)))

        loss().backward()
        once = w.grad.copy()
        w.zero_grad()
        loss().backward()
        loss().backward()
        np.testing.assert_array_equal(w.grad, 2.0 * once)

    def test_frozen_leaf_grad_stays_zero(self):
        frozen = Tensor(np.ones((2, 2)))
        live = Tensor(np.ones((2, 2)), requires_grad=True)
        ad.reduce_sum(ad.mul(frozen, live)).backward()
        np.testing.assert_array_equal(frozen.grad, 0.0)
        np.testing.assert_array_equal(live.grad, 1.0)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            x = Tensor(rng.standard_normal((3, 4)))
            loss = cross_entropy(ad.softmax(ad.matmul(x, w)), np.array([0, 1, 2]))
            loss.backward()
            return loss.values.copy(), w.grad.copy()

        loss_a, grad_a = run()
        loss_b, grad_b = run()
        np.testing.assert_array_equal(loss_a, loss_b)
        np.testing.assert_array_equal(grad_a, grad_b)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.mul(x, x).backward()

    def test_shape_error_names_op_and_shapes(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((4, 5)))
        with pytest.raises(ShapeMismatch) as err:
            ad.matmul(a, b)
        assert "matmul" in str(err.value)
        assert "(2, 3)" in str(err.value)


class TestNoGrad:
    def test_ops_record_no_parents(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with ad.no_grad():
            out = ad.softmax(ad.add(ad.matmul(Tensor(np.ones((3, 2))), w), 1.0))
        assert out._parents == ()
        assert not out.requires_grad
        np.testing.assert_allclose(out.values, 0.5)
        # a loss built on the output afterwards treats it as a constant
        v = Tensor(np.ones((3, 2)), requires_grad=True)
        ad.reduce_sum(ad.mul(out, v)).backward()
        np.testing.assert_array_equal(v.grad, out.values)
        assert w._grad is None

    def test_values_match_the_recording_mode(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        m = Tensor(rng.standard_normal((3, 2)))
        recorded = ad.relu(ad.matmul(x, m))
        with ad.no_grad():
            plain = ad.relu(ad.matmul(x, m))
        np.testing.assert_array_equal(plain.values, recorded.values)
        assert recorded.requires_grad and recorded._parents

    def test_nested_blocks_restore_the_previous_mode(self):
        assert ad.is_grad_enabled()
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.is_grad_enabled()
            assert not ad.is_grad_enabled()
        assert ad.is_grad_enabled()

    # every op acceptance C1 checks, plus those the losses are built from
    OPS = {
        "matmul": lambda t: ad.matmul(t.a, t.w),
        "add": lambda t: ad.add(t.a, t.b),
        "sub": lambda t: ad.sub(t.a, t.b),
        "mul": lambda t: ad.mul(t.a, t.b),
        "concat": lambda t: ad.concat([t.a, t.b], axis=1),
        "sigmoid": lambda t: ad.sigmoid(t.a),
        "tanh": lambda t: ad.tanh(t.a),
        "relu": lambda t: ad.relu(t.a),
        "softmax": lambda t: ad.softmax(t.a),
        "log": lambda t: ad.log(t.positive),
        "absolute": lambda t: ad.absolute(t.a),
        "clamp_min": lambda t: ad.clamp_min(t.a, 0.0),
        "clip": lambda t: ad.clip(t.a, 0.0, 1.0),
        "sum": lambda t: ad.reduce_sum(t.a, axis=0),
        "embedding_lookup": lambda t: ad.embedding_lookup(t.a, np.array([[0, 2], [1, 1]])),
        "take_per_row": lambda t: ad.take_per_row(t.a, np.array([0, 2, 1])),
        "take_time": lambda t: ad.take_time(t.seq, 1),
        "lstm": lambda t: ad.lstm_sequence(t.seq, t.w_in, t.w_rec, t.bias),
        "bilstm_last": lambda t: ad.bilstm_last(
            t.a, [np.array([[0, 2], [1, 1]]), np.array([[2, 0], [1, 1]])],
            [(t.w_in, t.w_rec, t.bias)] * 2),
        "cross_entropy": lambda t: cross_entropy(ad.softmax(t.a), np.array([0, 1, 3])),
        "cross_entropy_one_row": lambda t: cross_entropy(ad.softmax(t.row), [1]),
    }

    @staticmethod
    def operands(requires_grad):
        rng = np.random.default_rng(4)
        shapes = {"a": (3, 4), "w": (4, 2), "b": (3, 4), "seq": (2, 3, 4),
                  "w_in": (4, 8), "w_rec": (2, 8), "bias": (8,), "row": (1, 8)}
        values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        values["positive"] = np.abs(values["a"]) + 0.5
        return SimpleNamespace(**{name: Tensor(v, requires_grad=requires_grad)
                                  for name, v in values.items()})

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_output_is_a_constant_where_no_gradient_can_reach(self, name):
        op = self.OPS[name]
        recorded = op(self.operands(requires_grad=True))
        assert recorded.requires_grad and recorded._parents and recorded._backward
        with ad.no_grad():
            unrecorded = op(self.operands(requires_grad=True))
        constant = op(self.operands(requires_grad=False))
        for out in (unrecorded, constant):
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward is None
            np.testing.assert_array_equal(out.values, recorded.values)

    def test_mode_restored_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert ad.is_grad_enabled()
        x = Tensor(np.ones(2), requires_grad=True)
        assert ad.mul(x, 2.0)._parents


class TestTensorValues:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_float_input_kept_as_is(self, dtype):
        values = np.arange(3, dtype=dtype)
        assert Tensor(values).values is values

    @pytest.mark.parametrize("values", [
        np.array([-2, 0, 7], dtype=np.int64),
        np.array([1, 200], dtype=np.uint8),
        [3, 4],
        np.array([True, False]),
        True,
    ])
    def test_int_and_bool_become_float64(self, values):
        t = Tensor(values)
        assert t.values.dtype == np.float64
        np.testing.assert_array_equal(t.values, np.asarray(values).astype(np.float64))

    def test_complex_keeps_real_part_as_float64(self):
        values = np.array([1.5 + 2j, -3 - 1j])
        with pytest.warns(np.exceptions.ComplexWarning):
            t = Tensor(values)
        assert t.values.dtype == np.float64
        np.testing.assert_array_equal(t.values, [1.5, -3.0])

    def test_grad_setter_writes_into_existing_buffer(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        buffer = t.grad
        t.grad = np.arange(6)
        assert t.grad is buffer
        np.testing.assert_array_equal(buffer, np.arange(6.0).reshape(2, 3))


class TestSoftmaxProperties:
    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal((4, 6)) * rng.uniform(0.1, 30)
            y = ad.softmax(Tensor(x)).values
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
            assert (y > 0).all()

    def test_overflow_guard(self):
        y = ad.softmax(Tensor(np.array([1000.0, 1001.0, 999.0]))).values
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y.sum(), 1.0, atol=1e-12)


class TestCrossEntropy:
    def test_certain_prediction_is_zero_loss(self):
        loss = cross_entropy(Tensor(np.array([[1.0, 0.0, 0.0]])), [0])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_half_half(self):
        loss = cross_entropy(Tensor(np.array([[0.5, 0.5]])), [0])
        assert loss.item() == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_one_tenth(self):
        loss = cross_entropy(Tensor(np.array([[0.1, 0.9]])), [0])
        assert loss.item() == pytest.approx(2.302585092994046, abs=1e-12)

    def test_zero_probability_is_clamped_and_flagged(self):
        before = cross_entropy.clamp_events
        with pytest.warns(RuntimeWarning):
            loss = cross_entropy(Tensor(np.array([[0.0, 1.0]])), [0])
        assert cross_entropy.clamp_events == before + 1
        assert np.isfinite(loss.values).all()
        assert loss.item() == pytest.approx(-np.log(1e-12))

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.array([[0.5, 0.6]])), [0])

    def test_rejects_target_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.array([[0.5, 0.5]])), [2])

    @pytest.mark.parametrize("predicted, targets", [
        ([0.5, 0.5], 0), ([0.5, 0.5], [0]), ([[0.5, 0.5]], 0), ([[0.5, 0.5]], [0, 1]),
    ], ids=["one-d-row", "one-d-row-list-target", "scalar-target", "too-many-targets"])
    def test_rows_and_targets_must_pair_up(self, predicted, targets):
        with pytest.raises(ShapeMismatch, match="cross_entropy"):
            cross_entropy(Tensor(np.array(predicted)), targets)

    def test_batch_mean(self):
        p = Tensor(np.array([[0.5, 0.5], [0.1, 0.9]]))
        loss = cross_entropy(p, np.array([0, 1]))
        expected = 0.5 * (np.log(2.0) - np.log(0.9))
        assert loss.item() == pytest.approx(expected, abs=1e-12)


class TestAbsoluteError:
    def test_identical_vectors(self):
        v = Tensor(np.array([0.3, 0.7]))
        assert absolute_error(v, Tensor(np.array([0.3, 0.7]))).item() == 0.0

    def test_opposite_onehots(self):
        loss = absolute_error(Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 1.0])))
        assert loss.item() == pytest.approx(2.0)

    def test_partial(self):
        loss = absolute_error(Tensor(np.array([0.2, 0.8])), Tensor(np.array([0.0, 1.0])))
        assert loss.item() == pytest.approx(0.4, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            absolute_error(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_tie_subgradient_is_zero(self):
        x = Tensor(np.array([0.5, 0.2]), requires_grad=True)
        absolute_error(x, Tensor(np.array([0.5, 0.0]))).backward()
        np.testing.assert_array_equal(x.grad, np.array([0.0, 1.0]))


class TestGradientCheck:
    def test_linear_layer_is_essentially_exact(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 4)))
        coeffs = Tensor(rng.standard_normal((2, 3)))

        def loss():
            return ad.reduce_sum(ad.mul(ad.add(ad.matmul(x, w), b), coeffs))

        assert gradient_check(loss, [w, b], h=1e-5) < 1e-7

    def test_constant_expression_is_zero(self):
        w = Tensor(np.array([2.0]), requires_grad=True)
        c = Tensor(np.array([5.0]))
        assert gradient_check(lambda: ad.reduce_sum(ad.mul(c, c)), [w], h=1e-5) == 0.0

    def test_matches_manual_central_differences(self):
        rng = np.random.default_rng(6)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        x = np.array([[0.3, -1.2, 0.7]])

        def loss():
            return cross_entropy(ad.softmax(ad.matmul(Tensor(x), w)), np.array([1]))

        w.zero_grad()
        out = loss()
        out.backward()
        analytic = w.grad.copy()
        h = 1e-5
        manual_worst = 0.0
        flat = w.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss().item()
            flat[i] = orig - h
            down = loss().item()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            a = analytic.reshape(-1)[i]
            manual_worst = max(
                manual_worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            )
        w.zero_grad()
        reported = gradient_check(loss, [w], h=1e-5)
        assert reported == pytest.approx(manual_worst, rel=1e-6)
        assert reported < 1e-4

    def test_h_out_of_range_rejected(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError):
            gradient_check(lambda: ad.mul(w, w), [w], h=1e-2)

    def test_float32_rejected(self):
        w = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            gradient_check(lambda: ad.reduce_sum(ad.mul(w, w)), [w])

    def test_non_finite_loss_raises(self):
        w = Tensor(np.array([np.inf]), requires_grad=True)
        with pytest.raises(NonFiniteError):
            gradient_check(lambda: ad.reduce_sum(ad.mul(w, w)), [w])
