"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Ops build an eager computation graph of :class:`Tensor` nodes; calling
``backward()`` on a scalar root accumulates d(root)/d(leaf) into the
``grad`` of every reachable leaf with ``requires_grad``.  Each backward
pass contributes independently, so two passes without zeroing yield
exactly twice the gradient of one pass.  An op records its parents and
backward rule (:func:`_node`) only where a gradient can reach it: inside
``no_grad()``, or when no input requires a gradient, its output is a
constant.

64-bit floats are the default; 32-bit is available for speed by passing
float32 arrays in (ops preserve the input dtype).
"""

import warnings
from contextlib import contextmanager

import numpy as np

from . import kernels, parallel

DEFAULT_DTYPE = np.float64

LOG_FLOOR = 1e-12

_grad_enabled = True


@contextmanager
def no_grad():
    """Within this block ops record no graph (for prediction)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled():
    return _grad_enabled


class ShapeMismatch(ValueError):
    """An op received operands whose shapes cannot be combined."""


class NonFiniteError(FloatingPointError):
    """A value or gradient stopped being finite."""


class Tensor:
    """Dense array with a gradient slot and an optional graph history."""

    # the optim.ParameterPack whose buffers hold this tensor's values and
    # gradient, once an optimizer has packed it
    _pack = None
    # graph history, set by _node on an op's output
    _parents = ()
    _backward = None
    _op = "leaf"

    def __init__(self, values, requires_grad=False):
        values = np.asarray(values)
        if values.dtype.kind != "f":
            values = values.astype(DEFAULT_DTYPE)
        self.values = values
        self.requires_grad = bool(requires_grad)
        self._grad = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def grad(self):
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    @grad.setter
    def grad(self, value):
        # written into the existing buffer, which may be a view into a pack
        self.grad[...] = np.reshape(value, self.values.shape)

    def zero_grad(self):
        if self._grad is not None:
            self._grad[...] = 0.0

    def item(self):
        return float(self.values)

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable parameter's grad."""
        if self.values.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        flows = {id(self): np.ones_like(self.values)}
        for node in reversed(topo):
            g = flows.pop(id(node), None)
            if g is None:
                continue
            if node._parents:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None or not parent.requires_grad:
                        continue
                    acc = flows.get(id(parent))
                    flows[id(parent)] = pg if acc is None else acc + pg
            elif node.requires_grad:
                grad = node.grad
                np.add(grad, np.reshape(g, grad.shape), out=grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"


def _node(op, values, parents, backward):
    """An op's output.  Only when grad mode is on and some parent requires a
    gradient does it record ``parents`` and ``backward`` (a function from
    the output's gradient to one gradient per parent, None to skip one);
    otherwise it is a constant that ``backward`` never reaches."""
    out = Tensor(values)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        out._op = op
    return out


def _as_tensor(x, ref=None):
    """``x`` as a Tensor; a plain scalar operand of a binary op follows the
    other operand ``ref``'s dtype, so float32 graphs stay float32."""
    if isinstance(x, Tensor):
        return x
    if ref is not None and np.isscalar(x):
        x = np.asarray(x, dtype=ref.values.dtype)
    return Tensor(x)


def _unbroadcast(g, shape):
    """Sum g down to ``shape`` (the inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _operands(op, a, b):
    """Both operands of an elementwise op as Tensors of broadcastable shapes."""
    if isinstance(a, Tensor):
        b = _as_tensor(b, a)
    else:
        b = _as_tensor(b)
        a = _as_tensor(a, b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatch(f"{op}: cannot combine shapes {a.shape} and {b.shape}") from None
    return a, b


def add(a, b):
    a, b = _operands("add", a, b)
    return _node("add", a.values + b.values, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b):
    a, b = _operands("sub", a, b)
    return _node("sub", a.values - b.values, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b):
    a, b = _operands("mul", a, b)
    return _node("mul", a.values * b.values, (a, b), lambda g: (
        _unbroadcast(g * b.values, a.shape),
        _unbroadcast(g * a.values, b.shape),
    ))


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    return _node("matmul", a.values @ b.values, (a, b),
                 lambda g: (g @ b.values.T, a.values.T @ g))


def concat(tensors, axis=-1):
    tensors = tuple(_as_tensor(t) for t in tensors)
    ref = tensors[0].values
    for t in tensors[1:]:
        if t.values.ndim != ref.ndim:
            raise ShapeMismatch(
                f"concat: ranks differ, {ref.shape} vs {t.shape}"
            )
    try:
        values = np.concatenate([t.values for t in tensors], axis=axis)
    except ValueError:
        raise ShapeMismatch(
            f"concat: shapes {[t.shape for t in tensors]} on axis {axis}"
        ) from None
    sizes = [t.values.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _node("concat", values, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))


def sigmoid(x):
    x = _as_tensor(x)
    y = 1.0 / (1.0 + np.exp(-x.values))
    return _node("sigmoid", y, (x,), lambda g: (g * y * (1.0 - y),))


def tanh(x):
    x = _as_tensor(x)
    y = np.tanh(x.values)
    return _node("tanh", y, (x,), lambda g: (g * (1.0 - y * y),))


def relu(x):
    x = _as_tensor(x)
    return _node("relu", np.maximum(x.values, 0.0), (x,), lambda g: (g * (x.values > 0.0),))


def softmax(x, axis=-1):
    """Softmax along ``axis``, computed with max subtraction."""
    x = _as_tensor(x)
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def _back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _node("softmax", y, (x,), _back)


def log(x):
    x = _as_tensor(x)
    return _node("log", np.log(x.values), (x,), lambda g: (g / x.values,))


def absolute(x):
    x = _as_tensor(x)
    # subgradient at 0 is 0, which np.sign provides
    return _node("abs", np.abs(x.values), (x,), lambda g: (g * np.sign(x.values),))


def clamp_min(x, floor):
    x = _as_tensor(x)
    return _node("clamp_min", np.maximum(x.values, floor), (x,),
                 lambda g: (g * (x.values > floor),))


def clip(x, lo, hi):
    x = _as_tensor(x)
    return _node("clip", np.clip(x.values, lo, hi), (x,),
                 lambda g: (g * ((x.values > lo) & (x.values < hi)),))


def reduce_sum(x, axis=None, keepdims=False):
    x = _as_tensor(x)

    def _back(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _node("sum", x.values.sum(axis=axis, keepdims=keepdims), (x,), _back)


def take_per_row(x, idx):
    """Select one column per row: out[b] = x[b, idx[b]]."""
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    if x.values.ndim != 2 or idx.ndim != 1 or idx.shape[0] != x.shape[0]:
        raise ShapeMismatch(f"take_per_row: {x.shape} with index shape {idx.shape}")
    rows = np.arange(x.shape[0])

    def _back(g):
        dx = np.zeros_like(x.values)
        np.add.at(dx, (rows, idx), g)
        return (dx,)

    return _node("take_per_row", x.values[rows, idx], (x,), _back)


def take_time(x, t):
    """Select one step from a (B, T, H) sequence: out = x[:, t, :]."""
    x = _as_tensor(x)
    if x.values.ndim != 3:
        raise ShapeMismatch(f"take_time: expected rank 3, got {x.shape}")

    def _back(g):
        dx = np.zeros_like(x.values)
        dx[:, t, :] = g
        return (dx,)

    return _node("take_time", x.values[:, t, :].copy(), (x,), _back)


def embedding_lookup(table, ids):
    """Gather rows of a (V, E) table; output shape is ids.shape + (E,)."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.values.ndim != 2:
        raise ShapeMismatch(f"embedding_lookup: table shape {table.shape}")

    def _back(g):
        dt = np.zeros_like(table.values)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (dt,)

    return _node("embedding_lookup", table.values[ids], (table,), _back)


def _check_lstm(op, x, w_in, w_rec, bias):
    if x.ndim != 3 or x.shape[2] != w_in.shape[0]:
        raise ShapeMismatch(f"{op}: input {x.shape} with w_in {w_in.shape}")
    if w_in.shape[1] != 4 * w_rec.shape[0] or w_rec.shape[1] != w_in.shape[1]:
        raise ShapeMismatch(f"{op}: w_in {w_in.shape} with w_rec {w_rec.shape}")
    if bias.ndim != 1 or bias.shape[0] != w_in.shape[1]:
        raise ShapeMismatch(f"{op}: bias {bias.shape} with w_in {w_in.shape}")


def lstm_sequence(x, w_in, w_rec, bias):
    """Fused LSTM scan over x (B, T, E), left to right, returning all hidden
    states (B, T, H).  The heavy lifting happens in :mod:`noisylab.kernels`.
    """
    x, w_in, w_rec, bias = map(_as_tensor, (x, w_in, w_rec, bias))
    _check_lstm("lstm_sequence", x.values, w_in.values, w_rec.values, bias.values)
    xv = np.ascontiguousarray(x.values)
    h_all, c_all, tc_all, gates = kernels.lstm_forward(
        xv, w_in.values, w_rec.values, bias.values
    )

    def _back(g):
        return kernels.lstm_backward(
            xv, w_in.values, w_rec.values, h_all, c_all, tc_all, gates,
            np.ascontiguousarray(g, dtype=xv.dtype), x.requires_grad,
        )

    return _node("lstm", np.ascontiguousarray(h_all), (x, w_in, w_rec, bias), _back)


def bilstm_last(table, scans, directions):
    """Last hidden states of two LSTM scans, concatenated: (B, 2H).

    Scan i reads the rows ``table[scans[i]]`` ((B, T) ids) left to right
    with ``directions[i]`` = (w_in, w_rec, bias).  The value and every
    gradient equal, bit for bit, those of ``concat`` over the two
    ``take_time(lstm_sequence(embedding_lookup(table, ids), ...), T - 1)``.
    As one op, its forward and its backward pass can run the two scans,
    independent until here, at once: the second on the worker thread where
    :func:`noisylab.parallel.concurrent` allows it for B x 4H.
    """
    table = _as_tensor(table)
    weights = [tuple(map(_as_tensor, w)) for w in directions]
    ids = [np.asarray(s, dtype=np.int64) for s in scans]
    if len(ids) != 2 or ids[0].ndim != 2 or ids[0].shape != ids[1].shape:
        raise ShapeMismatch(f"bilstm_last: scans of shapes {[s.shape for s in ids]}")
    xs = [table.values[s] for s in ids]
    for x, (w_in, w_rec, bias) in zip(xs, weights):
        _check_lstm("bilstm_last", x, w_in.values, w_rec.values, bias.values)
    B, T, E = xs[0].shape
    H = weights[0][1].shape[0]
    at_once = parallel.concurrent(B, 4 * H)
    # the second scan's kernels when it runs on the worker
    fwd = kernels._lstm_forward if at_once else kernels.lstm_forward
    bwd = kernels._lstm_backward if at_once else kernels.lstm_backward
    caches = parallel.both(
        lambda: kernels.lstm_forward(xs[0], *(w.values for w in weights[0])),
        lambda: fwd(xs[1], *(w.values for w in weights[1])), at_once)

    def _back(g):
        def direction(i, kernel):
            (w_in, w_rec, _), x = weights[i], xs[i]
            dh_all = np.zeros((B, T, H), x.dtype)
            dh_all[:, -1] = g[:, i * H:(i + 1) * H]
            dx, *dw = kernel(x, w_in.values, w_rec.values, *caches[i], dh_all,
                             table.requires_grad)
            dt = None
            if dx is not None:
                dt = np.zeros_like(table.values)
                np.add.at(dt, ids[i].reshape(-1), dx.reshape(-1, E))
            return dt, dw

        (dt0, dw0), (dt1, dw1) = parallel.both(
            lambda: direction(0, kernels.lstm_backward), lambda: direction(1, bwd), at_once)
        return (None if dt0 is None else dt0 + dt1, *dw0, *dw1)

    out = np.concatenate([h_all[:, -1] for h_all, *_ in caches], axis=1)
    return _node("bilstm_last", out, (table, *weights[0], *weights[1]), _back)


def cross_entropy(predicted, targets):
    """Mean negative log probability of the target classes.

    ``predicted`` holds one probability distribution per row (summing to 1
    within 1e-9); ``targets`` holds one class index per row.  Probabilities
    below 1e-12 are clamped before the log, and each clamping event is
    counted on ``cross_entropy.clamp_events`` and reported as a
    RuntimeWarning.
    """
    p = _as_tensor(predicted)
    targets = np.asarray(targets, dtype=np.int64)
    if p.values.ndim != 2 or targets.shape != p.shape[:1]:
        raise ShapeMismatch(f"cross_entropy: {p.shape} with targets {targets.shape}")
    n, k = p.shape
    sums = p.values.sum(axis=1)
    # 1e-9 in 64-bit mode; 32-bit rounding needs the looser bound
    tol = 1e-9 if p.values.dtype == np.float64 else 1e-5
    if np.abs(sums - 1.0).max() > tol:
        raise ValueError("cross_entropy: rows are not probability distributions")
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError(f"cross_entropy: target out of range for {k} classes")
    picked = take_per_row(p, targets)
    clamped = int((picked.values < LOG_FLOOR).sum())
    if clamped:
        cross_entropy.clamp_events += clamped
        warnings.warn(
            f"cross_entropy clamped {clamped} probabilities at {LOG_FLOOR}",
            RuntimeWarning,
            stacklevel=2,
        )
    return mul(reduce_sum(log(clamp_min(picked, LOG_FLOOR))), -1.0 / n)


cross_entropy.clamp_events = 0


def absolute_error(predicted, target):
    """Sum of componentwise absolute differences (over all elements)."""
    predicted, target = _as_tensor(predicted), _as_tensor(target)
    if predicted.shape != target.shape:
        raise ShapeMismatch(f"absolute_error: {predicted.shape} vs {target.shape}")
    return reduce_sum(absolute(sub(predicted, target)))


def gradient_check(loss_fn, params, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` rebuilds the scalar loss from the current parameter values;
    ``params`` is a Tensor or list of Tensors whose gradients are checked.
    Runs in 64-bit only.  Gradients of the checked parameters are zeroed
    before and after.
    """
    if not 1e-6 <= h <= 1e-4:
        raise ValueError(f"gradient_check: h={h} outside [1e-6, 1e-4]")
    if isinstance(params, Tensor):
        params = [params]
    for p in params:
        if p.values.dtype != np.float64:
            raise ValueError("gradient_check requires 64-bit parameters")
        p.zero_grad()
    loss = loss_fn()
    if not np.isfinite(loss.values).all():
        raise NonFiniteError("gradient_check: loss is not finite")
    loss.backward()
    analytic = [p.grad.copy() for p in params]
    if any(not np.isfinite(a).all() for a in analytic):
        raise NonFiniteError("gradient_check: analytic gradient is not finite")
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().values)
            flat[i] = orig - h
            down = float(loss_fn().values)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NonFiniteError("gradient_check: perturbed loss is not finite")
            numeric = (up - down) / (2.0 * h)
            ana = a.reshape(-1)[i]
            err = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-12)
            worst = max(worst, err)
    for p in params:
        p.zero_grad()
    return worst
