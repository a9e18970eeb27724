"""Adam optimizer with bias correction, over one flat parameter store."""

import numpy as np

from . import parallel
from .autodiff import DEFAULT_DTYPE, NonFiniteError

# Elements per block of the update.  One block of the values, gradients,
# both moments and the scratch (five arrays, 1.25 MB in float64) stays in a
# core's L2 cache through all of the update's passes over it.  On the
# paper-size parameters, blocks of 16384 to 65536 took alike; 4096 and one
# pass over the whole vector were slower.
BLOCK = 32768


class ParameterPack:
    """The values and the gradients of a list of same-dtype parameters,
    each held in one contiguous buffer.

    Packing copies each parameter's values, and any gradient it holds, into
    the buffers in list order and rebinds the tensor to views of them, with
    its shape and memory order kept.  The tensors' old arrays are then free.
    A parameter belongs to one pack, so packing it again raises.
    """

    def __init__(self, params):
        dtypes = sorted({p.values.dtype.name for p in params})
        if len(dtypes) > 1:
            raise ValueError(f"Adam: parameters of mixed dtypes {', '.join(dtypes)}")
        dtype = dtypes[0] if dtypes else DEFAULT_DTYPE
        if len({id(p) for p in params}) != len(params):
            raise ValueError("Adam: a parameter is listed twice")
        for i, p in enumerate(params):
            if p._pack is not None:
                raise ValueError(f"Adam: parameter {i} of shape {p.shape} is already packed; "
                                 f"a parameter list takes one optimizer")
        self.offsets = np.cumsum([0] + [p.values.size for p in params])
        self.layout = [
            (int(start), int(stop), p.values.shape,
             "F" if p.values.flags.f_contiguous and not p.values.flags.c_contiguous else "C")
            for start, stop, p in zip(self.offsets, self.offsets[1:], params)
        ]
        self.values = np.empty(self.offsets[-1], dtype=dtype)
        self.grads = np.zeros(self.offsets[-1], dtype=dtype)
        for p, values, grad in zip(params, self.views(self.values), self.views(self.grads)):
            values[...] = p.values
            if p._grad is not None:
                grad[...] = p._grad
            p.values, p._grad, p._pack = values, grad, self

    def views(self, flat):
        """One view of ``flat`` per parameter, laid out as the parameter is."""
        return [flat[start:stop].reshape(shape, order=order)
                for start, stop, shape, order in self.layout]


class Adam:
    """Standard Adam over a list of parameter tensors of one dtype.

    The parameters are packed into one flat store (see ``ParameterPack``).
    ``step()`` applies one update and zeroes the gradients; ``reset()``
    starts the moments and the step count over.
    """

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.pack = ParameterPack(self.params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = np.zeros_like(self.pack.values)
        self._v = np.zeros_like(self.pack.values)
        # one row per worker (see step)
        self._scratch = np.empty((2, min(BLOCK, self._m.size)), dtype=self._m.dtype)

    def reset(self):
        """Zero both moments and the step count, so that the next step is
        the one a new optimizer over the same parameters would take."""
        self._m.fill(0.0)
        self._v.fill(0.0)
        self.step_count = 0

    def step(self):
        """One update of every parameter, computed in place block by block.

        Each element goes through the textbook operations in the textbook
        order, so the result is bit-identical to the plain formula.  The
        store's two halves, split at a block boundary, are checked and then
        updated at once where :func:`noisylab.parallel.concurrent` allows it
        for the smaller half; both halves are checked before either is
        written.
        """
        t = self.step_count + 1
        size = self.pack.grads.size
        blocks = -(-size // BLOCK)
        half = min(size, -(-blocks // 2) * BLOCK)
        at_once = parallel.concurrent(size - half, 1)
        parallel.both(lambda: self._check(0, half, t),
                      lambda: self._check(half, size, t), at_once)
        parallel.both(lambda: self._update(0, half, t, self._scratch[0]),
                      lambda: self._update(half, size, t, self._scratch[1]), at_once)
        self.step_count = t

    def _check(self, start, stop, t):
        """Raise NonFiniteError, naming the parameter, if a gradient of the
        store's elements start:stop is not finite.  A sum of squares is
        finite only if every term is; finite terms can also overflow it, so
        the exact check runs only when it is not finite."""
        grads = self.pack.grads[start:stop]
        with np.errstate(over="ignore", invalid="ignore"):
            square = np.dot(grads, grads)
        if np.isfinite(square):
            return
        bad = np.flatnonzero(~np.isfinite(grads))
        if bad.size:
            i = int(np.searchsorted(self.pack.offsets, start + bad[0], side="right")) - 1
            raise NonFiniteError(
                f"Adam: non-finite gradient in parameter {i} of shape "
                f"{self.params[i].shape} at step {t}")

    def _update(self, start, stop, t, scratch):
        """Step ``t``'s update of the store's elements start:stop, block by
        block, with ``scratch`` as the block's scratch; each block's
        gradient also serves as scratch and is zeroed at the end of it."""
        values, grads = self.pack.values, self.pack.grads
        for begin in range(start, stop, BLOCK):
            block = slice(begin, min(begin + BLOCK, stop))
            p, g, m, v = values[block], grads[block], self._m[block], self._v[block]
            tmp = scratch[:g.size]
            np.multiply(1.0 - self.beta1, g, out=tmp)
            m *= self.beta1
            m += tmp
            np.multiply(1.0 - self.beta2, g, out=tmp)
            tmp *= g
            v *= self.beta2
            v += tmp
            # v_hat, then its root plus eps, go into g; m_hat into tmp
            np.divide(v, 1.0 - self.beta2 ** t, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            np.divide(m, 1.0 - self.beta1 ** t, out=tmp)
            np.multiply(self.lr, tmp, out=tmp)
            tmp /= g
            p -= tmp
            g.fill(0.0)
