"""Adam optimizer with bias correction."""

import numpy as np

from .autodiff import NonFiniteError


class Adam:
    """Standard Adam over a list of parameter tensors.

    Holds per-parameter first and second moments and a shared step count.
    ``step()`` applies one update and zeroes the gradients afterward.
    """

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.values) for p in self.params]
        self.second_moment = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        """One update of every parameter, computed in place.

        The operations and their order are those of the textbook update, so
        the result is bit-identical to it.  Each parameter's update goes
        through one scratch array made for it and the gradient itself,
        which is zeroed at the end anyway; no scratch outlives the step.
        """
        self.step_count += 1
        t = self.step_count
        for i, (p, m, v) in enumerate(zip(self.params, self.first_moment, self.second_moment)):
            g = p.grad
            if not np.isfinite(g).all():
                raise NonFiniteError(
                    f"Adam: non-finite gradient in parameter {i} of shape {g.shape} "
                    f"at step {t}")
            tmp = np.empty_like(g)
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
            p.values -= tmp
            p.zero_grad()
