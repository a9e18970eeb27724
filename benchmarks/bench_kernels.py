"""Time the LSTM kernels: the training scan (forward, backward alone and
forward+backward) and the cache-free prediction scan.

Usage: python3 benchmarks/bench_kernels.py

Shapes are (batch, window, embed dim, state size): the bundled-experiment
scale, a mid size and the full-size configuration (300-dim vectors, state
size 300) at training batch sizes, and the two evaluation shapes at
``eval_batch_size=512``.  The prediction scan is timed over the whole
window ("final" pooling, 7 steps) and up to the middle token ("center"
pooling, 4 steps).  The backward is timed on caches computed once.  Each
figure is the median of REPEATS calls with its quartiles in brackets, in
ms: with several BLAS threads on few cores single calls can stall, which
shows as a wide spread between the quartiles.  The BLAS thread setting is printed as
found and never changed.
"""

import os
import time

import numpy as np

from noisylab import kernels

SIZES = (
    (32, 7, 16, 24),
    (64, 7, 50, 100),
    (32, 7, 300, 300),
    (512, 7, 16, 24),
    (512, 7, 300, 300),
)

REPEATS = 15


def make_inputs(rng, b, t, e, h):
    x = rng.standard_normal((b, t, e))
    w_in = rng.standard_normal((e, 4 * h)) / np.sqrt(e)
    w_rec = rng.standard_normal((h, 4 * h)) / np.sqrt(h)
    bias = np.zeros(4 * h)
    return x, w_in, w_rec, bias


def time_ms(fn):
    """'median [q1, q3]' of REPEATS calls of fn, in ms."""
    fn()  # warmup
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    q1, median, q3 = 1e3 * np.percentile(times, [25, 50, 75])
    return f"{median:.3f} [{q1:.3f}, {q3:.3f}]"


COLUMNS = ("fwd", "bwd", "fwd+bwd", "predict 7", "predict 4")


def main():
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')} "
          f"cpus={os.cpu_count()} numpy={np.__version__} dtype=float64")
    rng = np.random.default_rng(0)
    header = f"{'size (B,T,E,H)':>20} " + " ".join(f"{c + ' ms':>26}" for c in COLUMNS)
    print(header)
    print("-" * len(header))
    for size in SIZES:
        x, w_in, w_rec, bias = make_inputs(rng, *size)
        dh = rng.standard_normal((size[0], size[1], size[3]))
        caches = kernels.lstm_forward(x, w_in, w_rec, bias)

        def train_step():
            fresh = kernels.lstm_forward(x, w_in, w_rec, bias)
            kernels.lstm_backward(x, w_in, w_rec, *fresh, dh, True)

        figures = (
            time_ms(lambda: kernels.lstm_forward(x, w_in, w_rec, bias)),
            time_ms(lambda: kernels.lstm_backward(x, w_in, w_rec, *caches, dh, True)),
            time_ms(train_step),
            time_ms(lambda: kernels.lstm_last_hidden(x, w_in, w_rec, bias, 7)),
            time_ms(lambda: kernels.lstm_last_hidden(x, w_in, w_rec, bias, 4)),
        )
        print(f"{str(size):>20} " + " ".join(f"{f:>26}" for f in figures))


if __name__ == "__main__":
    main()
