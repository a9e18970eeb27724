"""Time the LSTM kernels: the training scan (forward, backward alone and
forward+backward) and the cache-free prediction scan; then one Adam step.

Usage: python3 benchmarks/bench_kernels.py

Shapes are (batch, window, embed dim, state size): the bundled-experiment
scale, a mid size and the full-size configuration (300-dim vectors, state
size 300) at training batch sizes, and the two evaluation shapes at
``eval_batch_size=512``.  The training columns run on random inputs.  The
prediction scan reads real windows, because what it saves depends on how
many tokens and prefixes the windows share: the first ``batch`` distinct
windows of a ``toydata.generate_splits`` dev split, in the sorted order in
which ``WindowClassifier.predict`` scores them, over a random embedding
table.  It is timed over the whole window ("final" pooling, 7 steps) and
up to the middle token ("center" pooling, 4 steps), both in the forward
direction, in two columns each: building the prefix plan of those ids
(``kernels.prefix_plan``, which ``WindowClassifier.predict`` does once per
trial for dev, and once per prediction for any other split) and the
projection of its distinct tokens plus the scan over the prebuilt plan (the
per-epoch work).  The distinct-token and distinct-prefix counts of that split
are printed first, over the split and within the chunks prediction scans
(half of ``eval_batch_size``).  The backward is timed on caches computed once.  Each
figure is the median of REPEATS calls with its quartiles in brackets, in
ms.  Everything is timed under ``parallel.one_blas_thread()``, as training
and prediction run: unpinned, two OpenBLAS threads on two cores stalled
single calls and put the figures 20-50x off.  The BLAS thread variables are
printed as found, and so is whether the pin took (``parallel.can_pin()``);
where it did not, BLAS runs as found.

The Adam step runs over the classifier's parameters at the acceptance
size (E=16, H=24, dense 16) and the paper's size (E=H=300, dense 100),
with the same random gradients written into the gradient buffers before
each step, outside the timing.  Next to its time it prints the minor page
faults per step, read with ``resource.getrusage`` on this process around
each step.
"""

import os
import resource
import sys
import time

import numpy as np

# the checkout's own package, whether or not one is installed
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from noisylab import kernels, parallel
from noisylab.data import corpus_windows
from noisylab.embeddings import Vocabulary
from noisylab.model import WindowClassifier
from noisylab.optim import Adam
from noisylab.toydata import generate_splits

SIZES = (
    (32, 7, 16, 24),
    (64, 7, 50, 100),
    (32, 7, 300, 300),
    (512, 7, 16, 24),
    (512, 7, 300, 300),
)

# (embed dim, state size, dense size) of the classifier whose parameters
# one Adam step updates
ADAM_SIZES = (
    (16, 24, 16),
    (300, 300, 100),
)

REPEATS = 15
ADAM_STEPS = 60
SPLIT_SEED = 9
EVAL_BATCH = 512


def make_inputs(rng, b, t, e, h):
    x = rng.standard_normal((b, t, e))
    w_in = rng.standard_normal((e, 4 * h)) / np.sqrt(e)
    w_rec = rng.standard_normal((h, 4 * h)) / np.sqrt(h)
    bias = np.zeros(4 * h)
    return x, w_in, w_rec, bias


def dev_windows(seed):
    """Distinct windows (sorted, as ``WindowClassifier.predict`` scores them) of the
    toy dev split for ``seed``, the split's window count, and its vocab size."""
    dev = generate_splits(seed)[1]
    vocab = Vocabulary(sorted(set(dev.all_tokens())))
    ids = corpus_windows(dev, vocab, "dev").token_ids
    return np.unique(ids, axis=0), ids.shape[0], vocab.size


def distinct_prefixes(rows):
    """Distinct prefixes of lengths 1..T of ``rows``."""
    return sum(len(np.unique(rows[:, :t], axis=0)) for t in range(1, rows.shape[1] + 1))


def report_sharing(rows, n_windows):
    chunk = EVAL_BATCH // 2  # the chunk WindowClassifier.infer scans
    chunks = [rows[s:s + chunk] for s in range(0, len(rows), chunk)]
    print(f"dev split (toydata seed {SPLIT_SEED}): {n_windows} windows, "
          f"{len(rows)} distinct, {len(np.unique(rows))} distinct tokens")
    print(f"  cell steps per direction at 7 steps: {rows.size} one per token "
          f"position; {distinct_prefixes(rows)} distinct prefixes, "
          f"{distinct_prefixes(rows[:, ::-1])} distinct suffixes over the split; "
          f"{sum(distinct_prefixes(c) for c in chunks)} prefixes, "
          f"{sum(distinct_prefixes(c[:, ::-1]) for c in chunks)} suffixes "
          f"within its {len(chunks)} chunks of {chunk}")


def predict(table, plan, w_in, w_rec, bias):
    """The prediction scan of a one-chunk plan, from the projection of its
    distinct tokens."""
    proj = kernels.project(table.take(plan.tokens, axis=0), w_in, bias)
    return kernels.lstm_last_hidden(proj, plan.chunks[0], w_rec)


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


def time_adam_step(rng, e, h, dense):
    """'median [q1, q3]' ms of ADAM_STEPS Adam steps over the classifier's
    parameters, the minor page faults per step, and the parameter count."""
    model = WindowClassifier(rng.standard_normal((10, e)), k=5, hidden_size=h,
                             dense_size=dense)
    params = model.parameters()
    opt = Adam(params)
    grads = [rng.standard_normal(p.shape) for p in params]
    times = []
    faults = 0
    for step in range(ADAM_STEPS + 1):
        for p, g in zip(params, grads):
            p.grad[...] = g
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        opt.step()
        elapsed = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if step:  # the first step is warmup
            times.append(elapsed)
            faults += after - before
    q1, median, q3 = 1e3 * np.percentile(times, [25, 50, 75])
    n_params = sum(p.values.size for p in params)
    return f"{median:.3f} [{q1:.3f}, {q3:.3f}]", faults / ADAM_STEPS, n_params


COLUMNS = ("fwd", "bwd", "fwd+bwd", "plan 7", "predict 7", "plan 4", "predict 4")


def main():
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')} "
          f"cpus={os.cpu_count()} numpy={np.__version__} dtype=float64")
    print(f"BLAS pinned to one thread: {'yes' if parallel.can_pin() else 'no'}")
    with parallel.one_blas_thread():
        time_all()


def time_all():
    """Print the sharing report, the kernel table and the Adam table."""
    rows, n_windows, vocab_size = dev_windows(SPLIT_SEED)
    report_sharing(rows, n_windows)
    rng = np.random.default_rng(0)
    header = f"{'size (B,T,E,H)':>20} " + " ".join(f"{c + ' ms':>26}" for c in COLUMNS)
    print(header)
    print("-" * len(header))
    for size in SIZES:
        x, w_in, w_rec, bias = make_inputs(rng, *size)
        dh = rng.standard_normal((size[0], size[1], size[3]))
        caches = kernels.lstm_forward(x, w_in, w_rec, bias)
        table = rng.standard_normal((vocab_size, size[2]))
        ids = rows[:size[0]]

        def train_step():
            fresh = kernels.lstm_forward(x, w_in, w_rec, bias)
            kernels.lstm_backward(x, w_in, w_rec, *fresh, dh, True)

        figures = (
            time_ms(lambda: kernels.lstm_forward(x, w_in, w_rec, bias)),
            time_ms(lambda: kernels.lstm_backward(x, w_in, w_rec, *caches, dh, True)),
            time_ms(train_step),
        )
        for steps in (7, 4):
            plan = kernels.prefix_plan(ids, steps)
            figures += (
                time_ms(lambda: kernels.prefix_plan(ids, steps)),
                time_ms(lambda: predict(table, plan, w_in, w_rec, bias)),
            )
        print(f"{str(size):>20} " + " ".join(f"{f:>26}" for f in figures))
    print()
    header = (f"{'Adam (E,H,dense)':>20} {'parameters':>11} {'step ms':>26} "
              f"{'minor faults/step':>18}")
    print(header)
    print("-" * len(header))
    for size in ADAM_SIZES:
        figure, faults, n_params = time_adam_step(rng, *size)
        print(f"{str(size):>20} {n_params:>11} {figure:>26} {faults:>18.1f}")


if __name__ == "__main__":
    main()
