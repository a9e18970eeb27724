"""Computed operation counts for the fused LSTM kernels.

Figures here come from array shapes, not from measurement: floating-point
operations (a multiply-add counts as two, every elementwise result as one,
a transcendental as one) and bytes of array operands read or written,
counting each operand once per time step that touches it.  The traced run
uses them to turn kernel calls into GFLOP and MB; run as a script, this
prints them for the kernel-benchmark shapes and each workload's batches:

    python3 perfbench/opcount.py
"""

# (batch, window, embedding dim, state size) timed by the repository's
# standalone kernel benchmark
KERNEL_BENCH_SHAPES = (
    (32, 7, 16, 24),
    (64, 7, 50, 100),
    (32, 7, 300, 300),
)


def lstm_forward_cost(b, t, e, h, itemsize=8):
    """(flop, bytes) of one forward scan over a (b, t, e) input."""
    gemm = 2 * b * 4 * h * (e + h)
    elementwise = 2 * b * 4 * h + 26 * b * h  # bias and sum, gates, cell, output
    reads = b * e + 2 * b * h + 4 * h * (e + h + 1)
    writes = b * 4 * h + 3 * b * h  # gate, cell, tanh(cell) and state caches
    return t * (gemm + elementwise), t * (reads + writes) * itemsize


def lstm_backward_cost(b, t, e, h, itemsize=8, need_dx=True):
    """(flop, bytes) of one backward scan; ``need_dx`` adds the input gradient."""
    gemm = 2 * b * 4 * h * (e + 2 * h) + (2 * b * 4 * h * e if need_dx else 0)
    elementwise = b * 4 * h + 23 * b * h + 4 * h * (e + h)
    reads = b * 4 * h + 4 * b * h + b * e + 2 * 4 * h * (e + h)
    writes = b * 4 * h + b * h + 4 * h * (e + h) + (b * e if need_dx else 0)
    return t * (gemm + elementwise), t * (reads + writes) * itemsize


def table_rows():
    """(label, shape, fwd GFLOP, fwd MB, bwd GFLOP, bwd MB) per distinct shape."""
    import checkout

    checkout.use_checkout_src()
    import workloads

    shapes = [("kernel bench", s) for s in KERNEL_BENCH_SHAPES]
    for w in workloads.WORKLOADS.values():
        for role, shape in w.batch_shapes():
            shapes.append((f"{w.name} {role}", shape))
    rows = []
    for label, (b, t, e, h) in shapes:
        ff, fb = lstm_forward_cost(b, t, e, h)
        bf, bb = lstm_backward_cost(b, t, e, h, need_dx=False)
        rows.append((label, (b, t, e, h), ff / 1e9, fb / 1e6, bf / 1e9, bb / 1e6))
    return rows


def main():
    print("LSTM kernel cost per call, computed from shapes (float64; backward "
          "without input gradient, as with frozen embeddings)")
    header = (f"{'where':<28} {'(B,T,E,H)':>18} {'fwd GFLOP':>10} {'fwd MB':>8} "
              f"{'bwd GFLOP':>10} {'bwd MB':>8}")
    print(header)
    print("-" * len(header))
    for label, shape, ff, fb, bf, bb in table_rows():
        print(f"{label:<28} {str(shape):>18} {ff:10.5f} {fb:8.3f} {bf:10.5f} {bb:8.3f}")


if __name__ == "__main__":
    main()
