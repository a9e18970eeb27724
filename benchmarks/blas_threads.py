"""Which kernel products change with the OpenBLAS thread count.

Usage:

    python3 benchmarks/blas_threads.py [--threads 1,2] [--out <path>]

For each product of the LSTM kernels and the dense head, at the paper's
sizes (E = H = 300, dense 100) and at the acceptance model's (E = 16,
H = 24, dense 16), a child process per thread count (its
``OPENBLAS_NUM_THREADS``) computes the product on fixed random float64
inputs twice: with BLAS as the child found it ("unpinned"), and inside
``noisylab.parallel.one_blas_thread`` ("pinned", as training and prediction
run).  It prints a SHA-256 prefix of every output.  A product varies in a
mode when its hashes differ across the thread counts.  The result, one
JSON object on stdout (and in ``--out``), lists per mode the products that
vary, and per product and mode the hashes.  Thread counts above the CPUs
this process may use are dropped.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))  # this checkout's noisylab, here and in the children
from noisylab import kernels, parallel  # noqa: E402

SIZES = {"paper": (32, 7, 300, 300, 100, 512), "acceptance": (32, 7, 16, 24, 16, 512)}
MODES = ("unpinned", "pinned")


def digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


def products(b, t, e, h, dense, rows):
    """{name: outputs} of every kernel product on fixed random inputs:
    batch ``b``, ``t`` steps, width ``e``, ``h`` hidden units, a dense layer
    of ``dense`` units, and a prediction scan over ``rows`` windows."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((b, t, e))
    w_in = rng.standard_normal((e, 4 * h)) * 0.1
    w_rec = rng.standard_normal((h, 4 * h)) * 0.1
    bias = rng.standard_normal(4 * h) * 0.1
    caches = kernels.lstm_forward(x, w_in, w_rec, bias)
    dh_all = rng.standard_normal((b, t, h))
    table = rng.standard_normal((50, e))
    plan = kernels.prefix_plan(rng.integers(0, 50, (rows, t)), t)
    feats = rng.standard_normal((b, 2 * h))
    dense_w = rng.standard_normal((2 * h, dense)) * 0.1
    g = rng.standard_normal((b, dense))
    return {
        "lstm_forward": caches,
        "lstm_backward": kernels.lstm_backward(x, w_in, w_rec, *caches, dh_all, True),
        "lstm_last_hidden": (kernels.lstm_last_hidden(table, plan, w_in, w_rec, bias),),
        "dense_forward": (feats @ dense_w,),
        "dense_backward": (g @ dense_w.T, feats.T @ g),
    }


def child():
    """{mode: {size: {product: [hash per output]}}} in this process."""
    def hashes():
        return {size: {name: [digest(o) for o in outs]
                       for name, outs in products(*shape).items()}
                for size, shape in SIZES.items()}

    out = {"unpinned": hashes()}
    with parallel.one_blas_thread():
        out["pinned"] = hashes()
    return out


def run_child(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                          env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def summarize(records):
    """Per mode, the products whose hashes differ across the child records
    ({thread count: child output}), and per product every count's hashes."""
    counts = sorted(records)
    first = records[counts[0]]
    varies = {mode: [] for mode in MODES}
    table = {}
    for mode in MODES:
        for size, names in first[mode].items():
            for name in names:
                key = f"{size}.{name}"
                seen = {n: records[n][mode][size][name] for n in counts}
                table.setdefault(key, {})[mode] = seen
                if len({tuple(h) for h in seen.values()}) > 1:
                    varies[mode].append(key)
    return {"threads": counts, "varies": varies, "hashes": table}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--threads", default="1,2")
    parser.add_argument("--out", default="")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child()))
        return 0
    counts = sorted({int(n) for n in args.threads.split(",") if n.strip()})
    usable = [n for n in counts if 1 <= n <= parallel.cpus()]
    if len(usable) < 2:
        parser.error(f"need two thread counts within this process's {parallel.cpus()} "
                     f"CPUs, got {counts}")
    result = summarize({n: run_child(n) for n in usable})
    result["environment"] = {"machine": platform.machine(), "cpus": parallel.cpus(),
                             "python": platform.python_version(), "numpy": np.__version__,
                             "blas_pinnable": parallel.can_pin()}
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
