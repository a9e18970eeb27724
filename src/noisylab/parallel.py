"""One OpenBLAS thread per trial, and a second worker of our own.

:func:`one_blas_thread` pins numpy's bundled OpenBLAS to one thread while a
trial or a prediction runs.  A GEMM's rounding can depend on how OpenBLAS
splits it over threads, so with the pin a run's numbers no longer depend on
the machine's core count.  It restores the caller's count on exit.

What the pin costs on a machine with a spare core, :func:`both` wins back:
it runs two independent pieces of work at once, one on the caller and one
on a single worker thread, started on first use.  numpy releases the GIL
inside GEMMs and inside elementwise loops over large arrays, so the two
run in parallel.  The callers (the BiLSTM's two directions, the two halves
of Adam's update) use it only where :func:`concurrent` says so: under the
pin (without it each GEMM's own BLAS threads would compete with the second
worker for the cores), with at least 2 CPUs, and for blocks large enough to
pay for the hand-over.
"""

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import cache

import numpy as np

# Elements of the block one step of the split work updates (rows x 4H of
# the LSTM gates; the smaller half of Adam's store) from which the work
# runs on two workers.  On 2 vCPUs, both directions' training scans (forward
# and backward) at 32 x 4H took alike at 12800 elements and 14-15% less time
# at 25600 and 38400.  The paper-size training step (32 x 1200) and
# prediction chunk (256 x 1200) are above it; the acceptance model's (32 x 96
# and 256 x 96) below, where two workers did not pay.
MIN_BLOCK = 32768

_pins = 0  # open one_blas_thread blocks
_worker = None


@cache
def _blas_threads():
    """(set, get) of the thread count of numpy's bundled OpenBLAS, or None
    where it is not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)  # numpy has loaded it already; this adds a handle
        for suffix in ("64_", ""):
            try:
                set_, get = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}")
                             for op in ("set", "get"))
            except AttributeError:
                continue
            set_.argtypes, set_.restype = [ctypes.c_int], None
            get.argtypes, get.restype = [], ctypes.c_int
            return set_, get
    return None


def can_pin():
    """Whether :func:`one_blas_thread` can set numpy's BLAS thread count."""
    return _blas_threads() is not None


def cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, and restore the
    count found on entry when it ends, also on error.  Where the count
    cannot be set, BLAS is left as found and :func:`concurrent` stays
    False.  The count is process-wide, so blocks may nest but must not
    run at once in two threads."""
    global _pins
    blas = _blas_threads()
    if blas is None:
        yield
        return
    set_, get = blas
    previous = get()
    set_(1)
    _pins += 1
    try:
        yield
    finally:
        _pins -= 1
        set_(previous)


def concurrent(rows, width):
    """Whether work that updates ``rows`` x ``width`` elements per step runs
    on two workers (see the module docstring)."""
    return _pins > 0 and rows * width >= MIN_BLOCK and cpus() >= 2


def both(first, second, at_once=True):
    """``(first(), second())``, with ``second`` run on the worker thread
    while ``first`` runs on the caller's; without ``at_once``, both run on
    the caller's in turn.  The worker has finished before this returns or
    raises."""
    global _worker
    if not at_once:
        return first(), second()
    if _worker is None:
        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="noisylab")
    future = _worker.submit(second)
    try:
        return first(), future.result()
    finally:
        future.exception()  # waits for the worker when first() raised


def each(fn, items, at_once=True):
    """``fn(item)`` for every item.  With ``at_once``, the caller's thread
    and the worker each take the next item not yet taken until none is
    left, so that items of unequal cost even out between them; after an
    error neither takes another.  The worker has finished before this
    returns or raises."""
    items = iter(items)
    if not at_once:
        for item in items:
            fn(item)
        return
    lock = threading.Lock()
    failed = []
    end = object()

    def drain():
        while not failed:
            with lock:
                item = next(items, end)
            if item is end:
                return
            try:
                fn(item)
            except BaseException:
                failed.append(True)
                raise

    both(drain, drain)


def _forget_worker():
    global _worker
    _worker = None  # a forked child has no copy of the worker's thread


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)
