"""Locate the checkout the benchmark runs in and import noisylab from its
``src/`` tree, never from an installed copy."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


class CheckoutError(RuntimeError):
    """The checkout does not hold the program's sources."""


def use_checkout_src():
    """Put ``src/`` first on the import path and import noisylab from it."""
    package = os.path.join(SRC, "noisylab", "__init__.py")
    if not os.path.isfile(package):
        raise CheckoutError(f"no noisylab sources at {package}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import noisylab

    found = os.path.dirname(os.path.abspath(noisylab.__file__))
    if found != os.path.join(SRC, "noisylab"):
        raise CheckoutError(f"noisylab imported from {found}, not from {SRC}")
    return noisylab


def git_commit():
    """Commit of the checkout read from ``.git`` files, or None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None
