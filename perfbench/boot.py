"""Process set-up shared by the benchmark's entry points.

Only the standard library is imported here: ``pin_threads`` must run before
numpy is first imported for the thread setting to take effect.
"""

from __future__ import annotations

import importlib
import os
import sys

# One BLAS thread per process. The model's matrices are small (at most
# 272 x 272), and a threaded BLAS on a shared 2-core machine made
# coupled-attention steps about six times slower and far noisier.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STPOSE_MODULES = ("train", "synth", "checkpoint", "optim", "config")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed step)."""


def pin_threads(env=os.environ) -> None:
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)


def import_stpose(root: str):
    """Import the stpose package from ``<root>/src`` and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    init = os.path.join(src, "stpose", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no stpose sources at {init}; run the benchmark "
                         "from the root of a repository checkout")
    sys.path.insert(0, src)
    package = importlib.import_module("stpose")
    if os.path.abspath(package.__file__) != init:
        raise BenchError(f"imported stpose from {package.__file__}, "
                         f"expected {init}")
    for name in STPOSE_MODULES:
        importlib.import_module(f"stpose.{name}")
    return package
