"""The environment block printed with every result."""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np
import scipy

from boot import BLAS_THREADS, THREAD_VARS

RULE = ("one process per workload, workloads run one after another, "
        f"BLAS threads pinned to {BLAS_THREADS} (at most nproc)")


def git_sha(root: str) -> str:
    """HEAD's commit, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    config = " ".join(blas.get("openblas configuration", "").split())
    return f"{blas.get('name', '?')} {blas.get('version', '?')} {config}".strip()


def environment(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "rule": RULE,
    }
