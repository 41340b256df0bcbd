"""Correctness gate: which steps failed.

A step's output is a tuple of floats: the loss terms of one training step,
or the per-clip metrics of one evaluation pass. A run is the list of its
step outputs, or ``None`` when the run raised.

Two checks apply. Within one invocation every run repeats the same config,
so its outputs must match the first complete run bit for bit ("same
config, same bits"). Against the reference recorded in ``reference.json``,
outputs must agree within ``RTOL``: loose enough to admit the float
reassociation of a batched or fused rewrite (about 1e-15 relative per op),
tight enough that a wrong gradient, which moves the loss of the next step
by far more than 1e-9 relative, fails.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from boot import BenchError

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
REFERENCE_SEED = 0
# replayed steps per workload kind: three optimizer steps let a wrong
# gradient show in the losses of steps two and three
REPLAY_STEPS = {"train": 3, "eval": 1}
RTOL = 1e-9
# values smaller than this are compared on an absolute scale of RTOL * FLOOR
FLOOR = 1e-3


def finite(output) -> bool:
    return all(math.isfinite(v) for v in output)


def same_bits(a, b) -> bool:
    return (np.asarray(a, dtype=np.float64).tobytes()
            == np.asarray(b, dtype=np.float64).tobytes())


def close(a, b) -> bool:
    return len(a) == len(b) and all(
        abs(x - y) <= RTOL * max(abs(y), FLOOR) for x, y in zip(a, b))


def repeat_failures(runs, expected, steps_per_run: int) -> int:
    """Failed steps over ``runs``: a raised run fails all its steps, and a
    step fails if it is non-finite or differs in bits from ``expected`` at
    the same index."""
    failed = 0
    for run in runs:
        if run is None:
            failed += steps_per_run
            continue
        failed += sum(1 for got, want in zip(run, expected)
                      if not (finite(got) and same_bits(got, want)))
    return failed


def reference_failures(run, reference) -> int:
    """Failed steps of a replay against the recorded reference outputs."""
    if run is None:
        return len(reference)
    failed = abs(len(reference) - len(run))
    failed += sum(1 for got, want in zip(run, reference)
                  if not (finite(got) and close(got, want)))
    return failed


def load_reference() -> dict:
    """The recorded outputs per workload. The file also names the seed and
    tolerance it was recorded for, which must be the ones in force here."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        recorded = json.load(fh)
    if (recorded["seed"], recorded["rtol"]) != (REFERENCE_SEED, RTOL):
        raise BenchError(
            f"{REFERENCE_PATH} was recorded for seed {recorded['seed']} and "
            f"rtol {recorded['rtol']}, but the gate replays seed "
            f"{REFERENCE_SEED} with rtol {RTOL}")
    return recorded
