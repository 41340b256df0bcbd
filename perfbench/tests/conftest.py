"""Put the benchmark's modules on the path and pin BLAS threads as the
benchmark does, before anything imports numpy."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

sys.path.insert(0, BENCH)

import boot  # noqa: E402

boot.pin_threads()
