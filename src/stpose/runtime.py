"""How a call uses the process: its CPUs, OpenBLAS's threads, glibc's malloc,
and the two fixed halves of its clips.

``train`` and ``evaluate`` split their clips into the same halves
(``clip_halves``: two, or one for one clip), each run by a callable that
takes its slice, and add or join the second half's result after the
first's. With fewer than two CPUs (``cpus``) the second half runs inline
after the first, so the bits do not depend on the CPU count. No kernel of
the engine runs in parallel.

- ``two_halves(kernel, halves)`` runs ``evaluate``'s second half on one
  helper thread, while numpy releases the interpreter lock inside BLAS
  calls and ufuncs.
- ``ClipHalves(step, halves, grad)`` runs a training step's second half in
  a worker process, forked once, and only for two halves: it starts in
  milliseconds with the built model, and no other thread of this package
  is running then (the helper runs only inside ``evaluate``, which waits
  for it). The worker's model is its forked copy; the parameter store's
  ``data`` is a shared mapping, so it reads the values Adam last wrote
  here. Each step sends it the frame; it copies its gradient into a buffer
  shared with this process, which adds that into the store's, and answers
  with its loss terms or its error. A daemonic process may start no
  child, so it runs both halves itself.

``pinned()`` holds a whole ``train`` or ``evaluate`` call. Inside it every
loaded OpenBLAS runs on one thread: the thread count can change a GEMM's
bits, and two threads in each clip half put four busy threads on two CPUs
(whole runs took 3-6x longer). A worker forked inside inherits the hold.
``pinned()`` also has glibc's malloc keep freed memory in the process, as
the next step allocates it again, rather than hand it back to the kernel
and fault it in again; that changes no bits. A forked worker would share
that kept heap, and each process's first writes would copy it page by
page; so the worker first gives its copy back and takes fresh pages.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


def cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def clip_halves(clips: int) -> list:
    """The fixed halves of ``clips`` clips as slices: the first ceil(B/2)
    and the rest, or the one clip alone."""
    first = (clips + 1) // 2
    halves = [slice(0, first), slice(first, clips)]
    return halves if first < clips else halves[:1]


@functools.cache
def _openblas_threads() -> tuple:
    """(get, set) of the thread count of every OpenBLAS this process has
    loaded (numpy's, and scipy's own copy), found by path in
    /proc/self/maps; empty for another BLAS or where there is no /proc."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return ()
    calls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas{}64_", "scipy_openblas{}", "openblas{}64_", "openblas{}"):
            if hasattr(lib, name.format("_set_num_threads")):
                get = getattr(lib, name.format("_get_num_threads"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_ = getattr(lib, name.format("_set_num_threads"))
                set_.argtypes, set_.restype = [ctypes.c_int], None
                calls.append((get, set_))
                break
    return tuple(calls)


def _libc(name: str, argtypes: list, restype):
    """The C library's function ``name`` with its signature set, or None
    where the library has none."""
    try:
        fn = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError):
        return None
    fn.argtypes, fn.restype = argtypes, restype
    return fn


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# With glibc's defaults a warm default ``evaluate`` pass took 1,000-2,400
# minor faults and a stage-2 step up to 6,200, against a few dozen with
# both settings and 1,900-6,600 with either alone. 32 MiB is glibc's own
# ceiling for its dynamic mmap threshold on 64-bit; a step's whole heap
# stayed under 48 MiB on every benchmark workload.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


@functools.cache
def _keep_freed_memory() -> bool:
    """Have glibc's malloc keep freed memory in the process for the next
    step, once per process (a forked child inherits it). Returns whether
    the policy is in force: False, having done nothing, where the C library
    has no ``mallopt`` (macOS)."""
    mallopt = _libc("mallopt", [ctypes.c_int, ctypes.c_int], ctypes.c_int)
    return mallopt is not None and bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                                        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


def _give_back_free_memory() -> bool:
    """Give the free heap memory this process holds back to the kernel
    (glibc's ``malloc_trim(0)``). Returns whether it ran: False, having
    done nothing, where the C library has no ``malloc_trim`` (macOS, musl)."""
    malloc_trim = _libc("malloc_trim", [ctypes.c_size_t], ctypes.c_int)
    if malloc_trim is None:
        return False
    malloc_trim(0)
    return True


_blas_lock = threading.Lock()
_blas_holders = 0          # blocks inside pinned, on any thread
_blas_counts: tuple = ()   # (set, count) of each OpenBLAS before the first


@contextmanager
def pinned():
    """Set the malloc policy, and hold every loaded OpenBLAS at one thread
    inside the block. Of overlapping blocks, on any threads, the first
    saves each library's thread count and the last gives it back, so no
    block runs at a restored count."""
    global _blas_holders, _blas_counts
    _keep_freed_memory()
    with _blas_lock:
        if _blas_holders == 0:
            _blas_counts = tuple((set_threads, get())
                                 for get, set_threads in _openblas_threads())
            for set_threads, _ in _blas_counts:
                set_threads(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                for set_threads, count in _blas_counts:
                    set_threads(count)


_helper: tuple[int, ThreadPoolExecutor] | None = None   # (pid, pool) that runs half 1
_helper_lock = threading.Lock()


def _helper_pool() -> ThreadPoolExecutor:
    """The one helper thread's pool, started on first use. A forked child
    does not inherit the parent's thread, so it starts its own."""
    global _helper
    with _helper_lock:
        if _helper is None or _helper[0] != os.getpid():
            _helper = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="stpose-shard"))
        return _helper[1]


def two_halves(kernel: Callable, halves: Sequence) -> list:
    """``[kernel(half) for half in halves]`` for one or two halves that
    write disjoint memory. Half 0 runs inline; half 1 on the helper thread
    when this process may use two CPUs, under the caller's numpy error
    state but not its ``no_grad`` (both per thread), else inline after half
    0. Both have stopped before this returns or raises, and an error in
    either reaches the caller as is."""
    if len(halves) == 1 or cpus() < 2:
        return [kernel(half) for half in halves]
    errors, call = np.geterr(), np.geterrcall()

    def second():
        with np.errstate(call=call, **errors):
            return kernel(halves[1])

    future = _helper_pool().submit(second)
    try:
        first = kernel(halves[0])
    finally:
        future.exception()   # waits for half 1 even when half 0 raised
    return [first, future.result()]


class ClipHalves:
    """Training steps over the one or two halves of ``clip_halves``: each
    ``step(half, frame, ratio)`` adds its gradient into ``grad`` (a
    parameter store's flat gradient) and returns a tuple of loss terms.
    With two halves and two CPUs a worker forked here runs the second into
    its own copy of ``grad``."""

    def __init__(self, step: Callable, halves: Sequence, grad: np.ndarray):
        self.half_step, self.halves, self.store_grad = step, halves, grad
        self.worker = None
        if (len(halves) == 2 and cpus() >= 2
                and not multiprocessing.current_process().daemon
                and "fork" in multiprocessing.get_all_start_methods()):
            self.second_grad = np.frombuffer(mmap.mmap(-1, grad.nbytes))
            context = multiprocessing.get_context("fork")
            self.pipe, end = context.Pipe()
            self.worker = context.Process(target=self._serve, args=(end,),
                                          name="stpose-clip-half", daemon=True)
            try:
                self.worker.start()
            except OSError as exc:   # EAGAIN at the process limit, say
                self.pipe.close()
                raise RuntimeError(f"could not start the clip-half worker process: "
                                   f"{exc}") from exc
            finally:
                end.close()

    def _serve(self, pipe) -> None:
        """The worker: one half 1 per frame received, until the pipe closes."""
        _give_back_free_memory()   # before its first half
        self.pipe.close()   # this process's copy of the parent's end
        signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent ends it on Ctrl-C
        while True:
            try:
                frame, ratio = pipe.recv()
            except EOFError:
                return
            self.store_grad.fill(0.0)
            try:
                reply = self.half_step(self.halves[1], frame, ratio)
                self.second_grad[...] = self.store_grad
            except Exception as exc:   # the parent raises it
                reply = exc
            pipe.send(reply)

    def _lost(self) -> RuntimeError:
        self.worker.join()
        return RuntimeError(f"the clip-half worker process exited with code "
                            f"{self.worker.exitcode}")

    def step(self, frame, ratio) -> tuple:
        """Every half at the store's current values: leaves their gradients
        summed in ``grad``, half 0 first, and returns their loss terms
        summed the same way (one half's as they are)."""
        if self.worker is None:
            terms = [self.half_step(half, frame, ratio) for half in self.halves]
        else:
            try:
                self.pipe.send((frame, ratio))
            except OSError:
                raise self._lost() from None
            first = self.half_step(self.halves[0], frame, ratio)
            try:
                second = self.pipe.recv()
            except EOFError:
                raise self._lost() from None
            if isinstance(second, Exception):
                raise second
            np.add(self.store_grad, self.second_grad, out=self.store_grad)
            terms = [first, second]
        return terms[0] if len(terms) == 1 else tuple(a + b for a, b in zip(*terms))

    def close(self) -> None:
        """Stop and reap the worker, if there is one, busy or not."""
        if self.worker is not None:
            self.pipe.close()
            self.worker.terminate()
            self.worker.join()
