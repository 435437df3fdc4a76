"""One BLAS thread per sharded-runtime process.

The sharded runtime gets its parallelism from one process per shard.
A multi-threaded BLAS pool inside each of those processes only
oversubscribes the cores, and idle OpenBLAS threads busy-wait after
every call, taking CPU from the asynchronous workers whose progress
rate sets the convergence rate.  So every runtime process runs
single-threaded BLAS while the runtime is live:

* a shard worker takes the cap at the top of its entry point;
* the coordinator holds it for the lifetime of every ``shards>1``
  runner.  Holds are refcounted process-wide: the first hold records
  each library's thread count, and the last release restores it.

The OpenBLAS libraries already mapped into the process are found in
``/proc/self/maps`` and driven through ctypes (numpy and scipy each
bundle their own copy, with prefixed and suffixed symbol names).
Where no OpenBLAS is loaded, or ``/proc`` is absent, every call here
is a no-op.  The environment (``OPENBLAS_NUM_THREADS``) is never
touched.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple

__all__ = [
    "acquire_single_thread",
    "release_single_thread",
    "single_thread",
    "thread_counts",
]

#: C-interface symbol spellings: plain OpenBLAS, and the scipy-openblas
#: wheels' ``scipy_`` prefix with the ILP64 ``64_`` suffix (numpy) or
#: without it (scipy).  The ``..._`` variants are Fortran bindings that
#: take a pointer, so they are deliberately not listed.
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


class _OpenBlas(NamedTuple):
    """``get``/``set_num_threads`` of one loaded OpenBLAS library."""

    path: str
    get: Callable[[], int]
    set: Callable[[int], None]


def _bind(path: str):
    """The library's thread-count entry points, or ``None``."""
    try:
        lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
    except OSError:
        return None
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return _OpenBlas(path, get, set_)
    return None


_lock = threading.Lock()
_bound: dict = {}  # path -> _OpenBlas | None, resolved once per library
_holds = 0
_saved: dict = {}  # path -> thread count at the first hold


def _libraries() -> list:
    """Every controllable OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps") as f:
            # the sixth field is the mapped file's path
            paths = {
                line.split(None, 5)[5].strip()
                for line in f
                if "openblas" in line.lower()
            }
    except OSError:
        return []
    for path in paths - _bound.keys():
        _bound[path] = _bind(path)
    return [_bound[p] for p in sorted(paths) if _bound[p] is not None]


def thread_counts() -> dict:
    """``{library path: BLAS thread count}`` for every loaded OpenBLAS."""
    with _lock:
        return {lib.path: lib.get() for lib in _libraries()}


def acquire_single_thread() -> None:
    """Take a hold on single-threaded BLAS in this process."""
    global _holds
    with _lock:
        if _holds == 0:
            for lib in _libraries():
                _saved[lib.path] = lib.get()
                lib.set(1)
        _holds += 1


def release_single_thread() -> None:
    """Drop one hold; the last one restores the recorded thread counts."""
    global _holds
    with _lock:
        if _holds == 0:
            return
        _holds -= 1
        if _holds == 0:
            for path, n in _saved.items():
                _bound[path].set(n)
            _saved.clear()


@contextmanager
def single_thread():
    """Hold single-threaded BLAS for the duration of a ``with`` block."""
    acquire_single_thread()
    try:
        yield
    finally:
        release_single_thread()
