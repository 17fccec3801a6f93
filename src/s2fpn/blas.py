"""BLAS thread cap that reports what it actually did.

The OpenBLAS library numpy loaded is found in the process's memory map, and
its `*openblas_{get,set}_num_threads*` pair is called through ctypes: the
cap and the count that latency reports print go through the same library.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

# symbol names in numpy>=2 wheels, numpy 1.x wheels and system OpenBLAS
_PATTERNS = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")


@functools.cache
def _openblas() -> tuple | None:
    """(get_num_threads, set_num_threads) of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if len(line.split()) >= 6}
    except OSError:
        return None
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path).lower():
            continue
        lib = ctypes.CDLL(path)
        for pattern in _PATTERNS:
            get = getattr(lib, pattern.format("get_num_threads"), None)
            put = getattr(lib, pattern.format("set_num_threads"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, as it reports; None if unknown."""
    fns = _openblas()
    return None if fns is None else int(fns[0]())


@contextlib.contextmanager
def thread_limit(threads: int | None):
    """Cap BLAS threads inside the block and restore the old count after.

    A falsy `threads` leaves the count alone. Where no OpenBLAS is found the
    block runs uncapped; `blas_threads()` then reads None, so reports say
    the count is unknown instead of claiming it.
    """
    if not threads or (fns := _openblas()) is None:
        yield
        return
    get, put = fns
    previous = get()
    put(threads)
    try:
        yield
    finally:
        put(previous)
