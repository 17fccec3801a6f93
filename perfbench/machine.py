"""Facts about the machine, measured inside the benchmark process.

The BLAS thread count is read back from the OpenBLAS library that numpy
actually loaded, so a report never claims one thread on an assumption.
"""

from __future__ import annotations

import ctypes
import os
import statistics
import time

import numpy as np

# symbol names in numpy>=2 wheels, numpy 1.x wheels and system OpenBLAS
_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_GETTERS = (
    "scipy_openblas_get_config64_",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS shared object mapped into this process, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if len(line.split()) >= 6}
    except OSError:
        return None
    for path in sorted(paths):
        if "openblas" in os.path.basename(path).lower():
            return ctypes.CDLL(path)
    return None


def _symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, as OpenBLAS itself reports; None if unknown."""
    lib = _loaded_openblas()
    getter = None if lib is None else _symbol(lib, _THREAD_GETTERS, ctypes.c_int)
    return None if getter is None else int(getter())


def describe() -> dict:
    """Versions and hardware for the report header (not metrics)."""
    lib = _loaded_openblas()
    config = None if lib is None else _symbol(lib, _CONFIG_GETTERS, ctypes.c_char_p)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "openblas": config().decode() if config is not None else "unknown",
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def sgemm_gflops(m: int = 128, k: int = 1152, n: int = 8192, reps: int = 9) -> float:
    """Single-precision GEMM rate at a conv-like shape: the im2col matmul of
    a 3x3 128->128 convolution over a 64x128 map. Median of `reps` calls."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    out = np.empty((m, n), dtype=np.float32)
    np.matmul(a, b, out=out)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - start)
    return 2.0 * m * k * n / statistics.median(times) / 1e9
