"""Machine and library record stored with every result (read-only probes)."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_bytes() -> int | None:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        return int(size.rstrip("KMG")) * scale
    return None


def _blas() -> tuple[str, int | None]:
    """OpenBLAS version from numpy's build record, and its current thread count."""
    version = "unknown"
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        pass
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
    return version, threads


def environment() -> dict:
    version, threads = _blas()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "l3_bytes": _l3_bytes(), "python": platform.python_version(),
            "numpy": np.__version__, "openblas": version, "blas_threads": threads}


def working_set(n: int, l3_bytes: int | None) -> dict:
    """Computed (not measured) sizes of the n x n arrays the solver touches."""
    sizes = {"signs_int8_bytes": n * n, "float32_bytes": 4 * n * n,
             "float64_bytes": 8 * n * n}
    out = {"n": n, "label": "computed", **sizes}
    if l3_bytes:
        out["fits_l3"] = {key: size <= l3_bytes for key, size in sizes.items()}
    return out
