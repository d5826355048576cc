"""BLAS pinning and the environment record written next to every result.

``pin_blas`` must run before numpy is imported anywhere in the process;
``check_blas`` then asks the loaded OpenBLAS how many threads it will use
and raises when the pin did not take.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads")


class BlasPinError(RuntimeError):
    pass


def pin_blas() -> None:
    if "numpy" in sys.modules:
        raise BlasPinError("numpy was imported before the BLAS thread pin")
    for key in _BLAS_ENV:
        os.environ[key] = "1"


def _openblas_threads():
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in _GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn()), os.path.basename(path)
    raise BlasPinError(f"no OpenBLAS thread query found under {libdir}")


def check_blas() -> int:
    threads, _ = _openblas_threads()
    if threads != 1:
        raise BlasPinError(f"BLAS runs {threads} threads; the pin to 1 did not take")
    return threads


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def record(root: str, workload: str, seed: int) -> dict:
    """Versions and settings that a result depends on."""
    import numpy as np

    threads, lib = _openblas_threads()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({lib})",
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in _BLAS_ENV},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }
