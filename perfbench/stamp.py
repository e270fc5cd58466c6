"""Environment stamp recorded with every result, and the stamp comparison
that `compare.py` uses to flag results taken under different conditions."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np

# Fields that must match for two results to be comparable. The commit is
# left out: comparing two commits is the point.
MATCH_FIELDS = ("nproc", "cpu", "blas", "blas_version", "blas_threads",
                "numpy", "python", "workload_seed")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return str(blas.get("name", "unknown")), str(blas.get("version", "unknown"))
    except (KeyError, TypeError, ValueError):
        return "unknown", "unknown"


def _blas_threads():
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    libs_dir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in symbols:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") \
        or "unknown"


def _git_commit(root: str) -> str:
    """Read HEAD without running git; a checkout without .git gives 'unknown'."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, seed: int) -> dict:
    blas, blas_version = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": blas,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(root),
        "workload_seed": seed,
    }


def differences(a: dict, b: dict) -> list:
    """Fields that differ between two stamps and make results incomparable."""
    return [k for k in MATCH_FIELDS if a.get(k) != b.get(k)]
