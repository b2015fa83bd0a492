"""Print, as one JSON line, the environment the benchmark runs in and the
number of catalog special points of each given action.

    PYTHONPATH=src python3 perfbench/probe.py s2xs2-so3 cp2-so3

A cloud is its uniform samples plus the action's special points, whose
number does not depend on the seed.
"""

from __future__ import annotations

import ctypes
import importlib.util
import json
import os
import platform
import sys

import numpy as np
import scipy

import orthofold
from orthofold import actions, kernels

BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ORTHOFOLD_NUMBA")


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    with open(f"/proc/{os.getpid()}/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "orthofold": orthofold.__version__,
        "backend": kernels.get_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def special_points(names: list[str]) -> dict:
    out = {}
    for name in names:
        a = actions.get_action(name)
        special = np.asarray(a.special_points(np.random.default_rng(0)), dtype=float)
        out[name] = special.size // a.manifold.ambient_dim
    return out


if __name__ == "__main__":
    print(json.dumps({"env": environment(), "specials": special_points(sys.argv[1:])}))
