"""The environment block each sweep script writes into its BENCH_*.json.

The BLAS thread variables are recorded as found (None when unset), so
runs at different thread counts can be told apart.
"""

import os
import platform

import numpy as np

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    return {
        **{var: os.environ.get(var) for var in BLAS_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
    }
