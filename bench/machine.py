"""Print the machine block that goes with reference figures.

    python3 bench/machine.py

nproc, Python, numpy and scipy versions, the BLAS numpy links and its
thread count, and the git revision when the tree is a git checkout.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
from pathlib import Path


def blas_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = getattr(handle, sym)()
                break
    return f"{blas.get('name')} {blas.get('version')}", threads


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def machine():
    import numpy
    import scipy
    blas, threads = blas_info()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": threads, "git": git_revision()}


if __name__ == "__main__":
    print(json.dumps(machine(), indent=2))
