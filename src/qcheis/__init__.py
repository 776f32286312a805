"""Verification toolkit for quaternionic contact geometry on the
quaternionic Heisenberg group; callers import the modules (quat, jets,
heis, tensors, qmc, yamabe, qmatrix, floatrepr, cli). See README.

Importing the package before numpy pins OpenBLAS to one thread, unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set: every product here is thin,
so a second BLAS thread saves no wall time but spins on its own core. The
qcheis CLI always imports the package first. A process that loaded numpy
earlier keeps its thread pool and its environment.
"""

import os
import sys

if "numpy" not in sys.modules and not (
        {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
