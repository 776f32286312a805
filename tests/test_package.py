"""The package's BLAS thread policy.

The package imports no submodule, so each check imports numpy after it:
that is when OpenBLAS reads its thread count and starts its pool.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcheis

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_interpreter(code, **env):
    """Standard output lines of `python -c code` in a fresh interpreter
    with neither thread variable set unless given in env."""
    base = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    base["PYTHONPATH"] = str(Path(qcheis.__file__).resolve().parents[1])
    base.update(env)
    return subprocess.run([sys.executable, "-c", code], env=base,
                          capture_output=True, text=True,
                          check=True).stdout.split()


_COUNT_TASKS = (
    "import os, qcheis, numpy\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    "task = '/proc/self/task'\n"
    "print(len(os.listdir(task)) if os.path.isdir(task) else 'none')\n")


def test_import_pins_blas_to_one_thread():
    # every product is thin, so a second OpenBLAS thread only spins; with
    # the pin the process runs on its main thread alone
    threads, tasks = _fresh_interpreter(_COUNT_TASKS)
    assert threads == "1"
    if tasks != "none":
        assert tasks == "1"


def test_a_preset_thread_count_starts_that_many_threads():
    # negative control for the check above: the same count sees the pool
    # that a preset count starts, as OpenBLAS caps it at the usable cores
    threads, tasks = _fresh_interpreter(_COUNT_TASKS, OPENBLAS_NUM_THREADS="2")
    assert threads == "2"
    if tasks != "none":
        assert tasks == str(min(2, len(os.sched_getaffinity(0))))


@pytest.mark.parametrize("var", _THREAD_VARS)
def test_a_preset_thread_count_is_left_alone(var):
    out = _fresh_interpreter(
        "import os, qcheis\n"
        f"print(*(os.environ.get(v) for v in {_THREAD_VARS!r}))\n",
        **{var: "2"})
    assert out == ["2" if v == var else "None" for v in _THREAD_VARS]


def test_numpy_loaded_first_keeps_its_environment():
    # the pin cannot reach a pool that already started, so it is not set
    # where it would only mislead child processes and the report
    out = _fresh_interpreter(
        "import os, numpy, qcheis\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    assert out == ["None"]
