"""The package's hand-kept export list and its BLAS thread policy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcheis

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def test_all_names_resolve_without_duplicates():
    assert len(qcheis.__all__) == len(set(qcheis.__all__))
    missing = [name for name in qcheis.__all__ if not hasattr(qcheis, name)]
    assert missing == []


def _fresh_interpreter(code, **env):
    """Standard output lines of `python -c code` in a fresh interpreter
    with neither thread variable set unless given in env."""
    base = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    base["PYTHONPATH"] = str(Path(qcheis.__file__).resolve().parents[1])
    base.update(env)
    return subprocess.run([sys.executable, "-c", code], env=base,
                          capture_output=True, text=True,
                          check=True).stdout.split()


def test_import_pins_blas_to_one_thread():
    # every product is thin, so a second OpenBLAS thread only spins; with
    # the pin the process runs on its main thread alone
    threads, tasks = _fresh_interpreter(
        "import os, qcheis\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "task = '/proc/self/task'\n"
        "print(len(os.listdir(task)) if os.path.isdir(task) else 'none')\n")
    assert threads == "1"
    if tasks != "none":
        assert tasks == "1"


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
