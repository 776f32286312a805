"""Negative controls for the benchmark's checks: each check must catch a
wrong or incomplete output, and pass the right one.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracles
from checks import check_output
from layers import audit_problems, closed_form_problems
from run import ROOT, SRC
from workloads import WORKLOADS, Op

sys.path.insert(0, str(SRC))

from qcheis.cli import main  # noqa: E402
from qcheis.heis import HorizontalFrame, frame_audit, frame_second_order  # noqa: E402
from qcheis.yamabe import ExtremalParams, h_explicit  # noqa: E402

ORACLES = oracles.load()


def run_cli(op, *extra):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(op.argv() + list(extra))
    return code, buf.getvalue()


def functional_report(op, ratio):
    """A well-formed functional report for op, with the given ratio."""
    checks = [{"name": name, "max_residual": 0.0 if tol == 0.0 else 1e-6,
               "mean_residual": 0.0, "tolerance": tol, "pass": True}
              for name, tol in (("translation_invariance", 1e-4),
                                ("dilation_invariance_lam_0.5", 1e-4),
                                ("dilation_invariance_lam_2.0", 1e-4),
                                ("extremality_margin_nonnegative", 0.0))]
    return {"command": "functional",
            "config": {"n": op.n, "seed": op.seed, "points": op.expected_points,
                       "c0": 1.0, "sigma": 1.0, "tol_quad": None},
            "checks": checks, "pass": True, "wall_ms": 1,
            "ratio": ratio, "ratio_error": 1e-5,
            "bump_margins": [1e-3] * 20, "samples_log2": 18}


def test_workloads_repeat_and_fix_the_known_fault():
    for make in WORKLOADS.values():
        assert make(5) == make(5)
    faults = [op for op in WORKLOADS["functional"](7) if op.known_fault]
    assert faults == [op for op in WORKLOADS["functional"](8) if op.known_fault]
    assert len(faults) == 1 and faults[0].n == 2
    assert not any(op.known_fault for w in ("cli-defaults", "scan-bulk")
                   for op in WORKLOADS[w](7))


def test_qmatrix_certificate_and_tampered_matrix():
    op = Op("qmatrix", 1, 0)
    assert check_output(op, *run_cli(op), ORACLES) == (False, [])
    failed, problems = check_output(op, *run_cli(op, "--tamper-q"), ORACLES)
    assert failed and problems


def test_functional_ratio_against_the_oracle():
    op = Op("functional", 1, 3)
    oracle = ORACLES["fs_ratio"]["n1"]
    good = functional_report(op, oracle * (1 + 1e-6))
    assert check_output(op, 0, json.dumps(good), ORACLES) == (False, [])
    off = functional_report(op, oracle * (1 + 10 * 1e-4))
    assert check_output(op, 0, json.dumps(off), ORACLES)[1]
    wrong_m = dict(good, samples_log2=17)
    assert check_output(op, 0, json.dumps(wrong_m), ORACLES)[1]


def test_known_fault_counts_as_failed_only_on_quadrature_checks():
    op = Op("functional", 2, 0, 2 ** 14, known_fault=True)
    report = functional_report(op, 47.9)
    report["samples_log2"] = 14
    report["checks"][0].update(max_residual=0.05, **{"pass": False})
    report["pass"] = False
    assert check_output(op, 1, json.dumps(report), ORACLES) == (True, [])
    report["checks"].append({"name": "something_else", "max_residual": 1.0,
                             "mean_residual": 1.0, "tolerance": 0.0,
                             "pass": False})
    assert check_output(op, 1, json.dumps(report), ORACLES)[1]
    # the same failure on an operation not known to fail is a problem
    plain = Op("functional", 2, 0, 2 ** 14)
    report["checks"].pop()
    assert check_output(plain, 1, json.dumps(report), ORACLES)[1]


def test_config_echo_exit_status_and_tolerances():
    op = Op("scal", 1, 3, 50)
    code, text = run_cli(op)
    assert check_output(op, code, text, ORACLES) == (False, [])
    for other in (Op("scal", 1, 3, 51), Op("scal", 1, 4, 50),
                  Op("scal", 2, 3, 50), Op("torsion", 1, 3, 50)):
        assert check_output(other, code, text, ORACLES)[1], other
    assert check_output(op, 2, text, ORACLES)[1]
    assert check_output(op, 1, text, ORACLES)[1]
    report = json.loads(text)
    report["s_theta"] *= 1 + 1e-12
    assert check_output(op, code, json.dumps(report), ORACLES)[1]
    # a loosened tolerance is caught even though every check passes
    code, text = run_cli(op, "--tol-exact", "1e-3")
    assert code == 0 and check_output(op, code, text, ORACLES)[1]
    # a failed check on an operation expected to pass is a problem
    code, text = run_cli(op, "--tol-exact", "1e-30")
    failed, problems = check_output(op, code, text, ORACLES)
    assert code == 1 and failed and problems


def test_csv_row_count_and_residuals():
    op = Op("residual", 1, 2, 40, fmt="csv")
    code, text = run_cli(op)
    assert check_output(op, code, text, ORACLES) == (False, [])
    lines = text.splitlines()
    short = "\n".join(lines[:-1]) + "\n"
    assert check_output(op, code, short, ORACLES)[1]
    cells = lines[5].split(",")
    cells[-1] = "1e-6"
    bad = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    assert check_output(op, code, bad, ORACLES)[1]


def test_frame_audit_with_doubled_reeb_field():
    frame = HorizontalFrame(1)
    assert audit_problems(frame_audit(frame, n_points=5, seed=1), 1) == []
    reeb = [[0] * 7 for _ in range(3)]
    for s in range(3):
        reeb[s][4 + s] = 4          # twice the true Reeb field
    assert audit_problems(frame_audit(frame, n_points=5, seed=1, reeb=reeb), 1)


@pytest.mark.parametrize("n", [1, 2])
def test_closed_forms_catch_a_wrong_frame_derivative(n):
    rng = np.random.default_rng(n)
    pts = rng.uniform(-2, 2, size=(200, 4 * n + 3))
    frame = HorizontalFrame(n)
    h = h_explicit(ExtremalParams.centered(n, 0.7, 1.3))
    value, fg, fh, _ = frame_second_order(h, pts, frame)
    assert closed_form_problems(n, 0.7, 1.3, pts, value, fg, fh) == []
    assert closed_form_problems(n, 0.7, 1.3, pts, value, fg * (1 + 1e-6), fh)
    assert closed_form_problems(n, 0.7, 1.3, pts, value, fg, fh * 1.001)


def test_oracles_recompute():
    assert oracles.main([]) == 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-defaults",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
