"""Output checks: is a qcheis report complete, and is it right?

`check_output` takes one operation, its exit status and its standard
output, and returns (failed, problems). `failed` is the program's own
verdict (a check did not hold). `problems` lists what makes the output
incomplete or wrong: a bad exit status, a config echo that differs from
what was asked, a CSV with missing rows, a tolerance looser than the
documented one, a verdict that contradicts its residuals, a value off its
independent oracle, or a failure nobody expected. Any problem makes the
benchmark result `correct: false`.
"""

from __future__ import annotations

import csv
import io
import json
import math

# documented tolerances, per check class
TOL_JET, TOL_TENSOR, TOL_STRUCT, TOL_QUAD = 1e-9, 1e-10, 1e-12, 1e-4

_AUDIT = ("theta_on_frame", "reeb_normalization", "compatibility_2g",
          "quaternion_relations")
QUAD_CHECKS = ("translation_invariance", "dilation_invariance_lam_0.5",
               "dilation_invariance_lam_2.0", "extremality_margin_nonnegative")
EXPECTED_CHECKS = {
    "residual": {"yamabe_pde_relative_residual": TOL_JET},
    "scal": {"scal_matches_s_theta": TOL_JET, "scal_std_over_mean": TOL_JET},
    "torsion": {"t0bar_norm": TOL_JET, "ubar_norm": TOL_JET},
    "identities": {
        "d_sum_decomposition": TOL_STRUCT, "f_from_d_cyclic": TOL_STRUCT,
        "tensor_identity_dd_norm": TOL_TENSOR,
        "tensor_identity_ee_norm": TOL_TENSOR,
        "tensor_identity_dd_dot_ee": TOL_TENSOR,
        "tensor_identity_combined": TOL_TENSOR,
        "jet_sum_identity": TOL_JET, "jet_f_differential": TOL_JET},
    "qmatrix": {"char_poly_at_1": 0.0, "char_poly_mod_quad_73": 0.0,
                "char_poly_mod_quad_89": 0.0, "leading_minors_positive": 0.0,
                "shifted_minors_nonnegative": 0.0,
                "float_spectrum_cross_check": TOL_STRUCT},
    "functional": {name: TOL_QUAD if name != QUAD_CHECKS[-1] else 0.0
                   for name in QUAD_CHECKS},
}


def expected_checks(op):
    if op.command == "audit":
        return {f"n{op.n}_{name}": 0.0 for name in _AUDIT}
    return EXPECTED_CHECKS[op.command]


def samples_log2(points):
    return max(10, math.ceil(math.log2(max(2, points))))


def s_theta(n, c0, sigma):
    """Scalar curvature of the extremal family, from the closed forms."""
    return 128.0 * n * (n + 2) * c0 * sigma


def check_output(op, exit_code, stdout, oracles):
    """(failed, problems) for one operation's result."""
    if exit_code not in (0, 1):
        return True, [f"{op}: exit status {exit_code}"]
    if op.fmt == "csv":
        problems = _check_csv(op, stdout)
        failed = exit_code == 1
    else:
        try:
            report = json.loads(stdout)
        except ValueError as exc:
            return True, [f"{op}: report is not JSON ({exc})"]
        problems = _check_report(op, exit_code, report, oracles)
        failed = report.get("pass") is not True
    if failed and not op.known_fault:
        problems.append("a check failed")
    return failed, [f"{op}: {p}" for p in problems]


def _check_report(op, exit_code, report, oracles):
    problems = []
    if report.get("command") != op.command:
        problems.append(f"command echo {report.get('command')!r}")
    cfg = report.get("config") or {}
    for key, want in (("n", op.n), ("seed", op.seed),
                      ("points", op.expected_points)):
        if cfg.get(key) != want:
            problems.append(f"config {key} is {cfg.get(key)!r}, asked {want!r}")

    expected = expected_checks(op)
    checks = {c.get("name"): c for c in report.get("checks") or []}
    if set(checks) != set(expected):
        problems.append(f"checks {sorted(checks)} != {sorted(expected)}")
    failing = []
    for name, row in checks.items():
        tol, mx = row.get("tolerance"), row.get("max_residual")
        if not (isinstance(mx, float) and math.isfinite(mx)
                and isinstance(tol, float)):
            problems.append(f"{name}: residual {mx!r}, tolerance {tol!r}")
            continue
        if name in expected and tol != expected[name]:
            problems.append(f"{name}: tolerance {tol!r}, documented "
                            f"{expected[name]!r}")
        if row.get("pass") is not (mx <= tol):
            problems.append(f"{name}: verdict {row.get('pass')} contradicts "
                            f"residual {mx!r} against {tol!r}")
        if row.get("pass") is not True:
            failing.append(name)
    verdict = bool(checks) and not failing
    if report.get("pass") is not verdict:
        problems.append(f"report verdict {report.get('pass')} contradicts "
                        f"its checks")
    if exit_code != (0 if verdict else 1):
        problems.append(f"exit status {exit_code} with verdict {verdict}")
    if op.known_fault and failing and not (
            set(failing) <= set(QUAD_CHECKS)
            and set(failing) & set(QUAD_CHECKS[:3])):
        problems.append(f"known fault failed unexpected checks {failing}")

    if op.command == "scal":
        want = s_theta(op.n, cfg.get("c0", math.nan), cfg.get("sigma", math.nan))
        if not abs(report.get("s_theta", math.nan) - want) <= 1e-15 * want:
            problems.append(f"s_theta {report.get('s_theta')!r}, oracle {want!r}")
    elif op.command == "qmatrix":
        problems += _check_certificate(report.get("certificate"),
                                       oracles["qmatrix"])
    elif op.command == "functional":
        problems += _check_functional(op, report, oracles)
    return problems


def _check_certificate(cert, oracle):
    if not isinstance(cert, dict):
        return ["no certificate"]
    problems = []
    if cert.get("matrix") != oracle["rows"]:
        problems.append("certificate matrix differs from Q")
    if cert.get("char_poly_descending") != oracle["char_poly_descending"]:
        problems.append("characteristic polynomial differs from the oracle")
    got = sorted((tuple(f["coeffs"]), f["multiplicity"])
                 for f in cert.get("factors", []))
    want = sorted((tuple(f["coeffs"]), f["multiplicity"])
                  for f in oracle["factors"])
    if got != want:
        problems.append(f"factors {got} differ from the oracle {want}")
    lo = cert.get("min_eigenvalue", math.nan)
    if not abs(lo - oracle["min_eigenvalue"]) <= 1e-12:
        problems.append(f"min eigenvalue {lo!r}, oracle "
                        f"{oracle['min_eigenvalue']!r}")
    return problems


def _check_functional(op, report, oracles):
    problems = []
    if report.get("samples_log2") != samples_log2(op.expected_points):
        problems.append(f"samples_log2 {report.get('samples_log2')!r} for "
                        f"{op.expected_points} points")
    margins = report.get("bump_margins") or []
    if len(margins) != 20 or not all(math.isfinite(m) for m in margins):
        problems.append(f"{len(margins)} bump margins, 20 finite expected")
    ratio = report.get("ratio", math.nan)
    if not math.isfinite(ratio) or not math.isfinite(
            report.get("ratio_error", math.nan)):
        problems.append(f"ratio {ratio!r} +- {report.get('ratio_error')!r}")
    elif not op.known_fault:
        tol = (report.get("config") or {}).get("tol_quad") or TOL_QUAD
        oracle = oracles["fs_ratio"][f"n{op.n}"]
        if abs(ratio / oracle - 1.0) > tol:
            problems.append(f"ratio {ratio!r} is off the oracle {oracle!r} "
                            f"by more than {tol!r}")
    return problems


def _check_csv(op, text):
    rows = list(csv.reader(io.StringIO(text)))
    d = 4 * op.n + 3
    header = ["index"] + [f"p{i}" for i in range(d)]
    if not rows or rows[0][:-1] != header:
        return [f"CSV header {rows[0] if rows else None!r}"]
    body = rows[1:]
    if len(body) != op.expected_points:
        return [f"CSV has {len(body)} rows, {op.expected_points} asked"]
    problems = []
    worst = 0.0
    box = 2.0
    for i, row in enumerate(body):
        try:
            index = int(row[0])
            values = [float(v) for v in row[1:]]
        except (ValueError, IndexError):
            return [f"CSV row {i} unreadable: {row!r}"]
        if index != i or len(values) != d + 1:
            return [f"CSV row {i} malformed: {row!r}"]
        if not all(-box <= v <= box for v in values[:-1]):
            problems.append(f"CSV row {i}: point outside the box")
            break
        residual = values[-1]
        if not math.isfinite(residual):
            problems.append(f"CSV row {i}: residual {residual!r}")
            break
        worst = max(worst, residual)
    if worst > TOL_JET:
        problems.append(f"CSV worst residual {worst!r} over {TOL_JET!r}")
    return problems
