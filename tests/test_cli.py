"""The command-line harness: report schema, exit codes, determinism,
output formats, and flag plumbing. Everything runs in-process through
main(argv) so failures carry real tracebacks."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcheis
from qcheis import cli, qmc, tensors, yamabe
from qcheis.cli import _render_csv, build_parser, main
from qcheis.heis import GroupPoint, HorizontalFrame
from qcheis.tensors import _apply
from qcheis.yamabe import (ExtremalParams, YamabeConstants, conformal_scal,
                           conformal_torsion, h_explicit, phi_explicit,
                           yamabe_residual)

SCHEMA_KEYS = {"command", "config", "checks", "pass", "wall_ms"}
CHECK_KEYS = {"name", "max_residual", "mean_residual", "tolerance", "pass"}
SCANS = ("residual", "scal", "torsion")


def _run_json(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_audit_report_schema_and_exit(tmp_path):
    code, report = _run_json(tmp_path, ["audit", "--n", "1", "--seed", "5"])
    assert code == 0
    assert SCHEMA_KEYS <= set(report)
    assert report["command"] == "audit"
    assert report["pass"] is True
    assert report["checks"]
    for check in report["checks"]:
        assert CHECK_KEYS <= set(check)
        assert check["max_residual"] == 0.0
        assert check["pass"] is True
    assert report["config"]["n"] == 1
    assert report["config"]["seed"] == 5


@pytest.mark.parametrize("command,points", [
    ("residual", 300), ("scal", 300), ("torsion", 300), ("identities", 60),
])
def test_scan_commands_pass_at_small_size(tmp_path, command, points):
    code, report = _run_json(
        tmp_path, [command, "--n", "1", "--seed", "2",
                   "--points", str(points)])
    assert code == 0, report
    assert report["pass"] is True
    assert all(c["max_residual"] <= c["tolerance"] for c in report["checks"])


def test_qmatrix_report_carries_certificate(tmp_path):
    code, report = _run_json(tmp_path, ["qmatrix"])
    assert code == 0
    cert = report["certificate"]
    assert cert["positive_definite"] is True
    assert cert["leading_minors"] == ["5/2", "6", "27/2", "27", "54", "96",
                                      "128"]
    assert cert["shifted_leading_minors"] == ["3/2", "2", "2", "0", "0", "0",
                                              "0"]
    labels = {e["exact"]: e["multiplicity"] for e in cert["eigenvalues"]}
    assert labels["(11 + sqrt(89))/2"] == 2


def test_tampered_matrix_fails_with_exit_one(tmp_path):
    code, report = _run_json(tmp_path, ["qmatrix", "--tamper-q"])
    assert code == 1
    assert report["pass"] is False
    assert "certificate" not in report
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed


def test_tolerance_override_can_force_failure(tmp_path):
    code, report = _run_json(
        tmp_path, ["residual", "--points", "50", "--tol-exact", "1e-20"])
    assert code == 1
    assert report["pass"] is False
    assert report["checks"][0]["tolerance"] == 1e-20


def test_quad_tolerance_override_is_echoed(tmp_path):
    code, report = _run_json(
        tmp_path, ["functional", "--points", "1024", "--tol-quad", "0.5"])
    assert code in (0, 1)
    for c in report["checks"]:
        if "invariance" in c["name"]:
            assert c["tolerance"] == 0.5


def test_exit_two_on_bad_params(tmp_path, capsys):
    assert main(["residual", "--c0", "-1.0"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


@pytest.mark.parametrize("flag,value", [
    ("--c0", "nan"), ("--sigma", "inf"), ("--q0", "0,nan,0,0"),
    ("--w0", "0,0,-inf"), ("--box", "0"), ("--box", "-1"), ("--box", "nan"),
])
def test_exit_two_on_non_finite_or_empty_scan_flags(flag, value, capsys):
    # a NaN parameter used to reach the report as NaN (exit 1), and --box 0
    # put every scan point on one location, where every check passed
    with pytest.raises(SystemExit) as exc:
        main(["residual", "--points", "5", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command,flag,value", [
    pytest.param("residual", "--tol-exact", "nan", id="--tol-exact-nan"),
    pytest.param("functional", "--tol-quad", "-1e-4", id="--tol-quad--1e-4"),
])
def test_exit_two_on_invalid_tolerance(command, flag, value, capsys):
    # a NaN tolerance used to reach the report as NaN, which is not JSON
    with pytest.raises(SystemExit) as exc:
        main([command, "--points", "5", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}" in captured.err
    assert captured.out == ""


def test_functional_reports_bump_node_counts(tmp_path):
    # at n=2 and 2^10 nodes most bumps hold no node; their margin is then
    # exactly 0 and the count is what shows the check saw nothing there
    code, report = _run_json(
        tmp_path, ["functional", "--n", "2", "--points", "1024"])
    assert code in (0, 1)
    counts, margins = report["bump_nodes"], report["bump_margins"]
    assert len(counts) == 20
    assert all(isinstance(c, int) and c >= 0 for c in counts)
    assert 0 in counts
    for c, margin in zip(counts, margins):
        assert (c == 0) == (margin == 0.0)


def test_extremality_fails_when_a_bump_saw_no_node(tmp_path):
    # in a box of half-width 40 the bumps lie far outside the node mass, so
    # no bump sees a node and every margin is exactly 0.0; that is no
    # evidence of extremality, and the check must fail, not pass
    code, report = _run_json(
        tmp_path, ["functional", "--n", "1", "--points", "1024",
                   "--box", "40"])
    assert report["bump_nodes"] == [0] * 20
    assert report["bump_margins"] == [0.0] * 20
    assert code == 1
    check, = [c for c in report["checks"]
              if c["name"] == "extremality_margin_nonnegative"]
    assert check["max_residual"] == 1.0
    assert check["tolerance"] == 0.0
    assert check["pass"] is False


def test_functional_draws_each_main_scramble_once(tmp_path, monkeypatch):
    # the base estimate with its bumps, the translate and both dilates share
    # one draw of each main scramble; each of the four fields fits its own
    # pilot, so each pilot scramble is drawn once per field
    draws = {}
    inner = qmc._sobol_chunks

    def counted(d, m, seed, chunk):
        draws[m, seed] = draws.get((m, seed), 0) + 1
        return inner(d, m, seed, chunk)

    monkeypatch.setattr(qmc, "_sobol_chunks", counted)
    code, report = _run_json(
        tmp_path, ["functional", "--points", "4096", "--seed", "3"])
    assert code in (0, 1)
    assert report["samples_log2"] == 12
    assert draws == {(12, 3): 1, (12, 4): 1, (14, 20): 4, (14, 21): 4}


def test_functional_evaluates_bump_jets_once_per_chunk(tmp_path,
                                                      monkeypatch):
    # the 20 bumps of the extremality test are evaluated together: one
    # call of the bump jets per chunk of main nodes, on the (node, bump)
    # pairs of all bumps, not one call per bump; 2^13 nodes are two chunks
    # per scramble
    calls = []
    inner = yamabe._bump_jets

    def counted(points, dx, rho2, inv_r2, lin, const, order):
        calls.append(np.shape(const))
        return inner(points, dx, rho2, inv_r2, lin, const, order)

    monkeypatch.setattr(yamabe, "_bump_jets", counted)
    code, report = _run_json(
        tmp_path, ["functional", "--points", "8192", "--seed", "3"])
    assert code in (0, 1)
    assert report["samples_log2"] == 13
    assert len(calls) == 2 * 2 ** 13 // qmc._CHUNK == 4
    # one parameter row per pair, and more pairs than any one bump holds
    assert sum(shape[0] for shape in calls) >= sum(report["bump_nodes"]) > \
        max(report["bump_nodes"])


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import, and no subcommand needs it:
    # the functional's scrambled Sobol nodes are generated in-tree
    src = str(Path(qcheis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qcheis.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_no_subcommand_loads_scipy():
    # the Sobol nodes are generated in-tree, so even functional runs without
    # scipy; a reintroduced scipy import in any command fails here
    src = str(Path(qcheis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    runs = [["audit", "--points", "5"], ["residual", "--points", "10"],
            ["scal", "--points", "10"], ["torsion", "--points", "10"],
            ["identities", "--points", "10"], ["qmatrix"],
            ["functional", "--points", "1024"]]
    code = ("import os, sys\n"
            "from qcheis.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv + ['--out', os.devnull]) in (0, 1), argv\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_audit_and_import_load_no_scan_modules():
    # each command imports the modules it runs: a bare import and the exact
    # audit load neither the scans' modules, nor the node pass, nor the 7x7
    # algebra; and the node pass loads neither the family nor the tensors
    src = str(Path(qcheis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import os, sys\n"
            "import qcheis.cli\n"
            "names = ('qcheis.yamabe', 'qcheis.tensors', 'qcheis.qmatrix',\n"
            "         'qcheis.qmc')\n"
            "print([m for m in names if m in sys.modules])\n"
            "assert qcheis.cli.main(['audit', '--out', os.devnull]) == 0\n"
            "print([m for m in names if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "[]"]
    code = ("import sys\n"
            "import qcheis.qmc\n"
            "print([m for m in ('qcheis.yamabe', 'qcheis.tensors')\n"
            "       if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]"]


def test_json_report_names_its_environment(tmp_path):
    # in process, numpy loaded before qcheis, so the report echoes whatever
    # OPENBLAS_NUM_THREADS this process has; a fresh CLI process pins it
    _, report = _run_json(tmp_path, ["qmatrix"])
    assert report["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    src = str(Path(qcheis.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-m", "qcheis.cli", "qmatrix"],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    assert json.loads(out)["environment"]["blas_threads"] == "1"


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_exit_two_on_negative_seed(command, capsys):
    # numpy's generators refuse a negative seed; it used to escape as a
    # traceback with exit 1, which reads as a failed check
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --seed" in captured.err
    assert captured.out == ""


def test_exit_two_when_the_report_cannot_be_written(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["qmatrix", "--out", str(out)]) == 2
    assert "cannot write the report" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("args", [
    # a NaN in the dumped residual column, an inf in the dumped deviations,
    # and a NaN in a check that is not dumped (ubar_norm)
    ["residual", "--box", "1e200"], ["scal", "--c0", "1e300"],
    ["torsion", "--c0", "1e200"],
], ids=lambda args: args[0])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_two_on_a_non_finite_report_in_either_format(tmp_path, capsys,
                                                          args, fmt):
    # CSV writes nan and inf as text, so it needs the rule JSON enforces;
    # numpy's overflow warnings are silenced, so (with warnings as errors
    # here) stderr holds the one exit-2 line and nothing else
    argv = args + ["--points", "5", "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("qcheis: non-finite value in the report")
    assert captured.out == ""
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_exit_two_on_a_box_too_large_for_the_identity_polynomials(capsys):
    # box ** 3 overflows a float above a box of about 5.6e102; that used to
    # escape as an OverflowError traceback with exit 1, a failed check
    assert main(["identities", "--points", "5", "--box", "6e102"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("qcheis: configuration error: box 6e+102")


# every (command, flag) pair outside the command table; a flag with a value
# is given one its type would accept
_UNREAD = [(command, flag) for command, (_, _, _, own) in cli._COMMANDS.items()
           for flag in cli._FLAGS if flag not in cli._COMMON + own]


@pytest.mark.parametrize("command,flag", _UNREAD)
def test_exit_two_on_a_flag_the_command_does_not_read(command, flag, capsys):
    # every command used to take every flag and echo it in config, read or
    # not: audit --tol-exact 1 echoed 1 while its checks ran at 0.0
    value = [] if cli._FLAGS[flag].get("action") else ["1"]
    with pytest.raises(SystemExit) as exc:
        main([command, flag, *value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["residual", "--tol", "1e-20"], ["functional", "--tol", "0.5"],
    ["audit", "--s", "3"], ["qmatrix", "--tamper"],
], ids=lambda argv: "-".join(argv[:2]))
def test_exit_two_on_an_abbreviated_flag(argv, capsys):
    # a prefix would resolve to --tol-exact in one command and to --tol-quad
    # in another, so flags are spelled out
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {argv[1]}" in captured.err
    assert captured.out == ""


_FAMILY_KEYS = {"box", "c0", "sigma", "q0", "w0"}
# each command's own config keys beyond n, seed, points and format, and a
# tiny size to run it at
_OWN_KEYS = {
    "audit": (set(), 2),
    "residual": (_FAMILY_KEYS | {"tol_exact"}, 5),
    "scal": (_FAMILY_KEYS | {"tol_exact"}, 5),
    "torsion": (_FAMILY_KEYS | {"tol_exact"}, 5),
    "identities": ({"box", "tol_exact"}, 5),
    "qmatrix": ({"tamper_q"}, 1),
    "functional": (_FAMILY_KEYS | {"tol_quad"}, 1024),
}


@pytest.mark.parametrize("command", sorted(_OWN_KEYS))
def test_config_echoes_exactly_the_command_flags(tmp_path, command):
    own, points = _OWN_KEYS[command]
    code, report = _run_json(tmp_path, [command, "--points", str(points)])
    assert code in (0, 1)
    assert set(report["config"]) == {"n", "seed", "points", "format"} | own


def test_every_command_takes_the_flags_the_readme_table_lists():
    # the README's flag-by-command table against the parser; --tamper-q is
    # suppressed from the help and from the table
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in readme.read_text().splitlines()
            if line.startswith(("| flag ", "| `--"))]
    header, *rows = rows
    listed = {command: {row[0].strip("`") for row in rows
                        if row[header.index(command)] == "x"}
              for command in header[2:]}
    sub = build_parser()._subparsers._group_actions[0]
    taken = {name: {opt for action in parser._actions
                    if action.help is not argparse.SUPPRESS
                    for opt in action.option_strings
                    if opt not in ("-h", "--help")}
             for name, parser in sub.choices.items()}
    assert listed == taken


def test_exit_two_on_malformed_base_point():
    assert main(["residual", "--q0", "1,2,3"]) == 2  # needs 4n = 4 entries
    assert main(["residual", "--w0", "1,2"]) == 2


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["residual", "--n", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["residual", "--points", "0"])
    assert exc.value.code == 2


def test_base_point_flags_are_echoed(tmp_path):
    code, report = _run_json(
        tmp_path, ["residual", "--points", "20",
                   "--q0", "0.5,0,-0.25,1", "--w0", "0,0.125,-1"])
    assert code == 0
    assert report["config"]["q0"] == [0.5, 0.0, -0.25, 1.0]
    assert report["config"]["w0"] == [0.0, 0.125, -1.0]


def test_seeded_base_point_is_echoed(tmp_path):
    # a base point drawn from the seed is echoed as drawn: the first 4n + 3
    # numbers of the seeded generator, in the half-width box / 2
    code, report = _run_json(tmp_path, ["residual", "--n", "2",
                                        "--points", "20", "--seed", "4"])
    assert code == 0
    rng = np.random.default_rng(4)
    assert report["config"]["q0"] == rng.uniform(-1, 1, size=8).tolist()
    assert report["config"]["w0"] == rng.uniform(-1, 1, size=3).tolist()


def test_reports_are_deterministic_modulo_wall_time(tmp_path):
    wall = re.compile(r'"wall_ms": \d+')
    for args in (["audit", "--seed", "9"],
                 ["residual", "--points", "100", "--seed", "9"],
                 ["identities", "--points", "40", "--seed", "9"]):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ta = wall.sub('"wall_ms": X', a.read_text())
        tb = wall.sub('"wall_ms": X', b.read_text())
        assert ta == tb


def _torsion_checks_by_loop(n, seed, points):
    """The identities torsion checks as one single-sample call per seed,
    residuals listed in the order the report averages them."""
    from qcheis.heis import HorizontalFrame
    from qcheis.tensors import (aux_forms_from_torsion, dd_ee_identity_check,
                                f_alternative_from_ds, random_torsion,
                                relative_residual)
    frame = HorizontalFrame(n)
    vals = {"d_sum_decomposition": [], "f_from_d_cyclic": []}
    for k in range(points):
        td = random_torsion(n, seed + k, frame)
        aux = aux_forms_from_torsion(td, frame)
        vals["d_sum_decomposition"].append(
            relative_residual(aux.D, -td.T0 @ td.dh / td.h))
        for direct, cyclic in zip(aux.Fs, f_alternative_from_ds(aux, frame)):
            vals["f_from_d_cyclic"].append(relative_residual(direct, cyclic))
        for key, v in dd_ee_identity_check(td, frame).residuals.items():
            vals.setdefault(f"tensor_identity_{key}", []).append(v)
    return {name: (float(np.max(v)), float(np.mean(v)))
            for name, v in vals.items()}


@pytest.mark.parametrize("n", [1, 2])
def test_identities_torsion_checks_equal_the_per_sample_loop(tmp_path, n):
    # 300 samples run as two full batches and a partial one; every row is
    # computed by the same calls as a single sample, so max and mean agree
    # exactly (bound 0), not just to round-off
    code, report = _run_json(tmp_path, ["identities", "--n", str(n),
                                        "--seed", "4", "--points", "300"])
    assert code == 0
    got = {c["name"]: (c["max_residual"], c["mean_residual"])
           for c in report["checks"] if not c["name"].startswith("jet_")}
    assert got == _torsion_checks_by_loop(n, 4, 300)


@pytest.mark.parametrize("n", [1, 2])
def test_identities_fail_on_a_twist_missing_one_complex_structure(
        tmp_path, monkeypatch, n):
    # D takes its twist sum_s dh(xi_s) dh(I_s .) from _twist, and the jet
    # identities take theirs from the frame bracket, so a _twist that drops
    # s = 2 fails the report at defaults, in the jet rows alone, by far more
    # than their 1e-9 tolerance (0.2-0.8 at seed 0)
    def without_s2(xi, v, Is):
        return sum(xi[..., s, None] * _apply(Is[s].T, v) for s in (0, 1))

    monkeypatch.setattr(tensors, "_twist", without_s2)
    code, report = _run_json(tmp_path, ["identities", "--n", str(n)])
    assert code == 1
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["jet_sum_identity", "jet_f_differential"]
    assert all(c["max_residual"] > 0.1 for c in report["checks"]
               if c["name"] in failed)


def test_csv_point_dump_for_scan_commands(tmp_path):
    out = tmp_path / "dump.csv"
    assert main(["residual", "--points", "25", "--format", "csv",
                 "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0] == "index"
    assert rows[0][-1] == "relative_residual"
    assert len(rows) == 26
    assert float(rows[1][-1]) < 1e-9


def _dumped_by_one_batch(command, params, pts):
    """The column a scan command dumps, from one evaluation over all pts."""
    frame = HorizontalFrame(params.n)
    s_theta = YamabeConstants.from_params(params).s_theta
    if command == "residual":
        r, t1, t2 = yamabe_residual(phi_explicit(params), s_theta, pts, frame,
                                    return_terms=True)
        return np.abs(r) / np.maximum(np.maximum(np.abs(t1), np.abs(t2)),
                                      1e-30)
    h = h_explicit(params)
    if command == "scal":
        return np.abs(conformal_scal(h, pts, frame) - s_theta) / s_theta
    t0bar, _ = conformal_torsion(h, pts, frame)
    return np.sqrt(np.einsum("nab,nab->n", t0bar, t0bar))


def _read_dump(path):
    rows = list(csv.reader(path.read_text().splitlines()))[1:]
    return (np.array([int(row[0]) for row in rows]),
            np.array([[float(v) for v in row[1:-1]] for row in rows]),
            np.array([float(row[-1]) for row in rows]))


@pytest.mark.parametrize("command", SCANS)
def test_scan_blocks_equal_one_batch_evaluation(tmp_path, command):
    # the scans evaluate their points in blocks of _SCAN_CHUNK rows; the
    # values they dump equal one evaluation over all points, bit for bit,
    # with a twisted base and with q0 = 0, where h_explicit skips the twist
    points = 2 * cli._SCAN_CHUNK + 123
    w0 = [0.4, 0.0, -0.7]
    out = tmp_path / "dump.csv"
    for q0 in ([0.3, -0.2, 0.1, 0.5], [0.0] * 4):
        assert main([command, "--points", str(points), "--seed", "2",
                     "--q0", ",".join(map(str, q0)),
                     "--w0", ",".join(map(str, w0)),
                     "--format", "csv", "--out", str(out)]) == 0
        index, pts, dumped = _read_dump(out)
        assert index.tolist() == list(range(points))
        params = ExtremalParams(n=1, c0=1.0, sigma=1.0,
                                base=GroupPoint.from_flat(q0 + w0, 1))
        assert np.array_equal(dumped,
                              _dumped_by_one_batch(command, params, pts))


@pytest.mark.parametrize("command", SCANS)
def test_worst_point_is_the_dump_row_with_the_largest_residual(tmp_path,
                                                               command):
    # the dumped column's check names the point of its largest residual;
    # the run spans two blocks, so the argmax is taken across them
    args = [command, "--n", "2", "--seed", "6", "--points", "5000"]
    code, report = _run_json(tmp_path, args)
    assert code == 0
    dump = tmp_path / "dump.csv"
    assert main(args + ["--format", "csv", "--out", str(dump)]) == 0
    _, pts, dumped = _read_dump(dump)
    worst = {c["name"]: c.get("worst_point") for c in report["checks"]}
    name = {"residual": "yamabe_pde_relative_residual",
            "scal": "scal_matches_s_theta", "torsion": "t0bar_norm"}[command]
    assert worst.pop(name) == pts[np.argmax(dumped)].tolist()
    # the other per-point checks name a point of the scan too; the single
    # statistic scal_std_over_mean names none
    for other, point in worst.items():
        if other == "scal_std_over_mean":
            assert point is None
        else:
            assert point in pts.tolist()


@pytest.mark.parametrize("command", SCANS)
def test_scan_memory_is_flat_in_points(command):
    # the traced peak grows by the points and the per-point arrays kept for
    # the report (at most d + 2 columns a row; d + 4 allowed), not by the
    # order-2 arrays, which exist for one block at a time
    n = 1
    d = 4 * n + 3
    chunk = cli._SCAN_CHUNK
    run = getattr(cli, f"cmd_{command}")

    def traced_peak(points):
        args = build_parser().parse_args(
            [command, "--n", str(n), "--points", str(points)])
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            run(args, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - before

    traced_peak(10)
    growth = traced_peak(4 * chunk) - traced_peak(chunk)
    assert growth <= 3 * chunk * (d + 4) * 8


def test_csv_point_dump_is_byte_identical_to_csv_writer():
    # the point dump joins its rows directly; it must be what csv.writer
    # writes for the same rows, down to signed zeros, extreme exponents and
    # the \r\n line ends
    specials = [0.0, -0.0, 1e-300, 1e300, 5e-324, -1.5, 2.0, 0.1]
    rng = np.random.default_rng(11)
    pts = np.concatenate([np.array(specials).reshape(2, 4),
                          rng.normal(size=(30, 4)) * 10.0 ** rng.integers(
                              -20, 20, size=(30, 4))])
    vals = np.concatenate([[-0.0, 1e300], rng.uniform(size=30)])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "p0", "p1", "p2", "p3", "t0bar_norm"])
    for i in range(pts.shape[0]):
        writer.writerow([i] + [repr(float(v)) for v in pts[i]]
                        + [repr(float(vals[i]))])
    got = "".join(_render_csv(None, ("t0bar_norm", pts, vals)))
    assert got == buf.getvalue()
    assert "".join(_render_csv(None, ("x", pts[:0], vals[:0]))) \
        == "index,p0,p1,p2,p3,x\r\n"


def test_csv_checks_table_is_byte_identical_to_csv_writer():
    report = {"checks": [
        {"name": "a_check", "max_residual": 1e-300, "mean_residual": -0.0,
         "tolerance": 0.0, "pass": True},
        {"name": "n2_other", "max_residual": 2.5, "mean_residual": 0.1,
         "tolerance": 1e-9, "pass": False}]}
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "max_residual", "mean_residual", "tolerance",
                     "pass"])
    for c in report["checks"]:
        writer.writerow([c["name"], repr(c["max_residual"]),
                         repr(c["mean_residual"]), repr(c["tolerance"]),
                         c["pass"]])
    assert "".join(_render_csv(report, None)) == buf.getvalue()


def test_csv_render_memory_is_flat_in_points():
    # the point dump is rendered one block of _SCAN_CHUNK rows at a time,
    # so the text held at once does not grow with the number of rows; a
    # dump rendered as one string, with its row list, grows by about 540
    # bytes a row (6.7 MB here), against about 14 kB for the blocks
    chunk = cli._SCAN_CHUNK
    rng = np.random.default_rng(1)
    big_pts = rng.uniform(-2, 2, size=(4 * chunk, 7))
    big_vals = rng.uniform(size=4 * chunk)

    def traced_peak(rows):
        dump = ("relative_residual", big_pts[:rows], big_vals[:rows])
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            with open(os.devnull, "w") as sink:
                sink.writelines(_render_csv(None, dump))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - before

    traced_peak(10)
    growth = traced_peak(4 * chunk) - traced_peak(chunk)
    assert growth <= chunk * 16


def _csv_writer_dump(label, pts, vals):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index"] + [f"p{i}" for i in range(pts.shape[1])]
                    + [label])
    for i in range(pts.shape[0]):
        writer.writerow([i] + [repr(float(v)) for v in pts[i]]
                        + [repr(float(vals[i]))])
    return buf.getvalue()


@pytest.mark.parametrize("d", [7, 11])
def test_csv_point_dump_rows_match_csv_writer_across_blocks(d):
    # 10 050 rows: the index widens inside the first block (9 -> 10,
    # 99 -> 100, 999 -> 1000) and inside the third (9999 -> 10000), which
    # ends partial; values of every sign and size, zeros and integers
    chunk = cli._SCAN_CHUNK
    rows = 2 * chunk + 1858
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(rows, d)) * 10.0 ** rng.integers(-30, 30,
                                                           (rows, d))
    pts[::97] = 0.0
    pts[5::89] = np.round(pts[5::89])
    vals = rng.uniform(size=rows) * 10.0 ** rng.integers(-20, 3, rows)
    pieces = list(_render_csv(None, ("relative_residual", pts, vals)))
    assert len(pieces) == 1 + 3
    assert "".join(pieces) == _csv_writer_dump("relative_residual", pts,
                                               vals)


class _FailingStdout(io.StringIO):
    # a stdout whose every write fails, as on a closed pipe or a full
    # disk; it has no file descriptor
    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


@pytest.mark.parametrize("exc", [BrokenPipeError(32, "Broken pipe"),
                                 OSError(28, "No space left on device")],
                         ids=["pipe", "full"])
@pytest.mark.parametrize("argv", [["qmatrix"],
                                  ["residual", "--points", "5000",
                                   "--format", "csv"]], ids=["json", "csv"])
def test_exit_two_when_stdout_cannot_be_written(argv, exc, capsys,
                                                monkeypatch):
    # exit 1 means a check failed; a report that does not reach stdout is
    # the exit-2 error an unwritable --out already is
    monkeypatch.setattr(sys, "stdout", _FailingStdout(exc))
    assert main(argv) == 2
    assert "qcheis: cannot write the report" in capsys.readouterr().err


def _cli_process(args, **kwargs):
    src = str(Path(qcheis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-m", "qcheis.cli"] + args,
                            env=env, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full here")
def test_exit_two_writing_to_a_full_device():
    with open("/dev/full", "w") as full:
        proc = _cli_process(["audit"], stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode().splitlines() == [
        "qcheis: cannot write the report: [Errno 28] No space left on device"]


def _read_100_bytes_and_leave(points):
    """(exit status, stderr lines) of a CSV dump of --points rows whose
    reader closes the pipe after 100 bytes."""
    proc = _cli_process(["residual", "--points", points, "--format", "csv"],
                        stdout=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    return proc.wait(timeout=60), err.splitlines()


def test_exit_two_on_a_closed_pipe():
    # as `qcheis residual ... | head -c 100`: the dump outgrows the pipe's
    # buffer, the reader leaves, and no traceback or "Exception ignored"
    # line follows the one message. Three blocks: the write of a piece
    # the pipe cut short returns without an error, and the next one fails
    assert _read_100_bytes_and_leave("9000") == (2, [
        "qcheis: cannot write the report: [Errno 32] Broken pipe"])


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
def test_exit_two_on_a_pipe_closed_during_the_last_piece(unbuffered,
                                                         monkeypatch):
    # one block of 4 000 rows: the reader cuts the last write short. On an
    # unbuffered stdout (python -u, PYTHONUNBUFFERED) that write returns a
    # short count without an error, which alone tells that the output was
    # cut; a buffered one raises the error itself
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    assert _read_100_bytes_and_leave("4000") == (2, [
        "qcheis: cannot write the report: [Errno 32] Broken pipe"])


def test_csv_checks_table_for_exact_commands(tmp_path):
    out = tmp_path / "audit.csv"
    assert main(["audit", "--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["name", "max_residual", "mean_residual", "tolerance",
                      "pass"]
    assert all(row[-1] == "True" for row in rows[1:])


def test_stdout_default_output(capsys):
    code = main(["qmatrix"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["command"] == "qmatrix"


def test_functional_smoke_at_tiny_sampling(tmp_path):
    # not an accuracy statement, just the plumbing: at 2^10 nodes, the
    # fewest functional accepts, the checks may fail their tolerances but
    # the schema and exit contract must hold
    code, report = _run_json(tmp_path, ["functional", "--points", "1024"])
    assert code in (0, 1)
    assert {"ratio", "ratio_error", "ratio_exact", "estimates",
            "bump_margins", "samples_log2"} <= set(report)
    assert len(report["bump_margins"]) == 20
    names = [c["name"] for c in report["checks"]]
    assert "translation_invariance" in names
    assert "extremality_margin_nonnegative" in names
    assert report["samples_log2"] == 10
    # each estimate against the closed-form ratio, which the invariance
    # checks compare with the base estimate instead
    exact = report["ratio_exact"]
    assert exact == yamabe.extremal_ratio(1)
    ests = report["estimates"]
    assert [e["name"] for e in ests] == ["base", "translated", "dilated_0.5",
                                         "dilated_2.0"]
    assert (ests[0]["ratio"], ests[0]["error"]) == \
        (report["ratio"], report["ratio_error"])
    for e in ests:
        assert set(e) == {"name", "ratio", "error", "deviation"}
        assert e["deviation"] == e["ratio"] - exact
    for check, e in zip(report["checks"][:3], ests[1:]):
        assert check["max_residual"] == \
            abs(e["ratio"] - report["ratio"]) / abs(report["ratio"])


@pytest.mark.parametrize("points", ["64", "3000", "1023", "1536"])
def test_functional_points_must_be_a_power_of_two_of_at_least_1024(
        points, tmp_path, capsys):
    # --points 64 and 3000 used to be rounded silently to 2^10 and 2^12
    # nodes, while the report echoed the value given
    out = tmp_path / "report.json"
    assert main(["functional", "--points", points, "--out", str(out)]) == 2
    assert "power of two >= 1024" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,callee", [
    ("residual", "_scan"), ("functional", "functional_estimates"),
])
def test_exit_two_when_a_size_cannot_be_held(command, callee, monkeypatch,
                                            capsys):
    # numpy raises MemoryError for an array the machine cannot allocate,
    # for instance residual --points 10^12; that is a configuration error,
    # not a failed check and not a traceback. The callee is replaced, so
    # no test ever asks for a huge array. functional imports its callee
    # from yamabe when it runs, so the patch goes where the command looks.
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 52.2 TiB for an array")

    monkeypatch.setattr(cli if callee == "_scan" else yamabe, callee, refuse)
    assert main([command, "--points", "1024"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a size the machine cannot hold" in captured.err
    assert "Traceback" not in captured.err


_ARG_TYPES = {
    cli._finite: lambda v: isinstance(v, float) and math.isfinite(v),
    cli._positive: lambda v: isinstance(v, float) and math.isfinite(v)
    and v > 0,
    cli._tolerance: lambda v: isinstance(v, float) and math.isfinite(v)
    and v >= 0,
    cli._seed: lambda v: isinstance(v, int) and v >= 0,
    cli._count: lambda v: isinstance(v, int) and v >= 1,
    cli._finite_reals: lambda v: isinstance(v, list) and len(v) > 0
    and all(isinstance(x, float) and math.isfinite(x) for x in v),
}

_NUMBERISH = st.one_of(
    st.text(),
    st.text(alphabet="0123456789+-.,eEinfatyINFATY_ ", max_size=24),
    st.floats().map(repr),
    st.integers().map(str),
    st.lists(st.floats().map(repr), min_size=1, max_size=5).map(",".join),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(text=_NUMBERISH)
@example(text="-1")
@example(text="-0.0")
@example(text="0")
@example(text="nan")
@example(text="-inf")
@example(text="1e999")
@example(text="1,,2")
def test_argument_types_return_a_valid_value_or_a_usage_error(text):
    for parse, valid in _ARG_TYPES.items():
        try:
            value = parse(text)
        except argparse.ArgumentTypeError:
            continue
        assert valid(value), (parse.__name__, text, value)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(points=st.integers(1, 2 ** 20).filter(
    lambda p: p < 1024 or p & (p - 1)))
def test_functional_refuses_any_other_node_count(points):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["functional", "--points", str(points)])
    assert code == 2
    assert out.getvalue() == ""
    assert "power of two >= 1024" in err.getvalue()


def test_parser_lists_all_commands():
    parser = build_parser()
    # argparse keeps the subcommand names in the last action
    sub = parser._subparsers._group_actions[0]
    assert set(sub.choices) == {"audit", "residual", "scal", "torsion",
                                "identities", "qmatrix", "functional"}
