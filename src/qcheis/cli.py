"""qcheis: command-line verification harness.

Seven subcommands, one per suite: audit (exact frame/contact checks),
residual (Yamabe PDE scan), scal (scalar-curvature constancy), torsion
(qc-Einstein vanishing), identities (algebraic identity suites), qmatrix
(exact spectral certificate), functional (Folland-Stein invariance and
extremality). Every command emits a report with the same shape:

    {command, config, checks: [{name, max_residual, mean_residual,
     tolerance, pass}], pass, wall_ms,
     environment: {python, numpy, blas_threads}}

as JSON (default) or CSV; scan commands dump per-point residuals in CSV
mode instead. A command takes only the flags it reads (_COMMANDS), and
config echoes each of them but --out as applied: a base point drawn from
the seed is echoed as drawn. The scans (residual, scal, torsion) share one
set-up, which evaluates their points in blocks of a fixed number of rows;
the CSV dump is written block by block once the scan has finished, so the
memory they take beyond the points and the per-point results does not grow
with --points; its numbers are repr's text, computed a block at a time by
floatrepr. Each command imports the modules it runs, so `import qcheis.cli`
loads none of yamabe, qmc, tensors and qmatrix. A scan check over
per-point residuals also names the point of the largest one as
worst_point. A functional bump whose support held no node fails the
extremality check with residual 1.0, as its margin of 0.0 says nothing.
functional also reports the exact ratio of the extremals as ratio_exact
and each of its four estimates' deviation from it.

Exit status: 0 all checks pass, 1 a check failed, 2 bad usage or
configuration: a flag the command does not take, or an abbreviated one; a
value its flag's type refuses (a non-finite real, a --box <= 0, a --seed
< 0, a --points < 1 or a tolerance < 0); a functional --points that is not
a power of two from 1024 to 2^30; an identities --box on which its
polynomials overflow a float. A report that would hold a non-finite
number, or that cannot be written to --out or stdout, is not written, and
neither is one that needs a size the machine cannot hold: exit 2 with a
message. With a fixed seed the JSON output is byte identical between runs
except for wall_ms.

Checks that produce a single statistic (exact audits, the spectral
certificate) report it as both max_residual and mean_residual.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from fractions import Fraction

import numpy as np

from .heis import ContactForm, GroupPoint, HorizontalFrame, frame_audit
from .jets import DomainError, random_positive_polynomial

# per-class default tolerances; --tol-exact / --tol-quad override whole classes
_TOL_JET = 1e-9
_TOL_TENSOR = 1e-10
_TOL_STRUCT = 1e-12
_TOL_QUAD = 1e-4
_TOL_ZERO = 0.0

# torsion samples per batch in `identities`
_TORSION_BATCH = 128

# scan points per block in `residual`, `scal` and `torsion`, and rows per
# piece of their CSV dump
_SCAN_CHUNK = 4096

# the CSV line end as a little-endian 64-bit word
_CRLF = np.uint64(int.from_bytes(b"\r\n", "little"))

# the dilation factors under which `functional` checks invariance, and the
# names of its estimates in the report
_DILATIONS = (0.5, 2.0)
_ESTIMATE_NAMES = ["base", "translated"] + [f"dilated_{lam}"
                                            for lam in _DILATIONS]


def _check(name, values, tolerance, points=None):
    """One report row from a scalar or an array of residuals; given the
    points the residuals belong to, the row names the worst of them."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    mx = float(np.max(arr))
    row = {
        "name": name,
        "max_residual": mx,
        "mean_residual": float(np.mean(arr)),
        "tolerance": tolerance,
        "pass": bool(mx <= tolerance),
    }
    if points is not None:
        row["worst_point"] = points[np.argmax(arr)].tolist()
    return row


def _resolve_base(args, rng):
    """The family base point from --q0 and --w0, or seeded at random; drawn
    values are written back to args, so the report echoes the base used."""
    for flag, size in (("q0", 4 * args.n), ("w0", 3)):
        value = getattr(args, flag)
        if value is None:
            setattr(args, flag, rng.uniform(-args.box / 2, args.box / 2,
                                            size=size).tolist())
        elif len(value) != size:
            raise ValueError(f"--{flag} needs {size} comma-separated reals")
    return GroupPoint.from_flat(args.q0 + args.w0, args.n)


def _in_blocks(per_block, items, size):
    """The dict of arrays per_block returns, evaluated on size items at a
    time and concatenated key by key; the working arrays of one block are
    freed before the next, so memory is flat in the number of items."""
    blocks = [per_block(items[lo:lo + size])
              for lo in range(0, len(items), size)]
    return {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}


def _scan(args, rng, make_field, per_row):
    """The set-up of residual, scal and torsion: the family at the resolved
    base point, --points points drawn in the box, and the per-point arrays
    per_row(field, rows, frame, s_theta) returns for
    field = make_field(params), in blocks of _SCAN_CHUNK rows. Returns
    (s_theta, points, arrays)."""
    from .yamabe import ExtremalParams
    base = _resolve_base(args, rng)
    params = ExtremalParams(n=args.n, c0=args.c0, sigma=args.sigma, base=base)
    frame = HorizontalFrame(args.n)
    pts = rng.uniform(-args.box, args.box, size=(args.points, 4 * args.n + 3))
    field = make_field(params)
    s_theta = params.s_theta
    arrays = _in_blocks(lambda rows: per_row(field, rows, frame, s_theta),
                        pts, _SCAN_CHUNK)
    return s_theta, pts, arrays


def _finite(text):
    """argparse type: a finite real; nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}") \
            from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _count(text, least=1):
    """argparse type: an integer >= least, by default 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") \
            from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {text!r}")
    return value


def _seed(text):
    """argparse type: an integer >= 0, as numpy's generators need."""
    return _count(text, least=0)


def _positive(text):
    """argparse type: a finite real > 0."""
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _tolerance(text):
    """argparse type: a finite real >= 0."""
    value = _finite(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _finite_reals(text):
    """argparse type: comma-separated finite reals, as a list."""
    return [_finite(v) for v in text.split(",")]


def _tol(override, default):
    """The class default unless its override flag was given."""
    return default if override is None else override


# ---------------------------------------------------------------------------
# commands; each returns (checks, extra_payload, point_rows or None)


def cmd_audit(args, rng):
    n = args.n
    rep = frame_audit(HorizontalFrame(n), ContactForm(n),
                      n_points=args.points, seed=args.seed)
    checks = [_check(f"n{n}_{name}", float(v), _TOL_ZERO)
              for name, v in rep.violations.items()]
    return checks, None, None


def cmd_residual(args, rng):
    from .tensors import relative_residual
    from .yamabe import phi_explicit, yamabe_residual

    def per_row(phi, rows, frame, s_theta):
        _, t1, t2 = yamabe_residual(phi, s_theta, rows, frame,
                                    return_terms=True)
        return {"rel": relative_residual(t1[:, None], -t2[:, None])}

    s_theta, pts, out = _scan(args, rng, phi_explicit, per_row)
    checks = [_check("yamabe_pde_relative_residual", out["rel"],
                     _tol(args.tol_exact, _TOL_JET), pts)]
    return (checks, {"s_theta": s_theta},
            ("relative_residual", pts, out["rel"]))


def cmd_scal(args, rng):
    from .yamabe import conformal_scal, h_explicit

    def per_row(h, rows, frame, s_theta):
        scal = conformal_scal(h, rows, frame)
        return {"scal": scal, "rel": np.abs(scal - s_theta) / s_theta}

    s_theta, pts, out = _scan(args, rng, h_explicit, per_row)
    std_over_mean = float(np.std(out["scal"]) / np.mean(out["scal"]))
    tol = _tol(args.tol_exact, _TOL_JET)
    checks = [
        _check("scal_matches_s_theta", out["rel"], tol, pts),
        _check("scal_std_over_mean", std_over_mean, tol),
    ]
    return (checks, {"s_theta": s_theta},
            ("scal_rel_deviation", pts, out["rel"]))


def cmd_torsion(args, rng):
    from .yamabe import conformal_torsion, h_explicit

    def per_row(h, rows, frame, s_theta):
        t0bar, ubar = conformal_torsion(h, rows, frame)
        return {"t0bar_norm": np.sqrt(np.einsum("nab,nab->n", t0bar, t0bar)),
                "ubar_norm": np.sqrt(np.einsum("nab,nab->n", ubar, ubar))}

    _, pts, out = _scan(args, rng, h_explicit, per_row)
    checks = [_check(name, v, _tol(args.tol_exact, _TOL_JET), pts)
              for name, v in out.items()]
    return checks, None, ("t0bar_norm", pts, out["t0bar_norm"])


def cmd_identities(args, rng):
    from .tensors import (aux_forms_from_torsion, dd_ee_identity_check,
                          f_alternative_from_ds, random_torsion,
                          relative_residual, universal_identity_suite)
    n = args.n
    frame = HorizontalFrame(n)
    tol_s = _tol(args.tol_exact, _TOL_STRUCT)
    tol_l = _tol(args.tol_exact, _TOL_TENSOR)
    tol_j = _tol(args.tol_exact, _TOL_JET)

    def torsion_rows(seeds):
        td = random_torsion(n, seeds, frame)
        aux = aux_forms_from_torsion(td, frame)
        direct_d = -(td.T0 @ td.dh[..., None])[..., 0] / td.h[:, None]
        rows = {
            "d_sum_decomposition": relative_residual(aux.D, direct_d),
            # sample-major, as the F_s of each sample sit side by side
            "f_from_d_cyclic": np.stack(
                [relative_residual(direct, cyclic) for direct, cyclic
                 in zip(aux.Fs, f_alternative_from_ds(aux, frame))],
                axis=1).ravel(),
        }
        for key, v in dd_ee_identity_check(td, frame).residuals.items():
            rows[f"tensor_identity_{key}"] = v
        return rows

    # torsion samples run in batches along a leading axis; bounded batches
    # keep memory flat in --points, as each sample holds (4n)^3 entries
    rows = _in_blocks(torsion_rows, range(args.seed, args.seed + args.points),
                      _TORSION_BATCH)
    checks = [_check(name, v, tol_l if name.startswith("tensor_") else tol_s)
              for name, v in rows.items()]

    d = 4 * n + 3
    n_fields = max(1, min(200, args.points // 5))
    sum_res, df_res = [], []
    for k in range(n_fields):
        field_rng = np.random.default_rng(args.seed + 10_000 + k)
        h = random_positive_polynomial(d, field_rng, degree=3, terms=8,
                                       box=args.box)
        pts = field_rng.uniform(-args.box, args.box, size=(5, d))
        rep = universal_identity_suite(h, pts, frame)
        sum_res.append(rep.residuals["sum_identity"])
        df_res.append(rep.residuals["f_differential"])
    checks.append(_check("jet_sum_identity", sum_res, tol_j))
    checks.append(_check("jet_f_differential", df_res, tol_j))
    return checks, None, None


def cmd_qmatrix(args, rng):
    from .qmatrix import (CLAIMED_FACTORS, build_q, certify, poly_eval,
                          poly_mod_quadratic, spectral_certificate)
    q = build_q()
    if args.tamper_q:
        q = [list(r) for r in q]
        q[0][1] += Fraction(1, 100)
        q[1][0] += Fraction(1, 100)

    # the tampered matrix fails certify's claims, so it is only reported
    cert = spectral_certificate(q) if args.tamper_q else certify(q)
    poly = cert.char_coeffs
    _, quad_a, quad_b = (factor for factor, _, _ in CLAIMED_FACTORS)
    at_one = abs(poly_eval(poly, Fraction(1)))
    rem_a = max(abs(c) for c in poly_mod_quadratic(poly, quad_a))
    rem_b = max(abs(c) for c in poly_mod_quadratic(poly, quad_b))
    minors_ok = 0.0 if cert.positive_definite else 1.0
    shifted_ok = 0.0 if cert.shifted_minors_nonnegative else 1.0

    claimed = sorted(v for _, mult, roots in CLAIMED_FACTORS
                     for v, _ in roots for _ in range(mult))
    floats = np.sort(np.linalg.eigvalsh(np.array(q, dtype=float)))
    eig_dev = float(np.max(np.abs(floats - np.array(claimed))))

    checks = [
        _check("char_poly_at_1", float(at_one), _TOL_ZERO),
        _check("char_poly_mod_quad_73", float(rem_a), _TOL_ZERO),
        _check("char_poly_mod_quad_89", float(rem_b), _TOL_ZERO),
        _check("leading_minors_positive", minors_ok, _TOL_ZERO),
        _check("shifted_minors_nonnegative", shifted_ok, _TOL_ZERO),
        _check("float_spectrum_cross_check", eig_dev, 1e-12),
    ]
    extra = None if args.tamper_q else {"certificate": cert.to_dict()}
    return checks, extra, None


def cmd_functional(args, rng):
    from .yamabe import (ExtremalParams, bump_field, dilated_field,
                         extremal_ratio, functional_estimates, phi_explicit,
                         translated_field)
    n = args.n
    # the QMC pass draws 2^m nodes per scramble, so --points must name that
    # count exactly rather than be rounded to it
    m = args.points.bit_length() - 1
    if m < 10 or args.points != 2 ** m:
        raise ValueError("functional needs --points a power of two >= 1024, "
                         f"got {args.points}")
    base = _resolve_base(args, rng)
    params = ExtremalParams(n=n, c0=args.c0, sigma=args.sigma,
                            base=GroupPoint.identity(n))
    phi = phi_explicit(params)
    tol = _tol(args.tol_quad, _TOL_QUAD)

    fields = [phi, translated_field(phi, base)] + [
        dilated_field(phi, lam) for lam in _DILATIONS]
    bumps = [bump_field(n, seed=args.seed + 500 + k, box=args.box)
             for k in range(20)]
    # every estimate shares one draw per scramble, and the bumps share Phi's
    # nodes, so the quadrature noise common to R(Phi) and R(Phi + eps b)
    # cancels in the margins
    (est, *moved), perturbed = functional_estimates(
        fields, bumps, 0.05, n, samples_log2=m, seed=args.seed)
    names = ["translation_invariance"] + [f"dilation_invariance_lam_{lam}"
                                          for lam in _DILATIONS]
    checks = [_check(name, abs(est_m.ratio - est.ratio) / abs(est.ratio), tol)
              for name, est_m in zip(names, moved)]

    margins = [(est_p.ratio - est.ratio) / est.ratio for est_p in perturbed]
    nodes = [est_p.support_nodes for est_p in perturbed]
    # a bump whose support held no node has margin 0.0 by construction, which
    # says nothing about extremality, so it counts as a violation of 1.0
    worst = max(0.0, *(1.0 if k == 0 else -margin
                       for margin, k in zip(margins, nodes)))
    checks.append(_check("extremality_margin_nonnegative", worst, _TOL_ZERO))

    exact = extremal_ratio(n)
    extra = {
        "ratio": est.ratio,
        "ratio_error": est.error,
        "ratio_exact": exact,
        "estimates": [{"name": name, "ratio": e.ratio, "error": e.error,
                       "deviation": e.ratio - exact}
                      for name, e in zip(_ESTIMATE_NAMES, [est, *moved])],
        "bump_margins": margins,
        "bump_nodes": nodes,
        "samples_log2": m,
    }
    return checks, extra, None


# every flag of the CLI, declared once by its argparse keywords; --points
# takes its default from the command
_FLAGS = {
    "--n": dict(type=int, default=1, choices=(1, 2),
                help="quaternionic dimension (default 1)"),
    "--seed": dict(type=_seed, default=0),
    "--points": dict(type=_count,
                     help="scan size; for functional the QMC nodes per "
                          "scramble, a power of two from 1024 to 2^30"),
    "--box": dict(type=_positive, default=2.0,
                  help="half-width of the sampling box"),
    "--c0": dict(type=_finite, default=1.0),
    "--sigma": dict(type=_finite, default=1.0),
    "--q0": dict(type=_finite_reals,
                 help="4n comma-separated reals; default seeded random"),
    "--w0": dict(type=_finite_reals,
                 help="3 comma-separated reals; default seeded random"),
    "--tol-exact": dict(type=_tolerance,
                        help="override for the jet/algebraic tolerances"),
    "--tol-quad": dict(type=_tolerance,
                       help="override for quadrature-based tolerances"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(help="write the report here instead of stdout"),
    "--tamper-q": dict(action="store_true", help=argparse.SUPPRESS),
}

# the flags every command takes, those of the extremal family and those of
# the scans
_COMMON = ("--n", "--seed", "--points", "--format", "--out")
_FAMILY = ("--box", "--c0", "--sigma", "--q0", "--w0")
_SCAN = _FAMILY + ("--tol-exact",)

# each command: its function, its help, its default --points and the flags
# it reads beyond _COMMON
_COMMANDS = {
    "audit": (cmd_audit, "exact frame and contact-form audit", 100, ()),
    "residual": (cmd_residual, "Yamabe PDE residual scan", 2000, _SCAN),
    "scal": (cmd_scal, "conformal scalar-curvature constancy scan", 2000,
             _SCAN),
    "torsion": (cmd_torsion, "conformal torsion vanishing scan", 2000, _SCAN),
    "identities": (cmd_identities, "algebraic identity suites", 500,
                   ("--box", "--tol-exact")),
    "qmatrix": (cmd_qmatrix, "exact spectral certificate of the 7x7 matrix", 1,
                ("--tamper-q",)),
    "functional": (cmd_functional, "Folland-Stein invariance and extremality",
                   2 ** 18, _FAMILY + ("--tol-quad",)),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="qcheis",
        description="verification suites for qc geometry on the "
                    "quaternionic Heisenberg group")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, points, own) in _COMMANDS.items():
        # no abbreviations: a prefix such as --tol would name a different
        # flag in each command
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, spec in _FLAGS.items():
            if flag in _COMMON + own:
                sp.add_argument(flag, **spec)
        sp.set_defaults(points=points)
    return p


def _render_csv(report, point_dump):
    """The CSV report as pieces of text: the point dump's header, then one
    piece per _SCAN_CHUNK rows, so memory is flat in --points; or the checks
    table in one piece. No field (an int, a float repr, a bool or a plain
    label) ever needs quoting, so the rows are joined directly; the text is
    byte identical to what csv.writer writes for the same rows."""
    if point_dump is None:
        rows = [["name", "max_residual", "mean_residual", "tolerance", "pass"]]
        rows += [[c["name"], repr(c["max_residual"]), repr(c["mean_residual"]),
                  repr(c["tolerance"]), str(c["pass"])]
                 for c in report["checks"]]
        yield "".join(",".join(row) + "\r\n" for row in rows)
        return
    label, pts, vals = point_dump
    yield ",".join(["index"] + [f"p{i}" for i in range(pts.shape[1])]
                   + [label]) + "\r\n"
    for lo in range(0, len(pts), _SCAN_CHUNK):
        hi = lo + _SCAN_CHUNK
        yield _csv_rows(lo, pts[lo:hi], vals[lo:hi])


def _csv_rows(lo, pts, vals):
    """Rows lo, lo + 1, ... of the point dump as text. Each row is laid out
    in 64-bit words, the index and each value's repr from floatrepr with PAD
    bytes among them; the PAD bytes then go. The words are freed on return,
    before the next block's are made."""
    # imported here, so a command that dumps no points does not load it
    from .floatrepr import PAD, SLOT, float_slots, int_slots
    rows = len(pts)
    index = int_slots(np.arange(lo, lo + rows))
    words = np.hstack([index,
                       float_slots(np.column_stack((pts, vals))).reshape(
                           rows, -1),
                       np.full((rows, 1), _CRLF)])
    # a comma in each value's free first byte
    words[:, index.shape[1]:-1:SLOT // 8] |= np.uint64(ord(","))
    text = words.astype("<u8", copy=False).view(np.uint8).ravel()
    return text[text != PAD].tobytes().decode("ascii")


def _nonfinite(report, point_dump):
    """Where a CSV report holds a non-finite number, or None: the checks'
    residuals and the dumped points and values, which JSON would refuse."""
    for c in report["checks"]:
        if not (math.isfinite(c["max_residual"])
                and math.isfinite(c["mean_residual"])):
            return f"check {c['name']}"
    if point_dump is not None:
        label, pts, vals = point_dump
        if not (np.isfinite(pts).all() and np.isfinite(vals).all()):
            return f"point dump {label}"
    return None


def _stdout_to_devnull():
    """Point the file descriptor under sys.stdout at os.devnull, where it
    has one, so the interpreter's last flush writes nowhere."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    args = build_parser().parse_args(argv)
    run = _COMMANDS[args.command][0]
    rng = np.random.default_rng(args.seed)
    started = time.perf_counter()
    try:
        # overflow and NaN in a float scan are reported once, by the
        # non-finite check below, not as numpy warnings on the way
        with np.errstate(all="ignore"):
            checks, extra, point_dump = run(args, rng)
    except (DomainError, ValueError) as exc:
        print(f"qcheis: configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"qcheis: a size the machine cannot hold: {exc}",
              file=sys.stderr)
        return 2
    wall_ms = int(round((time.perf_counter() - started) * 1000))

    report = {
        "command": args.command,
        # the command's own flags as applied; --out is no setting
        "config": {key: value for key, value in vars(args).items()
                   if key not in ("command", "out")},
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "wall_ms": wall_ms,
        # blas_threads is null where OpenBLAS chose its own thread count
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    if extra:
        report.update(extra)

    if args.format == "json":
        try:
            pieces = [json.dumps(report, indent=2, sort_keys=True,
                                 allow_nan=False) + "\n"]
        except ValueError as exc:
            print(f"qcheis: non-finite value in the report ({exc})",
                  file=sys.stderr)
            return 2
    else:
        where = _nonfinite(report, point_dump)
        if where is not None:
            print(f"qcheis: non-finite value in the report ({where})",
                  file=sys.stderr)
            return 2
        pieces = _render_csv(report, point_dump)

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            print(f"qcheis: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            # a closed pipe cuts a write short with no error; the rest raises
            out = getattr(sys.stdout, "buffer", None)
            if out is None:
                sys.stdout.writelines(pieces)
            else:
                sys.stdout.flush()
                for piece in pieces:
                    data = memoryview(piece.encode())
                    while data:
                        data = data[out.write(data):]
            sys.stdout.flush()
        except OSError as exc:
            # a closed pipe or a full disk; what stdout still holds must not
            # fail again at exit
            _stdout_to_devnull()
            print(f"qcheis: cannot write the report: {exc}", file=sys.stderr)
            return 2
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
