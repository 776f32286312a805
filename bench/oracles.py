"""Independent oracles for the benchmark's correctness checks.

Each value here is computed without the qcheis package:

* the Folland-Stein ratio R(Phi) of the centred extremal
  Phi = (2h)^{-(Q-2)/4}, h = c0 [(sigma + |q|^2)^2 + |w|^2], reduced to a
  2-D integral over (|q|, |w|) and computed with scipy.integrate.dblquad,
  for several (c0, sigma) to show it does not depend on them;
* the closed forms |grad_H h|^2 = 16 c0 |q|^2 h and
  Lap_H h = 16 n c0 (sigma + |q|^2) + 32 c0 |q|^2 for the centred h, and
  the conformal scalar curvature they give, 128 n (n+2) c0 sigma, proved
  with sympy from the horizontal frame written out by hand;
* the factorisation of the characteristic polynomial of the 7x7 matrix Q
  with sympy.

Run `python3 bench/oracles.py` to recompute them and compare with the
committed bench/oracles.json (exit 1 on a mismatch), or add `--write` to
rewrite the file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

ORACLE_FILE = Path(__file__).resolve().with_name("oracles.json")

# the 7x7 coupling matrix Q of the divergence identity, entry by entry
Q_ROWS = (
    ("5/2", "-1/2", "-1/2", "-1/2", "-2", "-2", "-2"),
    ("-1/2", "5/2", "-1/2", "-1/2", "10/3", "-2/3", "-2/3"),
    ("-1/2", "-1/2", "5/2", "-1/2", "-2/3", "10/3", "-2/3"),
    ("-1/2", "-1/2", "-1/2", "5/2", "-2/3", "-2/3", "10/3"),
    ("-2", "10/3", "-2/3", "-2/3", "22/3", "-2/3", "-2/3"),
    ("-2", "-2/3", "10/3", "-2/3", "-2/3", "22/3", "-2/3"),
    ("-2", "-2/3", "-2/3", "10/3", "-2/3", "-2/3", "22/3"),
)

FS_PARAMS = ((1.0, 1.0), (0.5, 2.0), (3.0, 0.25))


def fs_ratio_2d(n, c0, sigma):
    """R(Phi) for the centred extremal as a 2-D integral in r=|q|, t=|w|.

    |grad_H Phi|^2 = 4 a^2 (2h)^(-2a-2) |grad_H h|^2 with a = (Q-2)/4 and
    |grad_H h|^2 = 16 c0 r^2 h; |Phi|^(2*) = (2h)^(-Q/2). The angular
    factors |S^(4n-1)| * 4 pi multiply both integrals.
    """
    qdim = 4 * n + 6
    a = (qdim - 2) / 4.0
    sphere = 2.0 * math.pi ** (2 * n) / math.gamma(2 * n) * 4.0 * math.pi

    def h(r, t):
        return c0 * ((sigma + r * r) ** 2 + t * t)

    def num(t, r):
        hv = h(r, t)
        return (4.0 * a * a * (2.0 * hv) ** (-2.0 * a - 2.0)
                * 16.0 * c0 * r * r * hv * r ** (4 * n - 1) * t * t)

    def den(t, r):
        return (2.0 * h(r, t)) ** (-qdim / 2.0) * r ** (4 * n - 1) * t * t

    from scipy import integrate
    with warnings.catch_warnings():
        # QUADPACK warns about round-off on the far tail; the values agree
        # across (c0, sigma) to ~1e-15, which is the real accuracy check
        warnings.simplefilter("ignore")
        N, _ = integrate.dblquad(num, 0, math.inf, 0, math.inf,
                                 epsabs=0, epsrel=1e-12)
        D, _ = integrate.dblquad(den, 0, math.inf, 0, math.inf,
                                 epsabs=0, epsrel=1e-12)
    return sphere * N / (sphere * D) ** ((qdim - 2) / qdim)


def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def closed_forms_hold(n):
    """Prove the centred-h closed forms for this n with sympy.

    The frame is e_b = d/dq_b + sum_s v_s d/dw_s for b = 4a + m, with
    v = -2 Im(mu_m conj(q_a)) and mu = (1, i, j, k).
    """
    import sympy as sp
    c0, sigma = sp.symbols("c0 sigma", positive=True)
    q = sp.symbols(f"q0:{4 * n}", real=True)
    w = sp.symbols("w0:3", real=True)
    q2 = sum(x * x for x in q)
    h = c0 * ((sigma + q2) ** 2 + sum(x * x for x in w))
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def e(b, f):
        a, m = divmod(b, 4)
        qa = q[4 * a:4 * a + 4]
        prod = _hamilton(units[m], (qa[0], -qa[1], -qa[2], -qa[3]))
        return sp.diff(f, q[b]) + sum(-2 * prod[1 + s] * sp.diff(f, w[s])
                                      for s in range(3))

    first = [e(b, h) for b in range(4 * n)]
    grad2 = sum(f * f for f in first)
    lap = sum(e(b, first[b]) for b in range(4 * n))
    lap_closed = 16 * n * c0 * (sigma + q2) + 32 * c0 * q2
    scal_times_h = -8 * (n + 2) ** 2 * grad2 + 8 * (n + 2) * lap * h
    return (sp.expand(grad2 - 16 * c0 * q2 * h) == 0
            and sp.expand(lap - lap_closed) == 0
            and sp.expand(scal_times_h - 128 * n * (n + 2) * c0 * sigma * h) == 0)


def qmatrix_factors():
    import sympy as sp
    x = sp.Symbol("x")
    M = sp.Matrix([[sp.Rational(v) for v in row] for row in Q_ROWS])
    poly = M.charpoly(x)
    _, factors = sp.factor_list(poly.as_expr(), x)
    factors = sorted(factors, key=lambda fm: (sp.degree(fm[0], x),
                                              [str(c) for c in sp.Poly(fm[0], x).all_coeffs()]))
    roots = [float(r) for f, _ in factors for r in sp.real_roots(sp.Poly(f, x))]
    return {
        "rows": [list(r) for r in Q_ROWS],
        "char_poly_descending": [str(c) for c in poly.all_coeffs()],
        "factors": [{"coeffs": [str(c) for c in sp.Poly(f, x).all_coeffs()],
                     "multiplicity": int(m)} for f, m in factors],
        "min_eigenvalue": min(roots),
    }


def compute():
    ratios = {}
    for n in (1, 2):
        vals = [fs_ratio_2d(n, c0, s) for c0, s in FS_PARAMS]
        spread = (max(vals) - min(vals)) / vals[0]
        if spread > 1e-12:
            raise RuntimeError(f"n={n}: ratio depends on (c0, sigma): {vals}")
        ratios[f"n{n}"] = vals[0]
    return {
        "fs_ratio": ratios,
        "fs_ratio_checked_c0_sigma": [list(p) for p in FS_PARAMS],
        "closed_forms": {
            "grad_h_sq": "16*c0*|q|^2*h",
            "sublaplacian_h": "16*n*c0*(sigma+|q|^2) + 32*c0*|q|^2",
            "scal": "128*n*(n+2)*c0*sigma",
            "proved_for_n": [n for n in (1, 2) if closed_forms_hold(n)],
        },
        "qmatrix": qmatrix_factors(),
    }


def load():
    with open(ORACLE_FILE) as fh:
        return json.load(fh)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true",
                   help="rewrite bench/oracles.json instead of comparing")
    args = p.parse_args(argv)
    fresh = compute()
    text = json.dumps(fresh, indent=2, sort_keys=True) + "\n"
    if args.write:
        ORACLE_FILE.write_text(text)
        print(f"wrote {ORACLE_FILE.name}")
        return 0
    stored = load()
    problems = [f"fs_ratio {k}: stored {v!r}, recomputed {fresh['fs_ratio'][k]!r}"
                for k, v in stored["fs_ratio"].items()
                if abs(v - fresh["fs_ratio"][k]) > 1e-11 * abs(v)]
    problems += [f"{key}: stored and recomputed differ"
                 for key in ("closed_forms", "qmatrix")
                 if stored[key] != fresh[key]]
    for line in problems:
        print(line, file=sys.stderr)
    print("oracles match" if not problems else "oracles differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
