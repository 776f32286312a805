"""Exact spectral certificate of the 7x7 divergence-identity matrix.

All expected values here were derived independently before the module was
written: the characteristic polynomial by Fraction-exact Faddeev-LeVerrier
on the hand-entered matrix, cross-checked by sympy's charpoly, and the
minors by exact Gaussian elimination. They are frozen as literals.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from qcheis.qmatrix import (build_q, certify, char_poly, factor_multiplicity,
                            leading_minors, poly_divmod, poly_eval,
                            poly_mod_quadratic, spectral_certificate)

CHAR_POLY = (F(1), F(-32), F(368), F(-1790), F(3375), F(-2850), F(1056),
             F(-128))
MINORS = (F(5, 2), F(6), F(27, 2), F(27), F(54), F(96), F(128))
MINORS_SHIFTED = (F(3, 2), F(2), F(2), F(0), F(0), F(0), F(0))


def test_matrix_shape_and_symmetry():
    q = build_q()
    assert len(q) == 7 and all(len(row) == 7 for row in q)
    assert all(q[i][j] == q[j][i] for i in range(7) for j in range(7))
    # spot entries: the E-diagonal, a D-diagonal, the D-A coupling, and the
    # A-diagonal, all as written out in the divergence identities
    assert q[0][0] == F(5, 2)
    assert q[0][1] == F(-1, 2)
    assert q[0][4] == F(-2)
    assert q[1][1] == F(5, 2)
    assert q[1][4] == F(10, 3)
    assert q[1][5] == F(-2, 3)
    assert q[4][4] == F(22, 3)
    assert q[4][5] == F(-2, 3)


def test_char_poly_exact():
    assert char_poly(build_q()) == CHAR_POLY


def test_char_poly_factors_exactly():
    # (x - 1)(x^2 - 9x + 2)(x^2 - 11x + 8)^2 multiplied back out
    def mul(p, q):
        out = [F(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return tuple(out)

    quad_a = (F(1), F(-9), F(2))
    quad_b = (F(1), F(-11), F(8))
    rebuilt = mul(mul((F(1), F(-1)), quad_a), mul(quad_b, quad_b))
    assert rebuilt == CHAR_POLY


def test_poly_division_and_multiplicity():
    quo, rem = poly_divmod(CHAR_POLY, (F(1), F(-1)))
    assert rem == (F(0),) or all(c == 0 for c in rem)
    mult, rest = factor_multiplicity(CHAR_POLY, (F(1), F(-11), F(8)))
    assert mult == 2
    mult1, _ = factor_multiplicity(CHAR_POLY, (F(1), F(-1)))
    assert mult1 == 1


def test_char_poly_vanishes_at_claimed_roots():
    assert poly_eval(CHAR_POLY, F(1)) == 0
    for quad in ((F(1), F(-9), F(2)), (F(1), F(-11), F(8))):
        r = poly_mod_quadratic(CHAR_POLY, quad)
        assert r == (F(0), F(0)) or all(c == 0 for c in r)


def test_leading_minors_exact():
    q = build_q()
    assert tuple(leading_minors(q)) == MINORS
    shifted = [[q[i][j] - (1 if i == j else 0) for j in range(7)]
               for i in range(7)]
    assert tuple(leading_minors(shifted)) == MINORS_SHIFTED


def test_certificate_contents():
    cert = certify()
    assert cert.char_coeffs == CHAR_POLY
    assert cert.positive_definite
    assert cert.shifted_minors_nonnegative
    assert tuple(cert.minors) == MINORS
    assert tuple(cert.minors_shifted) == MINORS_SHIFTED
    mults = {label: m for _, m, label in cert.eigenvalues}
    assert mults["1"] == 1
    assert mults["(9 - sqrt(73))/2"] == 1
    assert mults["(11 - sqrt(89))/2"] == 2
    assert np.isclose(cert.min_eigenvalue, (9.0 - np.sqrt(73.0)) / 2.0)
    # 1 is an eigenvalue but not the smallest one
    assert cert.min_eigenvalue < 1.0


def test_certificate_matches_float_spectrum():
    cert = certify()
    expect = sorted(v for v, m, _ in cert.eigenvalues for _ in range(m))
    got = sorted(np.linalg.eigvalsh(np.array(build_q(), dtype=float)))
    assert np.max(np.abs(np.array(got) - np.array(expect))) < 1e-12


def test_certificate_to_dict_round_trips_key_facts():
    d = certify().to_dict()
    assert d["positive_definite"] is True
    assert d["char_poly_descending"][0] == "1"
    assert d["leading_minors"][-1] == "128"
    assert len(d["matrix"]) == 7


def test_certify_rejects_tampered_matrix():
    q = build_q()
    rows = [list(r) for r in q]
    rows[0][1] += F(1, 100)
    rows[1][0] += F(1, 100)
    bad = tuple(tuple(r) for r in rows)
    with pytest.raises(ValueError):
        certify(bad)
    # the reporting form computes the same data and leaves the judgement
    # to its caller
    found = spectral_certificate(bad)
    assert found.char_coeffs == char_poly(bad)
    assert found.minors == leading_minors(bad)
    assert found.unfactored != (F(1),)
    assert spectral_certificate(q).to_dict() == certify(q).to_dict()


def test_certify_rejects_asymmetric_matrix():
    q = build_q()
    rows = [list(r) for r in q]
    rows[0][1] += F(1, 100)
    bad = tuple(tuple(r) for r in rows)
    with pytest.raises(ValueError):
        certify(bad)
