"""Exact construction and spectral certificate of the 7x7 coupling matrix.

The matrix Q couples the seven blocks (E, D_1, D_2, D_3, A_1, A_2, A_3) in
the divergence identity's quadratic form. Everything here is exact rational
arithmetic over Fraction: the characteristic polynomial comes from the
Faddeev-LeVerrier recursion, its factorization over the claimed quadratics
from exact polynomial division, positivity from leading principal minors by
fraction-free elimination. The certificate records what the computation
actually finds, in particular the multiplicity of each factor; the float
spectrum is only a cross-check.

The factorization works out to

    (x - 1) (x^2 - 9x + 2) (x^2 - 11x + 8)^2,

so the eigenvalues are 1, (9 +- sqrt(73))/2 once each and
(11 +- sqrt(89))/2 twice each. The smallest is (9 - sqrt(73))/2, about
0.228; eigenvalue 1 is present but is not the bottom of the spectrum. The
leading principal minors of Q - I happen to be nonnegative (the last four
are zero), which is the stated check, but nonnegative leading minors do not
certify positive semidefiniteness, so the certificate reports the sharp
lower bound from the factorization alongside them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

F = Fraction

_Q_ROWS = (
    (F(5, 2), F(-1, 2), F(-1, 2), F(-1, 2), F(-2), F(-2), F(-2)),
    (F(-1, 2), F(5, 2), F(-1, 2), F(-1, 2), F(10, 3), F(-2, 3), F(-2, 3)),
    (F(-1, 2), F(-1, 2), F(5, 2), F(-1, 2), F(-2, 3), F(10, 3), F(-2, 3)),
    (F(-1, 2), F(-1, 2), F(-1, 2), F(5, 2), F(-2, 3), F(-2, 3), F(10, 3)),
    (F(-2), F(10, 3), F(-2, 3), F(-2, 3), F(22, 3), F(-2, 3), F(-2, 3)),
    (F(-2), F(-2, 3), F(10, 3), F(-2, 3), F(-2, 3), F(22, 3), F(-2, 3)),
    (F(-2), F(-2, 3), F(-2, 3), F(10, 3), F(-2, 3), F(-2, 3), F(22, 3)),
)

# the claimed factorization of det(xI - Q): each monic factor by descending
# coefficients, its claimed multiplicity, and its roots as (float, label)
CLAIMED_FACTORS = (
    ((F(1), F(-1)), 1, ((1.0, "1"),)),
    ((F(1), F(-9), F(2)), 1,
     (((9.0 - sqrt(73.0)) / 2.0, "(9 - sqrt(73))/2"),
      ((9.0 + sqrt(73.0)) / 2.0, "(9 + sqrt(73))/2"))),
    ((F(1), F(-11), F(8)), 2,
     (((11.0 - sqrt(89.0)) / 2.0, "(11 - sqrt(89))/2"),
      ((11.0 + sqrt(89.0)) / 2.0, "(11 + sqrt(89))/2"))),
)


@dataclass(frozen=True)
class QMatrix:
    entries: tuple

    def __getitem__(self, idx):
        r, c = idx
        return self.entries[r][c]

    @property
    def size(self):
        return len(self.entries)

    def is_symmetric(self):
        m = self.entries
        return all(m[i][j] == m[j][i] for i in range(7) for j in range(7))


def build_q() -> QMatrix:
    return QMatrix(entries=_Q_ROWS)


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def char_poly(q: QMatrix):
    """Monic characteristic polynomial det(xI - Q), exact, descending.

    Faddeev-LeVerrier: M_1 = Q, c_1 = -tr M_1, M_{k+1} = Q (M_k + c_k I),
    c_{k+1} = -tr M_{k+1} / (k+1); the c_k are the coefficients after the
    leading 1.
    """
    n = q.size
    M = [[q[i, j] for j in range(n)] for i in range(n)]
    coeffs = [F(1)]
    c = -sum(M[i][i] for i in range(n))
    coeffs.append(c)
    for k in range(2, n + 1):
        for i in range(n):
            M[i][i] += coeffs[-1]
        M = [[sum(q[i, l] * M[l][j] for l in range(n)) for j in range(n)]
             for i in range(n)]
        c = -sum(M[i][i] for i in range(n)) / k
        coeffs.append(c)
    return tuple(coeffs)


def poly_divmod(num, den):
    """Exact division of polynomials given as descending coefficient tuples."""
    num = list(num)
    d = len(den) - 1
    quot = []
    while len(num) - 1 >= d:
        lead = num[0] / den[0]
        quot.append(lead)
        for i in range(len(den)):
            num[i] -= lead * den[i]
        num.pop(0)
    while len(num) > 1 and num[0] == 0:
        num.pop(0)
    return tuple(quot), tuple(num)


def _is_zero(poly):
    return all(c == 0 for c in poly)


def factor_multiplicity(poly, factor):
    """How many times factor divides poly exactly; returns (count, quotient)."""
    count = 0
    while len(poly) > len(factor) - 1:
        quot, rem = poly_divmod(poly, factor)
        if not _is_zero(rem):
            break
        poly = quot
        count += 1
    return count, poly


def leading_minors(rows):
    """All leading principal minors, exact, via Fraction elimination."""
    n = len(rows)
    out = []
    for k in range(1, n + 1):
        M = [[rows[i][j] for j in range(k)] for i in range(k)]
        det = F(1)
        sign = 1
        for col in range(k):
            piv = None
            for r in range(col, k):
                if M[r][col] != 0:
                    piv = r
                    break
            if piv is None:
                det = F(0)
                break
            if piv != col:
                M[col], M[piv] = M[piv], M[col]
                sign = -sign
            det *= M[col][col]
            inv = 1 / M[col][col]
            for r in range(col + 1, k):
                factor = M[r][col] * inv
                if factor:
                    for c in range(col, k):
                        M[r][c] -= factor * M[col][c]
        out.append(sign * det if det else F(0))
    return tuple(out)


def poly_eval(poly, x):
    """poly, by descending coefficients, at x by Horner's rule."""
    acc = 0
    for c in poly:
        acc = acc * x + c
    return acc


def poly_mod_quadratic(poly, quad):
    """Remainder of poly modulo a monic quadratic; (a, b) with ax + b.

    Zero remainder proves both roots of the quadratic are roots of poly,
    without ever touching the irrational roots themselves.
    """
    _, rem = poly_divmod(poly, quad)
    rem = (F(0),) * (2 - len(rem)) + tuple(rem)
    return rem


# ---------------------------------------------------------------------------
# the certificate


@dataclass
class SpectralCertificate:
    matrix: QMatrix
    char_coeffs: tuple
    factors: tuple              # ((coeffs, multiplicity), ...)
    unfactored: tuple           # what the claimed factors leave; (1,) if none
    eigenvalues: tuple          # ((float value, multiplicity, label), ...)
    minors: tuple
    minors_shifted: tuple       # of Q - I

    @property
    def positive_definite(self):
        return all(m > 0 for m in self.minors)

    @property
    def shifted_minors_nonnegative(self):
        return all(m >= 0 for m in self.minors_shifted)

    @property
    def min_eigenvalue(self):
        return min(v for v, m, _ in self.eigenvalues if m > 0)

    def to_dict(self):
        return {
            "matrix": [[str(v) for v in row] for row in self.matrix.entries],
            "char_poly_descending": [str(c) for c in self.char_coeffs],
            "factors": [
                {"coeffs": [str(c) for c in f], "multiplicity": m}
                for f, m in self.factors
            ],
            "eigenvalues": [
                {"value": v, "multiplicity": m, "exact": label}
                for v, m, label in self.eigenvalues
            ],
            "leading_minors": [str(m) for m in self.minors],
            "shifted_leading_minors": [str(m) for m in self.minors_shifted],
            "positive_definite": self.positive_definite,
            "shifted_minors_nonnegative": self.shifted_minors_nonnegative,
            "min_eigenvalue": self.min_eigenvalue,
        }


def spectral_certificate(q: QMatrix) -> SpectralCertificate:
    """Factorization, minors and eigenvalues of q as found: a matrix that
    fails the claims is reported here, and certify() raises on it."""
    poly = rest = char_poly(q)
    factors, eigenvalues = [], []
    for factor, _, roots in CLAIMED_FACTORS:
        found, rest = factor_multiplicity(rest, factor)
        factors.append((factor, found))
        eigenvalues += [(v, found, label) for v, label in roots]
    shifted = [[q[i, j] - (1 if i == j else 0) for j in range(7)]
               for i in range(7)]
    return SpectralCertificate(
        matrix=q,
        char_coeffs=poly,
        factors=tuple(factors),
        unfactored=rest,
        eigenvalues=tuple(eigenvalues),
        minors=leading_minors(q.entries),
        minors_shifted=leading_minors(shifted),
    )


def certify(q: QMatrix = None) -> SpectralCertificate:
    """Full exact certificate: factorization, minors, sharp lower bound.

    Raises if the matrix fails symmetry, if the claimed factors do not
    exhaust the characteristic polynomial, or if any leading minor of Q is
    not positive.
    """
    q = q or build_q()
    if not q.is_symmetric():
        raise ValueError("matrix is not symmetric")
    cert = spectral_certificate(q)
    if cert.unfactored != (F(1),):
        raise ValueError("claimed factors do not exhaust the spectrum")
    if not cert.positive_definite:
        raise ValueError("a leading principal minor is not positive")
    return cert
