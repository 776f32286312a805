"""qmul, the one place Hamilton's rules are written, checked exactly.

Conjugation, sums and norms are computed here, from the components, so the
properties below rest on qmul alone."""

from fractions import Fraction

import numpy as np

from qcheis.heis import _IM_CONJ
from qcheis.quat import Quaternion, qmul


def _rational(rng, den=16, span=8):
    """A seeded quaternion with Fraction components k/den, |k| <= span."""
    return Quaternion(*[Fraction(int(k), den)
                        for k in rng.integers(-span, span + 1, size=4)])


def _conj(p):
    return Quaternion(p.t, -p.x, -p.y, -p.z)


def _norm2(p):
    return sum(c * c for c in p.components())


def _combine(p, lam, q):
    """p + lam q."""
    return Quaternion(*[a + lam * b for a, b in zip(p.components(),
                                                    q.components())])


def test_hamilton_table():
    one, i, j, k = (Quaternion(*row) for row in np.eye(4, dtype=int).tolist())
    minus_one = Quaternion(-1, 0, 0, 0)
    assert qmul(i, j) == k
    assert qmul(j, k) == i
    assert qmul(k, i) == j
    assert qmul(j, i) == Quaternion(0, 0, 0, -1)
    assert qmul(i, i) == minus_one
    assert qmul(j, j) == minus_one
    assert qmul(k, k) == minus_one
    for u in (one, i, j, k):
        assert qmul(one, u) == u
        assert qmul(u, one) == u


def test_product_is_bilinear_over_fractions():
    rng = np.random.default_rng(3)
    p = _rational(rng)
    q = _rational(rng)
    r = _rational(rng)
    lam = Fraction(3, 7)
    assert qmul(_combine(p, lam, q), r) == _combine(qmul(p, r), lam, qmul(q, r))
    assert qmul(r, _combine(p, lam, q)) == _combine(qmul(r, p), lam, qmul(r, q))


def test_conjugation_antiautomorphism():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = _rational(rng)
        q = _rational(rng)
        assert _conj(qmul(p, q)) == qmul(_conj(q), _conj(p))


def test_norm_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = _rational(rng)
        q = _rational(rng)
        assert _norm2(qmul(p, q)) == _norm2(p) * _norm2(q)


def test_hermitian_product_conjugate_symmetry():
    # p conj(q) is the hermitian product of H: conjugate symmetric, and real
    # on the diagonal, where it is the squared norm
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = _rational(rng)
        q = _rational(rng)
        assert _conj(qmul(p, _conj(q))) == qmul(q, _conj(p))
        assert qmul(p, _conj(p)) == Quaternion(_norm2(p), 0, 0, 0)


def test_im_product_is_imaginary_part():
    # heis._IM_CONJ, the bilinear map behind the group law's twist and the
    # frame, is Im(x conj(y)); it is antisymmetric, as the real part is the
    # symmetric piece
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = _rational(rng)
        y = _rational(rng)
        im = np.einsum("k,c,kcs->s", np.array(x.components(), dtype=object),
                       np.array(y.components(), dtype=object), _IM_CONJ)
        assert im.tolist() == qmul(x, _conj(y)).components()[1:]
        assert qmul(y, _conj(x)).components()[1:] == (-im).tolist()
