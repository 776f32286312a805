"""Second-order jet arithmetic against finite differences and hand values."""

from fractions import Fraction as F
import re

import numpy as np
import pytest

from qcheis.jets import (AffineMapField, CombinationField, DomainError, Jet2,
                         JetField, PolynomialField, coordinate_jets,
                         fd_oracle, random_positive_polynomial)


def _close(a, b, tol=1e-12):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol


def test_coordinate_jets_structure():
    pts = np.array([[1.0, -2.0, 3.0]])
    coords = coordinate_jets(pts, order=2)
    for i, c in enumerate(coords):
        assert c.value[0] == pts[0, i]
        expect = np.zeros(3)
        expect[i] = 1.0
        assert _close(c.grad[0], expect)
        assert _close(c.hess[0], np.zeros((3, 3)))


def test_polynomial_field_hand_values():
    # f(x, y) = x^2 y + 3 y
    f = PolynomialField(2, {(2, 1): 1.0, (0, 1): 3.0})
    pts = np.array([[2.0, -1.0], [0.5, 4.0]])
    jf = f.jets(pts, order=2)
    for (x, y), v, g, H in zip(pts, jf.value, jf.grad, jf.hess):
        assert np.isclose(v, x * x * y + 3 * y)
        assert _close(g, [2 * x * y, x * x + 3], 1e-12)
        assert _close(H, [[2 * y, 2 * x], [2 * x, 0.0]], 1e-12)


def test_polynomial_field_integer_points_are_not_truncated():
    # f(x, y) = x^2 y / 4 + 3 y: float jets at int points, equal to the
    # jets at the same points as floats
    f = PolynomialField(2, {(2, 1): 0.25, (0, 1): 3.0})
    got = f.jets(np.array([[3, 1], [-1, 2]]))
    expect = f.jets(np.array([[3.0, 1.0], [-1.0, 2.0]]))
    for a, b in ((got.value, expect.value), (got.grad, expect.grad),
                 (got.hess, expect.hess)):
        assert a.dtype == np.float64
        assert np.array_equal(a, b)
    assert np.array_equal(got.grad[0], [1.5, 5.25])
    assert np.array_equal(f.values(np.array([[3, 1]])), [5.25])


@pytest.mark.parametrize("monomials, points", [
    ({(2, 1): F(1, 4), (0, 1): 3}, [[3, F(2, 3)], [F(-1, 2), 2]]),
    ({(2, 1): F(1, 4), (0, 1): 3}, [[3, 1], [-1, 2]]),
    ({(2, 1): 1, (0, 1): 3}, [[3, F(2, 3)], [F(-1, 2), 2]]),
], ids=["fraction-points", "fraction-coefficients", "int-coefficients"])
def test_polynomial_field_is_exact_on_fractions(monomials, points):
    # f(x, y) = c x^2 y + 3 y with Fraction coefficients or points: every
    # jet entry is the exact rational the hand derivatives give
    f = PolynomialField(2, monomials)
    c = F(monomials[(2, 1)])
    jf = f.jets(np.array(points))
    for (x, y), v, g, H in zip(points, jf.value, jf.grad, jf.hess):
        x, y = F(x), F(y)
        want = [c * x * x * y + 3 * y, 2 * c * x * y, c * x * x + 3,
                2 * c * y, 2 * c * x, 2 * c * x, 0]
        got = [v, *g, *H.ravel()]
        assert got == want
        # exact throughout: an entry is a Fraction, or an int where only
        # ints reach it (the zero Hessian entry is the int 0), never a float
        assert type(v) is F
        assert all(type(e) in (F, int) for e in got)
    assert list(f.values(np.array(points))) == list(jf.value)


def test_product_rule():
    rng = np.random.default_rng(1)
    f = random_positive_polynomial(4, rng)
    g = random_positive_polynomial(4, rng)
    pts = rng.uniform(-1, 1, size=(20, 4))
    jf, jg = f.jets(pts), g.jets(pts)
    prod = jf * jg
    assert _close(prod.value, jf.value * jg.value, 1e-10)
    expect_grad = jf.grad * jg.value[:, None] + jg.grad * jf.value[:, None]
    assert _close(prod.grad, expect_grad, 1e-10)
    expect_hess = (jf.hess * jg.value[:, None, None]
                   + jg.hess * jf.value[:, None, None]
                   + np.einsum("ni,nj->nij", jf.grad, jg.grad)
                   + np.einsum("ni,nj->nij", jg.grad, jf.grad))
    assert _close(prod.hess, expect_hess, 1e-10)


def test_pow_real_against_log_exp_relation():
    rng = np.random.default_rng(3)
    f = random_positive_polynomial(3, rng)
    pts = rng.uniform(-1, 1, size=(10, 3))
    jf = f.jets(pts)
    alpha = -0.8
    p = jf.pow_real(alpha)
    # d(f^a) = a f^(a-1) df
    expect = alpha * jf.value ** (alpha - 1)
    assert _close(p.grad, expect[:, None] * jf.grad, 1e-9)


def test_pow_real_folds_its_scale_into_the_derivative_factors():
    # pow_real(alpha, scale) is (scale * jet) ** alpha without the scaled
    # gradient and Hessian; for scale 2 every factor scales exactly, so
    # the jets equal those of the scaled jet bit for bit, at both orders
    rng = np.random.default_rng(4)
    f = random_positive_polynomial(4, rng)
    pts = rng.uniform(-1, 1, size=(300, 4))
    for order in (1, 2):
        jf = f.jets(pts, order=order)
        for alpha in (-2.0, -2.5, 0.7):
            got = jf.pow_real(alpha, scale=2.0)
            want = (jf * 2.0).pow_real(alpha)
            for part in ("value", "grad", "hess"):
                a, b = getattr(got, part), getattr(want, part)
                assert (a is None and b is None) or np.array_equal(a, b)
            odd = jf.pow_real(alpha, scale=3.0)
            ref = (jf * 3.0).pow_real(alpha)
            assert _close(odd.value, ref.value, 1e-15 * np.max(ref.value))
            assert _close(odd.grad, ref.grad, 1e-14 * np.max(np.abs(ref.grad)))
    with pytest.raises(DomainError):
        jf.pow_real(0.5, scale=-1.0)


def test_pow_and_log_refuse_nonpositive_values():
    j = Jet2(np.array([-1.0]), np.zeros((1, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(DomainError):
        j.pow_real(0.5)


def test_jets_match_finite_differences():
    rng = np.random.default_rng(4)
    f = random_positive_polynomial(5, rng)
    pts = rng.uniform(-1, 1, size=(6, 5))
    jf = f.jets(pts, order=2)
    fd = fd_oracle(f, pts)
    assert _close(jf.value, fd.value, 1e-10)
    assert _close(jf.grad, fd.grad, 1e-7)
    assert _close(jf.hess, fd.hess, 1e-5)


def test_affine_map_field_chain_rule():
    rng = np.random.default_rng(5)
    inner = random_positive_polynomial(3, rng)
    A = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    mapped = AffineMapField(inner, A, b, scale=1.5)
    pts = rng.uniform(-0.5, 0.5, size=(8, 3))
    jm = mapped.jets(pts, order=2)
    ji = inner.jets(pts @ A.T + b, order=2)
    assert _close(jm.value, 1.5 * ji.value, 1e-12)
    assert _close(jm.grad, 1.5 * np.einsum("nj,ji->ni", ji.grad, A), 1e-11)
    expect_h = 1.5 * np.einsum("ji,njk,kl->nil", A, ji.hess, A)
    assert _close(jm.hess, expect_h, 1e-10)
    fd = fd_oracle(mapped, pts)
    assert _close(jm.grad, fd.grad, 1e-6)


def test_combination_field_linearity():
    rng = np.random.default_rng(6)
    f = random_positive_polynomial(4, rng)
    g = random_positive_polynomial(4, rng)
    comb = CombinationField([f, g], [2.0, -0.5])
    pts = rng.uniform(-1, 1, size=(12, 4))
    jc = comb.jets(pts, order=2)
    jf, jg = f.jets(pts), g.jets(pts)
    assert _close(jc.value, 2.0 * jf.value - 0.5 * jg.value, 1e-12)
    assert _close(jc.grad, 2.0 * jf.grad - 0.5 * jg.grad, 1e-12)
    assert _close(jc.hess, 2.0 * jf.hess - 0.5 * jg.hess, 1e-12)


def _memory_order_pairs(rng, d):
    """(C-ordered batch, its Fortran-ordered copy) at batch sizes 1, 37 and
    4096, a fifth of the coordinates +0.0 or -0.0."""
    for size in (1, 37, 4096):
        pts = rng.uniform(-1, 1, size=(size, d))
        zero = rng.random((size, d)) < 0.2
        pts[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5,
                             0.0, -0.0)
        yield pts, np.asfortranarray(pts)


def _same_bits(a, b):
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_combination_field_jets_do_not_depend_on_memory_order():
    # a (N, d) batch may be the view of a coordinate-major (d, N) array;
    # its order-1 jets equal those of its C-ordered copy bit for bit, zero
    # signs included, and the gradient keeps the input's memory order
    rng = np.random.default_rng(61)
    comb = CombinationField([random_positive_polynomial(5, rng),
                             random_positive_polynomial(5, rng)], [2.0, -0.5])
    for c_rows, f_rows in _memory_order_pairs(rng, 5):
        jc, jf = comb.jets(c_rows, order=1), comb.jets(f_rows, order=1)
        assert _same_bits(jc.value, jf.value) and _same_bits(jc.grad, jf.grad)
        assert jc.grad.flags.c_contiguous and jf.grad.flags.f_contiguous


def test_affine_map_field_jets_in_either_memory_order():
    # AffineMapField maps and pulls back through BLAS products, which need
    # not sum a row alike for both memory orders of the input; the jets
    # of a Fortran-ordered batch and of its C-ordered copy measured equal
    # bit for bit (numpy 2.4, OpenBLAS 0.3), and may differ by no more than
    # a few roundings of the products
    rng = np.random.default_rng(62)
    for d in (3, 7, 11):
        inner = random_positive_polynomial(d, rng)
        mapped = AffineMapField(inner, rng.normal(size=(d, d)),
                                rng.normal(size=d), scale=1.5)
        for c_rows, f_rows in _memory_order_pairs(rng, d):
            jc, jf = mapped.jets(c_rows, order=1), mapped.jets(f_rows, order=1)
            assert jc.grad.flags.c_contiguous and jf.grad.flags.f_contiguous
            for a, b in ((jc.value, jf.value), (jc.grad, jf.grad)):
                assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(a))


def test_affine_map_field_second_derivatives_need_a_frame_shaped_matrix():
    # hessian_along pulls the vertical block V back through a matrix
    # [[l I, 0], [M, W]]; a general matrix mixes the directions' identity
    # block and raises, while its jets stay defined
    rng = np.random.default_rng(63)
    inner = random_positive_polynomial(7, rng)
    pts = rng.uniform(-1, 1, size=(5, 7))
    V = rng.normal(size=(5, 4, 3))
    mapped = AffineMapField(inner, rng.normal(size=(7, 7)), rng.normal(size=7))
    assert mapped.jets(pts, order=2).order == 2
    for trace in (False, True):
        with pytest.raises(ValueError):
            mapped.hessian_along(pts, V, trace=trace)


def test_order_one_jets_have_no_hessian():
    rng = np.random.default_rng(7)
    f = random_positive_polynomial(3, rng)
    j1 = f.jets(rng.uniform(-1, 1, size=(4, 3)), order=1)
    assert j1.order == 1
    assert j1.hess is None


def test_random_positive_polynomial_positivity_and_determinism():
    rng = np.random.default_rng(8)
    f = random_positive_polynomial(7, rng, box=2.0)
    pts = np.random.default_rng(99).uniform(-2, 2, size=(4000, 7))
    assert np.min(f.values(pts)) >= 1.0
    g = random_positive_polynomial(7, np.random.default_rng(8), box=2.0)
    assert _close(f.values(pts[:50]), g.values(pts[:50]))


@pytest.mark.parametrize("box", [6e102, 1e200])
def test_random_positive_polynomial_refuses_a_box_that_overflows(box):
    # box ** 3 overflows a float above a box of about 5.6e102; that used to
    # escape as an OverflowError, which the CLI reports as a failed check
    message = re.escape(f"box {box!r} is too large")
    with pytest.raises(ValueError, match=message):
        random_positive_polynomial(7, np.random.default_rng(8), degree=3,
                                   terms=8, box=box)
    random_positive_polynomial(7, np.random.default_rng(8), degree=3,
                               terms=8, box=1e102)


def test_jet_field_wraps_custom_builder():
    def builder(points, order):
        coords = coordinate_jets(points, order)
        return coords[0] * coords[0] + coords[1]

    f = JetField(2, builder)
    pts = np.array([[3.0, 2.0]])
    jf = f.jets(pts, order=2)
    assert np.isclose(jf.value[0], 11.0)
    assert _close(jf.grad[0], [6.0, 1.0])
    assert _close(jf.hess[0], [[2.0, 0.0], [0.0, 0.0]])
