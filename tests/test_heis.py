"""Group law, contact structure, frame audit, and frame differential ops."""

import copy
from fractions import Fraction

import numpy as np
import pytest

from qcheis.heis import (ContactForm, GroupPoint, HorizontalFrame, dilate,
                         dilation_affine, frame_audit, frame_first_order,
                         frame_second_order, group_multiply,
                         left_translation_affine)
from qcheis.jets import (PolynomialField, fd_oracle,
                         random_positive_polynomial)
from qcheis.yamabe import ExtremalParams, h_explicit
from qcheis.quat import (HVector, ImQuaternion, Quaternion, qmul,
                         rational_quaternion)


def _rational_point(n, rng):
    q = HVector([rational_quaternion(rng) for _ in range(n)])
    w = ImQuaternion(*(rational_quaternion(rng).im().components()))
    return GroupPoint(q, w)


@pytest.mark.parametrize("n", [1, 2])
def test_group_axioms_exact(n):
    rng = np.random.default_rng(10 + n)
    e = GroupPoint.identity(n)
    for _ in range(8):
        a = _rational_point(n, rng)
        b = _rational_point(n, rng)
        c = _rational_point(n, rng)
        assert group_multiply(a, e) == a
        assert group_multiply(e, a) == a
        assert group_multiply(group_multiply(a, b), c) \
            == group_multiply(a, group_multiply(b, c))
        inverse = GroupPoint(-a.q, -a.w)
        assert group_multiply(a, inverse) == e
        assert group_multiply(inverse, a) == e


@pytest.mark.parametrize("n", [1, 2])
def test_dilations_are_automorphisms(n):
    rng = np.random.default_rng(20 + n)
    lam, mu = Fraction(3, 2), Fraction(2, 3)
    for _ in range(5):
        a = _rational_point(n, rng)
        b = _rational_point(n, rng)
        assert dilate(lam, dilate(mu, a)) == dilate(lam * mu, a)
        assert group_multiply(dilate(lam, a), dilate(lam, b)) \
            == dilate(lam, group_multiply(a, b))
    # the center scales quadratically
    p = _rational_point(n, rng)
    d = dilate(lam, p)
    assert d.w == p.w * (lam * lam)


@pytest.mark.parametrize("n", [1, 2])
def test_left_translation_affine_matches_group_law(n):
    rng = np.random.default_rng(30 + n)
    p0 = _rational_point(n, rng)
    A, b = left_translation_affine(p0)
    for _ in range(5):
        p = _rational_point(n, rng)
        flat = p.flat()
        image = [sum(A[i][j] * flat[j] for j in range(len(flat))) + b[i]
                 for i in range(len(flat))]
        assert image == group_multiply(p0, p).flat()


@pytest.mark.parametrize("n", [1, 2])
def test_dilation_affine_matches_dilate(n):
    rng = np.random.default_rng(40 + n)
    lam = Fraction(5, 4)
    A, b = dilation_affine(lam, n)
    p = _rational_point(n, rng)
    flat = p.flat()
    image = [sum(A[i][j] * flat[j] for j in range(len(flat))) + b[i]
             for i in range(len(flat))]
    assert image == dilate(lam, p).flat()


def test_frame_refuses_n_below_one():
    with pytest.raises(ValueError):
        HorizontalFrame(0)


@pytest.mark.parametrize("n", [1, 2])
def test_frame_audit_is_exactly_zero(n):
    frame = HorizontalFrame(n)
    report = frame_audit(frame, n_points=30, seed=1)
    assert report.all_zero
    assert report.max_violation == 0


def test_frame_audit_flags_broken_reeb():
    frame = HorizontalFrame(1)
    bad_reeb = [[Fraction(0)] * 7 for _ in range(3)]
    for s in range(3):
        bad_reeb[s][4 + s] = Fraction(3)  # should be 2
    report = frame_audit(frame, n_points=10, seed=2, reeb=bad_reeb)
    assert not report.all_zero
    assert report.violations["reeb_normalization"] > 0


def test_frame_audit_flags_broken_complex_structure():
    frame = HorizontalFrame(1)
    Is = frame.Is.tolist()
    Is[0] = [[-v for v in row] for row in Is[0]]  # flip the sign of I_1
    report = frame_audit(frame, n_points=10, seed=3, Is=Is)
    assert not report.all_zero
    assert report.violations["quaternion_relations"] > 0


@pytest.mark.parametrize("n", [1, 2])
def test_frame_audit_flags_tampered_frame_coefficients(n):
    frame = copy.deepcopy(HorizontalFrame(n))
    frame._vmap[1, 0] += 1      # d v_1 / d x of the field e_t, in every slot
    report = frame_audit(frame, n_points=10, seed=4)
    assert report.violations["theta_on_frame"] > 0
    assert frame_audit(HorizontalFrame(n), n_points=10, seed=4).all_zero


@pytest.mark.parametrize("n", [1, 2])
def test_contact_coefficients_batch_matches_exact_rows(n):
    # one coefficient path for both scalar types: Fraction points give
    # exact entries, equal to the defining quaternion formulas, and those
    # entries cast to float are the float result
    contact = ContactForm(n)
    frame = HorizontalFrame(n)
    rng = np.random.default_rng(50 + n)
    points = [_rational_point(n, rng) for _ in range(6)]
    exact = np.array([p.flat() for p in points], dtype=object)
    for method in (contact.coefficients, frame.vertical_coefficients,
                   frame.coefficients):
        got = method(exact)
        assert got.dtype == object
        assert all(type(v) in (Fraction, int) for v in got.flat)
        assert np.array_equal(got.astype(float), method(exact.astype(float)))

    # Theta = (1/2)(dw - q d(conj q) + dq conj(q)) and
    # e_{4a+m} = d_{4a+m} - 2 Im(mu_m conj(q_a)) . d_w, term by term
    theta = contact.coefficients(exact)
    V = frame.vertical_coefficients(exact)
    half = Fraction(1, 2)
    for i, p in enumerate(points):
        for a, qa in enumerate(p.q.components):
            for m in range(4):
                mu = Quaternion.unit(m)
                dq = (qmul(mu, qa.conj()) - qmul(qa, mu.conj())) * half
                assert theta[i, :, 4 * a + m].tolist() == dq.im().components()
                v = -2 * qmul(mu, qa.conj())
                assert V[i, 4 * a + m].tolist() == v.im().components()
        assert theta[i, :, 4 * n:].tolist() == \
            [[half if s == k else 0 for k in range(3)] for s in range(3)]


@pytest.mark.parametrize("n", [1, 2])
def test_frame_derivatives_match_finite_differences(n):
    d = 4 * n + 3
    rng = np.random.default_rng(60 + n)
    field = random_positive_polynomial(d, rng)
    pts = rng.uniform(-1, 1, size=(5, d))
    frame = HorizontalFrame(n)
    value, fg, fh, xi = frame_second_order(field, pts, frame)

    fd = fd_oracle(field, pts)
    C = frame.coefficients(pts)
    fg_fd = np.einsum("nbj,nj->nb", C, fd.grad)
    assert np.max(np.abs(fg - fg_fd)) < 1e-6
    assert np.max(np.abs(xi - 2.0 * fd.grad[:, 4 * n:4 * n + 3])) < 1e-6

    # second order: e_a(e_b f) via finite differences of the first-order op
    step = 1e-5
    for a in range(4 * n):
        for b in range(4 * n):
            shift = C[:, a, :] * step
            up, _ = frame_first_order(field, pts + shift, frame)
            dn, _ = frame_first_order(field, pts - shift, frame)
            fd_ab = (up[:, b] - dn[:, b]) / (2 * step)
            assert np.max(np.abs(fh[:, a, b] - fd_ab)) < 1e-5


@pytest.mark.parametrize("n", [1, 2])
def test_hessian_antisymmetric_part_is_vertical(n):
    # e_a(e_b f) - e_b(e_a f) = [e_a, e_b] f = -sum_s 2 (I_s)_{ba} xi_s f,
    # which is the commutation relation behind the symmetrized Hessian
    d = 4 * n + 3
    rng = np.random.default_rng(70 + n)
    field = random_positive_polynomial(d, rng)
    pts = rng.uniform(-1.5, 1.5, size=(25, d))
    frame = HorizontalFrame(n)
    _, _, fh, xi = frame_second_order(field, pts, frame)
    anti = fh - np.swapaxes(fh, 1, 2)
    expect = np.zeros_like(anti)
    for s in range(3):
        expect -= xi[:, s, None, None] * (frame.omega(s)[None, :, :]
                                          - frame.omega(s).T[None, :, :])
    assert np.max(np.abs(anti - expect)) < 1e-10


def test_sublaplacian_on_explicit_polynomial():
    # f = |q|^2 on the n=1 group: e_a e_a f = 2 for each of the 4 horizontal
    # directions, so the sub-Laplacian is 8; the vertical tail contributes 0
    f = PolynomialField(7, {
        (2, 0, 0, 0, 0, 0, 0): 1.0,
        (0, 2, 0, 0, 0, 0, 0): 1.0,
        (0, 0, 2, 0, 0, 0, 0): 1.0,
        (0, 0, 0, 2, 0, 0, 0): 1.0,
    })
    frame = HorizontalFrame(1)
    pts = np.random.default_rng(0).uniform(-2, 2, size=(40, 7))
    lap = np.trace(frame_second_order(f, pts, frame)[2], axis1=1, axis2=2)
    assert np.max(np.abs(lap - 8.0)) < 1e-12


def _dense_coeff_grads(frame):
    """G[b, i, j] = d_i C[b, j], read off the exact coefficients at the origin
    and the unit points; C is affine in the point, so C(e_i) - C(0) is its
    derivative along i."""
    d = frame.dim
    C = frame.coefficients(np.eye(d + 1, d, -1, dtype=int))
    return (C[1:] - C[0]).transpose(1, 0, 2).astype(float)


@pytest.mark.parametrize("n", [1, 2])
def test_structured_frame_operators_match_dense_formulas(n):
    # the dense (N, 4n, d, d) contractions the structured operators replace:
    # C = 1 + p.G, e_b f = C_b . grad f and
    # e_a(e_b f) = C_a . G_b . grad f + C_a . hess f . C_b
    d = 4 * n + 3
    rng = np.random.default_rng(80 + n)
    frame = HorizontalFrame(n)
    G = _dense_coeff_grads(frame)
    pts = rng.uniform(-2, 2, size=(200, d))
    C = np.einsum("ni,bij->nbj", pts, G)
    C[:, :, :4 * n] += np.eye(4 * n)
    assert np.array_equal(frame.coefficients(pts), C)

    base = GroupPoint.from_flat(rng.uniform(-1, 1, size=d).tolist(), n)
    for field in (random_positive_polynomial(d, rng),
                  h_explicit(ExtremalParams(n=n, c0=0.7, sigma=1.3,
                                            base=base))):
        jf = field.jets(pts, order=2)
        fg_ref = np.einsum("nbj,nj->nb", C, jf.grad)
        fh_ref = np.einsum("nai,bij,nj->nab", C, G, jf.grad) \
            + np.einsum("nai,nij,nbj->nab", C, jf.hess, C)
        value, fg, fh, xi = frame_second_order(field, pts, frame)
        fg1, xi1 = frame_first_order(field, pts, frame)
        assert np.array_equal(value, jf.value)
        assert np.array_equal(xi, 2.0 * jf.grad[:, 4 * n:])
        assert np.array_equal(xi1, xi)
        for got, want in ((fg, fg_ref), (fg1, fg_ref), (fh, fh_ref)):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
