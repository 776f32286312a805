"""Group law, contact structure, frame audit, and frame differential ops."""

import copy
import math
from fractions import Fraction

import numpy as np
import pytest

from qcheis import heis
from qcheis.heis import (ContactForm, GroupPoint, HorizontalFrame,
                         dilation_affine, frame_audit, frame_first_order,
                         frame_second_order, left_translation_affine)
from qcheis.jets import (JetField, PolynomialField, fd_oracle,
                         random_positive_polynomial)
from qcheis.quat import Quaternion, qmul
from qcheis.yamabe import ExtremalParams, h_explicit, phi_explicit


# ---------------------------------------------------------------------------
# an independent oracle: Hamilton's rules written out on 4-tuples over the
# basis (1, i, j, k), and the group law and dilation on flat tuples built
# from them; nothing here reads qcheis.quat


# unit_a unit_b = sign unit_c for imaginary units a, b in (1, 2, 3) = (i, j, k)
_RULES = {(1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
          (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
          (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0)}


def hamilton(p, q):
    out = [0, 0, 0, 0]
    for a in range(4):
        for b in range(4):
            sign, c = (1, a + b) if 0 in (a, b) else _RULES[a, b]
            out[c] += sign * p[a] * q[b]
    return tuple(out)


def _conj(p):
    return (p[0], -p[1], -p[2], -p[3])


def oracle_multiply(a, b):
    """(q0, w0) . (q, w) = (q0 + q, w + w0 + 2 Im(q0 conj(q)))."""
    nh = len(a) - 3
    twist = [0, 0, 0]
    for s in range(0, nh, 4):
        im = hamilton(a[s:s + 4], _conj(b[s:s + 4]))[1:]
        twist = [t + 2 * v for t, v in zip(twist, im)]
    return (tuple(x + y for x, y in zip(a[:nh], b[:nh]))
            + tuple(y + x + t for x, y, t in zip(a[nh:], b[nh:], twist)))


def oracle_dilate(lam, p):
    """(q, w) -> (lam q, lam^2 w)."""
    nh = len(p) - 3
    return tuple(lam * v for v in p[:nh]) + tuple(lam * lam * v for v in p[nh:])


def _rational_point(n, rng):
    """A seeded group point with Fraction coordinates k/12, |k| <= 8; the
    thirds are not binary fractions, so a float path would not be exact."""
    return GroupPoint.from_flat([Fraction(int(k), 12) for k in
                                 rng.integers(-8, 9, size=4 * n + 3)], n)


def _apply(affine, p):
    A, b = affine
    return tuple(sum(A[i][j] * p[j] for j in range(len(p))) + b[i]
                 for i in range(len(p)))


def _product(a, b):
    """a . b as heis computes it: the affine map of L_a applied to b."""
    return GroupPoint(_apply(left_translation_affine(a), b))


def _dilate(lam, p):
    """delta_lam(p) as heis computes it."""
    return GroupPoint(_apply(dilation_affine(lam, (len(p) - 3) // 4), p))


def test_hamilton_table_matches_oracle():
    units = np.eye(4, dtype=int).tolist()
    assert heis._HAMILTON.tolist() == [[list(hamilton(a, b)) for b in units]
                                       for a in units]
    rng = np.random.default_rng(9)
    for _ in range(10):
        p, q = (rng.integers(-32, 33, size=4).tolist() for _ in range(2))
        assert tuple(qmul(Quaternion(*p), Quaternion(*q)).components()) \
            == hamilton(p, q)


def test_group_point_is_a_flat_coordinate_tuple():
    p = GroupPoint.from_flat([1, 2, 3, 4, -1, 0, 0, 2, 5, 6, 7], 2)
    assert p.n == 2
    assert p.flat() == [1, 2, 3, 4, -1, 0, 0, 2, 5, 6, 7]
    assert p == GroupPoint.from_flat(np.array(p.flat()).tolist(), 2)
    assert p != GroupPoint.from_flat([0] * 11, 2)
    assert GroupPoint.identity(1) == GroupPoint.from_flat([0] * 7, 1)
    assert GroupPoint.identity(2).n == 2


def test_group_point_from_flat_rejects_wrong_length():
    for n, coords in ((1, 6), (1, 8), (1, 11), (2, 7), (2, 12), (0, 3)):
        with pytest.raises(ValueError):
            GroupPoint.from_flat([0.5] * coords, n)


@pytest.mark.parametrize("n", [1, 2])
def test_group_axioms_exact(n):
    rng = np.random.default_rng(10 + n)
    e = GroupPoint.identity(n)
    for _ in range(8):
        a = _rational_point(n, rng)
        b = _rational_point(n, rng)
        c = _rational_point(n, rng)
        for mul in (_product, oracle_multiply):
            assert mul(a, e) == a
            assert mul(e, a) == a
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            inverse = GroupPoint(-v for v in a)
            assert mul(a, inverse) == e
            assert mul(inverse, a) == e


@pytest.mark.parametrize("n", [1, 2])
def test_dilations_are_automorphisms(n):
    rng = np.random.default_rng(20 + n)
    lam, mu = Fraction(3, 2), Fraction(2, 3)
    for _ in range(5):
        a = _rational_point(n, rng)
        b = _rational_point(n, rng)
        for mul, dil in ((_product, _dilate),
                         (oracle_multiply, oracle_dilate)):
            assert dil(lam, dil(mu, a)) == dil(lam * mu, a)
            assert mul(dil(lam, a), dil(lam, b)) == dil(lam, mul(a, b))
    # the center scales quadratically
    p = _rational_point(n, rng)
    assert _dilate(lam, p)[4 * n:] == tuple(lam * lam * v for v in p[4 * n:])


@pytest.mark.parametrize("n", [1, 2])
def test_left_translation_affine_matches_group_law(n):
    rng = np.random.default_rng(30 + n)
    p0 = _rational_point(n, rng)
    A, b = left_translation_affine(p0)
    assert A.dtype == object and b.dtype == object
    for _ in range(5):
        p = _rational_point(n, rng)
        assert _apply((A, b), p) == oracle_multiply(p0, p)
    # a float p0 gives the float map of the same translation
    Af, bf = left_translation_affine(GroupPoint.from_flat(
        [float(v) for v in p0], n))
    assert Af.dtype == float and np.array_equal(Af, A.astype(float))
    assert np.array_equal(bf, b.astype(float))


@pytest.mark.parametrize("n", [1, 2])
def test_dilation_affine_matches_dilate(n):
    rng = np.random.default_rng(40 + n)
    lam = Fraction(5, 4)
    for _ in range(5):
        p = _rational_point(n, rng)
        assert _dilate(lam, p) == oracle_dilate(lam, p)


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


def _reference_audit(frame, n_points, seed, reeb=None, Is=None):
    """frame_audit's checks in unbounded exact arithmetic: the coefficient
    maps at the Fraction points k/16, the contractions on Python-int
    numerators over one common denominator, and each violation a Fraction
    maximum."""
    n, d, nh = frame.n, frame.dim, frame.nh
    contact = ContactForm(n)
    rng = np.random.default_rng(seed)
    points = np.array([Fraction(int(k), 16) for k in rng.integers(
        -32, 33, size=n_points * d)], dtype=object).reshape(n_points, d)
    arrays = [contact.coefficients(points), frame.coefficients(points),
              np.array([contact.dtheta(s) for s in range(3)]),
              np.array(frame.reeb if reeb is None else reeb, dtype=object),
              np.array(frame.Is if Is is None else Is, dtype=object)]
    den = math.lcm(*(Fraction(v).denominator for a in arrays for v in a.flat))
    scale = np.frompyfunc(lambda v: int(v * den), 1, 1)
    theta, C, W, reeb, Is = (scale(a) for a in arrays)
    Ct, ident = np.swapaxes(C, 1, 2), den * den * np.eye(nh, dtype=int)

    def peak(power, *arrays):
        return Fraction(max(abs(v) for a in arrays for v in a.flat),
                        den ** power)
    return {
        "theta_on_frame": peak(2, theta @ Ct),
        "reeb_normalization": peak(
            2, theta @ reeb.T - den * den * np.eye(3, dtype=int)),
        "compatibility_2g": peak(3, C[:, None] @ W @ Ct[:, None]
                                 - 2 * den * den * np.swapaxes(Is, 1, 2)),
        "quaternion_relations": peak(
            2, *(Is[i] @ Is[j] - den * Is[k]
                 for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))),
            *(I @ I + ident for I in Is), *(I.T @ I - ident for I in Is)),
    }


def _assert_audit_matches_reference(frame, n_points, seed, **tamper):
    got = frame_audit(frame, n_points=n_points, seed=seed, **tamper)
    want = _reference_audit(frame, n_points, seed, **tamper)
    assert got.violations == want
    assert all(type(v) is Fraction for v in got.violations.values())


@pytest.mark.parametrize("n_points", [1, 30, 100])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_frame_audit_matches_the_fraction_reference(n, seed, n_points):
    _assert_audit_matches_reference(HorizontalFrame(n), n_points, seed)


def _tampers(n):
    """Broken reeb and Is arguments: a Reeb field with a non-integral
    entry, a sign-flipped I_1, an I_2 with a third in it, and a large Reeb
    entry whose contractions still fit in int64."""
    frame = HorizontalFrame(n)
    reeb = frame.reeb.astype(object)
    reeb[0, 4 * n] = Fraction(5, 2)
    flipped = frame.Is.astype(object)
    flipped[0] *= -1
    thirds = frame.Is.astype(object)
    thirds[1, 0, 1] = Fraction(1, 3)
    large = frame.reeb.astype(object)
    large[2, 4 * n + 2] = 2 ** 40
    return [{"reeb": reeb}, {"Is": flipped}, {"Is": thirds}, {"reeb": large}]


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("n", [1, 2])
def test_frame_audit_matches_the_reference_on_broken_frames(n, case):
    tamper = _tampers(n)[case]
    _assert_audit_matches_reference(HorizontalFrame(n), 30, 5, **tamper)
    assert frame_audit(HorizontalFrame(n), n_points=30, seed=5,
                       **tamper).max_violation > 0


@pytest.mark.parametrize("n", [1, 2])
def test_frame_audit_matches_the_reference_on_a_tampered_vmap(n):
    frame = copy.deepcopy(HorizontalFrame(n))
    frame._vmap[1, 0] += 1
    _assert_audit_matches_reference(frame, 30, 6)


@pytest.mark.parametrize("n", [1, 2])
def test_coefficient_maps_are_affine_at_the_audit_points(n):
    # frame_audit reads the coefficients at K/16 off 16 f(K/16) = f(K) +
    # 15 f(0); this holds exactly only because both maps are affine
    rng = np.random.default_rng(60 + n)
    K = rng.integers(-32, 33, size=(200, 4 * n + 3))
    scaled = np.vectorize(lambda k: Fraction(int(k), 16), otypes=[object])(K)
    origin = np.zeros((1, 4 * n + 3), dtype=int)
    for f in (ContactForm(n).coefficients, HorizontalFrame(n).coefficients):
        assert (16 * f(scaled) == f(K) + 15 * f(origin)).all()


@pytest.mark.parametrize("entry", [2 ** 70, 2 ** 55], ids=["2^70", "2^55"])
def test_frame_audit_refuses_numerators_that_could_overflow_int64(entry):
    # 2^70 does not fit in int64 at all; 2^55 fits, but its contraction
    # with the contact coefficients would pass 2^62, so the bound refuses it
    frame = HorizontalFrame(1)
    reeb = frame.reeb.astype(object)
    reeb[0, 4] = entry
    with pytest.raises(ValueError):
        frame_audit(frame, n_points=10, seed=0, reeb=reeb)


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
    units = np.eye(4, dtype=int).tolist()
    for i, p in enumerate(points):
        for a in range(n):
            qa = p[4 * a:4 * a + 4]
            for m, mu in enumerate(units):
                dq = [(x - y) * half for x, y in zip(hamilton(mu, _conj(qa)),
                                                     hamilton(qa, _conj(mu)))]
                assert theta[i, :, 4 * a + m].tolist() == dq[1:]
                v = [-2 * x for x in hamilton(mu, _conj(qa))]
                assert V[i, 4 * a + m].tolist() == v[1:]
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
    # so the symmetric part is the form along the frame alone, the one
    # conformal_torsion projects, each row within 1e-13 of its largest entry
    form = field.hessian_along(pts, frame.vertical_coefficients(pts))[2]
    sym = (fh + np.swapaxes(fh, 1, 2)) / 2.0
    scale = np.max(np.abs(form), axis=(1, 2))
    assert np.all(np.max(np.abs(sym - form), axis=(1, 2)) <= 1e-13 * scale)


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
    # the trace along the frame: C hess C^T = 2 Id exactly
    value, fg, lap = heis.sublaplacian(frame, f, pts)
    assert np.all(lap == 8.0)
    assert np.array_equal(value, f.values(pts))
    assert np.array_equal(fg, frame_first_order(f, pts, frame)[0])


@pytest.mark.parametrize("n", [1, 2])
def test_no_frame_coefficient_depends_on_its_own_coordinate(n):
    # sublaplacian takes sum_a D^2 f[C_a, C_a] alone: the first-order terms
    # (D_{C_a} C_a) . grad f of sum_a e_a(e_a f) vanish, as the coefficients
    # of frame field b do not depend on coordinate b; that term is the
    # bracket term -2 omega_s(e_a, e_a) d/dw_s f, on omega_s's zero diagonal
    frame = HorizontalFrame(n)
    b = np.arange(frame.nh)
    for s in range(3):
        assert not frame.omega(s)[b, b].any()
    assert not _dense_coeff_grads(frame)[b, b].any()


@pytest.mark.parametrize("n", [1, 2])
def test_sublaplacian_of_h_and_phi_matches_finite_differences(n):
    # Delta_H = trace of C hess C^T, with the Hessian from fd_oracle
    d = 4 * n + 3
    rng = np.random.default_rng(110 + n)
    base = GroupPoint.from_flat(rng.uniform(-1, 1, size=d).tolist(), n)
    params = ExtremalParams(n=n, c0=0.7, sigma=1.3, base=base)
    frame = HorizontalFrame(n)
    pts = rng.uniform(-1, 1, size=(6, d))
    C = frame.coefficients(pts)
    for field in (h_explicit(params), phi_explicit(params)):
        fd = fd_oracle(field, pts)
        want = np.einsum("nai,nij,naj->n", C, fd.hess, C)
        value, fg, lap = heis.sublaplacian(frame, field, pts)
        assert np.max(np.abs(value - fd.value)) <= 1e-14 * np.max(np.abs(fd.value))
        assert np.max(np.abs(fg - np.einsum("naj,nj->na", C, fd.grad))) \
            <= 1e-8 * np.max(np.abs(fg))
        assert np.max(np.abs(lap - want)) <= 1e-5 * np.max(np.abs(want))


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


# ---------------------------------------------------------------------------
# the constant frame tables as exact BLAS products


@pytest.mark.parametrize("n", [1, 2])
def test_frame_tables_hold_one_nonzero_per_output(n):
    # vertical_coefficients and frame_second_order multiply by these tables
    # with BLAS: each output picks up a single coefficient 0 or +-2, so the
    # product is exact in any order of summation, whatever the batch
    frame = HorizontalFrame(n)
    nh = frame.nh
    assert (np.count_nonzero(frame._vmap, axis=0) == 1).all()
    assert (np.count_nonzero(frame._bracket, axis=0) <= 1).all()
    assert np.count_nonzero(frame._bracket) == 12 * n
    for table in (frame._vmap, frame._bracket):
        assert set(np.abs(table[table != 0]).tolist()) == {2}
    # the bracket table, built from the I_s, is d_a v_s of frame field b
    # read off the exact coefficient map, as (s, (a, b)), zeros included
    dense = _dense_coeff_grads(frame)[:, :nh, nh:]
    _assert_same_bits(frame._bracket,
                      dense.transpose(2, 1, 0).reshape(3, nh * nh))


def _einsum_vertical(frame, points):
    """vertical_coefficients as the einsum over the slot coordinates."""
    points = heis._scalars(points)
    q = points[:, :frame.nh].reshape(-1, frame.n, 4)
    return np.einsum("nac,ck->nak", q, frame._vmap.astype(q.dtype)).reshape(
        -1, frame.nh, 3)


def _heavy_points(rng, size, d):
    """Cauchy-tailed points with a fifth of the coordinates +0.0 or -0.0,
    so that the tables' products meet zeros of both signs."""
    scale = 10.0 ** rng.integers(-3, 4, size=(size, d))
    pts = rng.standard_cauchy((size, d)) * scale
    zero = rng.random((size, d)) < 0.2
    pts[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5, 0.0, -0.0)
    return pts


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [1, 2])
def test_vertical_coefficients_equal_the_einsum_bit_for_bit(n):
    frame = HorizontalFrame(n)
    d = 4 * n + 3
    rng = np.random.default_rng(90 + n)
    for size in (1, 37, 4096, 24_000):
        pts = _heavy_points(rng, size, d)
        got = frame.vertical_coefficients(pts)
        want = _einsum_vertical(frame, pts)
        _assert_same_bits(got, want)
        assert size == 1 or (want == 0).any()
        # row-wise: a block of the batch gives the rows of the whole batch
        _assert_same_bits(frame.vertical_coefficients(pts[size // 3:]),
                          want[size // 3:])
    # exact points stay exact: int64 and Fraction points give the einsum's
    # values and scalar types
    K = rng.integers(-40, 41, size=(50, d))
    for pts in (K, np.vectorize(lambda k: Fraction(int(k), 7),
                                otypes=[object])(K)):
        got = frame.vertical_coefficients(pts)
        want = _einsum_vertical(frame, pts)
        assert got.dtype == want.dtype == object
        assert got.tolist() == want.tolist()
        assert [type(v) for v in got.flat] == [type(v) for v in want.flat]


@pytest.mark.parametrize("n", [1, 2])
def test_frame_second_order_hessian_equals_the_einsum_bit_for_bit(n):
    # on the generic path, a field with jets only, fh = C hess C^T, with
    # C = [I | V] assembled here from the frame's vertical block, plus the
    # constant bracket term, whose einsum over the exact coefficient
    # derivatives G[b, a, s] = d_a v_s of frame field b frame_second_order
    # replaces by one BLAS product; h enters through a JetField that has
    # only its jets, not its closed-form hessian_along
    frame = HorizontalFrame(n)
    d, nh = 4 * n + 3, 4 * n
    rng = np.random.default_rng(95 + n)
    G = _dense_coeff_grads(frame)[:, :nh, nh:]
    base = GroupPoint.from_flat(rng.uniform(-1, 1, size=d).tolist(), n)
    h = h_explicit(ExtremalParams(n=n, c0=0.7, sigma=1.3, base=base))
    fields = (random_positive_polynomial(d, rng), JetField(d, h.jets))
    for size in (1, 37, 4096, 24_000):
        pts = _heavy_points(rng, size, d)
        for field in fields:
            jf = field.jets(pts, order=2)
            V = frame.vertical_coefficients(pts)
            C = np.concatenate(
                (np.broadcast_to(np.eye(nh), (size, nh, nh)), V), axis=2)
            want = C @ jf.hess @ np.swapaxes(C, 1, 2)
            want += np.einsum("bas,ns->nab", G, jf.grad[:, nh:])
            _assert_same_bits(frame_second_order(field, pts, frame)[2], want)
