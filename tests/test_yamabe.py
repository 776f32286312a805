"""The explicit extremal family: PDE residual, conformal invariants,
symmetry transports, and the quadrature of the Sobolev-type ratio.

The ratio has an independent oracle here: for the centered n=1 field the
two integrals reduce to 2d radial integrals, evaluated with adaptive
quadrature. Euler-Lagrange forces num/den = S (Q-2)/(4(Q+2)) = 64 for
c0 = sigma = 1, which pins both integrals beyond their absolute values.
"""

import json
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, dblquad

from qcheis import qmc, yamabe
from qcheis.heis import (GroupPoint, HorizontalFrame, exponents, group_n,
                         frame_second_order, left_translation_affine)
from qcheis.jets import (AffineMapField, CombinationField, DomainError, Jet2,
                         JetField, coordinate_jets, fd_oracle,
                         random_positive_polynomial)
from qcheis.qmc import _polar_nodes, _sobol_chunks
from qcheis.tensors import project_3_m1, trace_free
from qcheis.yamabe import (BumpField, ExtremalParams, FunctionalEstimate,
                           bump_field, conformal_scal, conformal_torsion,
                           dilated_field, extremal_ratio, folland_stein_ratio,
                           functional_estimates, h_explicit, phi_explicit,
                           phi_from_h, translated_field, yamabe_residual)

from test_heis import _assert_same_bits, _heavy_points, oracle_multiply

# frozen from the radial oracle below; R = num / den^{4/5}
ORACLE_NUM = 0.507339015802
ORACLE_DEN = 0.00792717212189
ORACLE_RATIO = 24.3222434743


def _point(n, rng, span=1.0):
    return GroupPoint.from_flat(rng.uniform(-span, span, 4 * n + 3).tolist(), n)


@pytest.mark.parametrize("n", [1, 2])
def test_h_explicit_matches_closed_formula(n):
    rng = np.random.default_rng(n)
    base = _point(n, rng)
    params = ExtremalParams(n=n, c0=0.75, sigma=1.25, base=base)
    field = h_explicit(params)
    pts = rng.uniform(-2, 2, size=(40, 4 * n + 3))
    got = field.values(pts)
    q0 = np.array(base[:4 * n])
    for x, v in zip(pts, got):
        shifted_q = x[:4 * n] + q0
        radial = params.sigma + float(shifted_q @ shifted_q)
        tw = np.array(oracle_multiply(base, x.tolist())[4 * n:])
        expect = params.c0 * (radial ** 2 + float(tw @ tw))
        assert abs(v - expect) <= 1e-12 * max(1.0, abs(expect))


# ---------------------------------------------------------------------------
# references: h and the bump built by Jet2 composition, as the closed forms
# in qcheis.yamabe replaced them


def _linear_jet(points, coeffs, const, order):
    """Jet of the affine function coeffs . p + const."""
    N, d = points.shape
    value = np.einsum("nd,d->n", np.ascontiguousarray(points), coeffs) + const
    grad = np.broadcast_to(coeffs, (N, d)).copy()
    hess = None if order == 1 else np.zeros((N, d, d))
    return Jet2(value, grad, hess)


def _shifted_square_jet(points, nh, offset, order):
    """Jet of |p_H + offset|^2 over the first nh coordinates."""
    N, d = points.shape
    shifted = points[:, :nh] + offset
    value = np.einsum("ni,ni->n", shifted, shifted)
    grad = np.zeros((N, d))
    grad[:, :nh] = 2.0 * shifted
    if order == 1:
        return Jet2(value, grad, None)
    hess = np.zeros((N, d, d))
    idx = np.arange(nh)
    hess[:, idx, idx] = 2.0
    return Jet2(value, grad, hess)


def _composed_h(params):
    """h as c0 [(sigma + |q + q0|^2)^2 + sum_s twist_s^2] in Jet2 products."""
    nh = 4 * params.n
    A, offset = left_translation_affine(params.base)
    twist_rows = np.array(A[nh:], dtype=float)
    q0 = np.array(offset[:nh], dtype=float)
    w0 = np.array(offset[nh:], dtype=float)

    def builder(points, order):
        points = np.asarray(points, dtype=float)
        radial = _shifted_square_jet(points, nh, q0, order) + params.sigma
        acc = radial * radial
        for s in range(3):
            tw = _linear_jet(points, twist_rows[s], w0[s], order)
            acc = acc + tw * tw
        return acc * params.c0

    return JetField(nh + 3, builder)


def _composed_bump_jets(bump, points, order):
    """The bump's window (1 - rho^2)^3 and affine factor in Jet2 products."""
    points = np.asarray(points, dtype=float)
    coords = coordinate_jets(points, order)
    rho2 = None
    for i in range(bump.dim):
        term = (coords[i] - bump.center[i]) * (coords[i] - bump.center[i]) \
            * (1.0 / bump.radii[i] ** 2)
        rho2 = term if rho2 is None else rho2 + term
    u = 1.0 - rho2
    w = u * u * u
    mask = u.value > 0
    hess = None if w.hess is None else np.where(mask[:, None, None], w.hess, 0.0)
    window = Jet2(np.where(mask, w.value, 0.0),
                  np.where(mask[:, None], w.grad, 0.0), hess)
    return window * _linear_jet(points, bump.lin, bump.const, order)


def _assert_jets_close(got, ref, rtol):
    assert got.order == ref.order
    pairs = [(got.value, ref.value), (got.grad, ref.grad)]
    if ref.hess is not None:
        pairs.append((got.hess, ref.hess))
    for a, b in pairs:
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("order", [1, 2])
def test_h_closed_form_matches_jet_composition(n, order):
    rng = np.random.default_rng(90 + 2 * n + order)
    for _ in range(3):
        c0, sigma = rng.uniform(0.2, 3.0, size=2)
        params = ExtremalParams(n=n, c0=c0, sigma=sigma,
                                base=_point(n, rng, span=2.0))
        pts = rng.uniform(-2, 2, size=(500, 4 * n + 3))
        _assert_jets_close(h_explicit(params).jets(pts, order=order),
                           _composed_h(params).jets(pts, order=order), 1e-13)


def _full_twist_h_jets(params, points, order):
    """h's closed-form jet with the twist always contracted against the
    whole 3 x d block T of L_{p0}, as for a base with q0 != 0."""
    nh = 4 * params.n
    A, offset = left_translation_affine(params.base)
    T = np.array(A[nh:], dtype=float)
    q0 = np.array(offset[:nh], dtype=float)
    w0 = np.array(offset[nh:], dtype=float)
    c0, sigma = float(params.c0), float(params.sigma)
    s = points[:, :nh] + q0
    r = sigma + np.einsum("ni,ni->n", s, s)
    tw = np.einsum("nj,sj->ns", points, T) + w0
    value = c0 * (r * r + np.einsum("ns,ns->n", tw, tw))
    grad = np.einsum("ns,sj->nj", tw, 2.0 * c0 * T)
    grad[:, :nh] += (4.0 * c0 * r)[:, None] * s
    if order == 1:
        return Jet2(value, grad, None)
    TtT = T.T @ T
    hess = np.empty((len(points), nh + 3, nh + 3))
    hess[:] = c0 * (TtT + TtT.T)
    ss = s[:, :, None] * s[:, None, :]
    ss *= 8.0 * c0
    hess[:, :nh, :nh] += ss
    hess[:, np.arange(nh), np.arange(nh)] += (4.0 * c0 * r)[:, None]
    return Jet2(value, grad, hess)


@pytest.mark.parametrize("n", [1, 2])
def test_h_untwisted_jets_equal_the_full_twist_contraction(n):
    # at q0 = 0 the twist block of L_{p0} is [0 | Id] and h_explicit skips
    # its einsums; the jets must equal the full contraction bit for bit,
    # and a base with q0 != 0 keeps the full contraction
    rng = np.random.default_rng(40 + n)
    d = 4 * n + 3
    pts = rng.uniform(-3, 3, size=(600, d))
    pts[:5] = 0.0
    for q0, w0 in (([0.0] * (4 * n), [0.0] * 3),
                   ([0.0] * (4 * n), rng.uniform(-2, 2, 3).tolist()),
                   (rng.uniform(-1, 1, 4 * n).tolist(), [0.5, 0.0, -1.5])):
        params = ExtremalParams(n=n, c0=0.75, sigma=1.25,
                                base=GroupPoint.from_flat(q0 + w0, n))
        for order in (1, 2):
            got = h_explicit(params).jets(pts, order=order)
            ref = _full_twist_h_jets(params, pts, order)
            for part in ("value", "grad", "hess"):
                a, b = getattr(got, part), getattr(ref, part)
                assert (a is None and b is None) or (
                    np.array_equal(a, b)
                    and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("order", [1, 2])
def test_bump_closed_form_matches_jet_composition(n, order):
    rng = np.random.default_rng(95 + 2 * n + order)
    for seed in range(3):
        bump = bump_field(n, seed=seed)
        pts = bump.center + rng.uniform(-0.8, 0.8, size=(500, 4 * n + 3))
        got = bump.jets(pts, order=order)
        assert 0 < np.count_nonzero(got.value) < len(pts)
        _assert_jets_close(got, _composed_bump_jets(bump, pts, order), 1e-13)


def test_closed_form_jets_use_no_jet_products(monkeypatch):
    # h and the bump are closed forms; a Jet2 * Jet2 product on their path
    # means someone went back to composing them. Scaling by a number stays
    # allowed (phi_from_h scales h's jet by 2)
    original = Jet2.__mul__

    def scalar_only(self, other):
        if isinstance(other, Jet2):
            raise AssertionError("Jet2 * Jet2 on a closed-form path")
        return original(self, other)

    monkeypatch.setattr(Jet2, "__mul__", scalar_only)
    monkeypatch.setattr(Jet2, "__rmul__", scalar_only)
    x, y = coordinate_jets(np.zeros((1, 7)))[:2]
    with pytest.raises(AssertionError):
        x * y
    rng = np.random.default_rng(3)
    for n in (1, 2):
        params = ExtremalParams(n=n, c0=1.5, sigma=0.5, base=_point(n, rng))
        bump = bump_field(n, seed=n)
        pts = bump.center + rng.uniform(-0.5, 0.5, size=(20, 4 * n + 3))
        assert h_explicit(params).jets(pts, order=2).order == 2
        assert phi_explicit(params).jets(pts, order=2).order == 2
        assert np.count_nonzero(bump.jets(pts, order=2).hess)


@pytest.mark.parametrize("n", [1, 2])
def test_every_jet_producer_returns_an_exactly_symmetric_hessian(n):
    # the generic hessian_along reads the full (N, d, d) Hessian and
    # conformal_torsion projects its form as a symmetric one, so each
    # producer must make H equal to its transpose bit for bit
    d = 4 * n + 3
    rng = np.random.default_rng(60 + n)
    params = ExtremalParams(n=n, c0=0.7, sigma=1.3, base=_point(n, rng))
    phi = phi_explicit(params)
    bump = bump_field(n, seed=n)
    producers = {
        "h_explicit": h_explicit(params),
        "phi_explicit": phi,
        "bump": bump,
        "polynomial": random_positive_polynomial(d, rng),
        "translated": translated_field(phi, _point(n, rng)),
        "dilated": dilated_field(phi, 1.7),
        "combination": CombinationField([phi, bump], [1.0, 0.3]),
    }
    pts = bump.center + rng.uniform(-0.6, 0.6, size=(200, d))
    hessians = {name: f.jets(pts, order=2).hess for name, f in producers.items()}
    hessians["fd_oracle"] = fd_oracle(phi, pts[:10]).hess
    off_diagonal = ~np.eye(d, dtype=bool)
    for name, H in hessians.items():
        assert H.shape == (len(H), d, d) and H.dtype == np.float64, name
        assert np.any(H[:, off_diagonal]), name
        assert np.array_equal(H, np.swapaxes(H, 1, 2)), name


def _right_translated(u, p0):
    """u o R_{p0}, p -> p . p0: the left-translation matrix of p0 with its
    twist block negated, as Im(q conj(q0)) = -Im(q0 conj(q)). Not a
    symmetry of the left-invariant frame."""
    A, b = left_translation_affine(p0)
    A = np.array(A, dtype=float)
    nh = 4 * p0.n
    A[nh:, :nh] *= -1
    return AffineMapField(u, A, np.array(b, dtype=float))


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_second_derivatives_equal_the_dense_contraction(n):
    # h, Phi and Phi's transports write hessian_along from the vertical
    # block V alone; the form and its trace against X hess X^T of their own
    # order-2 jets, X = [I | V], along the frame's V and along random V
    # rows, row by row within 1e-13 of the row's largest entry. The right
    # translate fails wherever V is read at the mapped points
    d, nh = 4 * n + 3, 4 * n
    rng = np.random.default_rng(130 + n)
    params = ExtremalParams(n=n, c0=0.7, sigma=1.3, base=_point(n, rng))
    phi = phi_explicit(params)
    fields = {"h": h_explicit(params), "phi": phi,
              "translated": translated_field(phi, _point(n, rng)),
              "right_translated": _right_translated(phi, _point(n, rng)),
              "dilated": dilated_field(phi, 1.7)}
    frame = HorizontalFrame(n)
    for size in (1, 37, 4096):
        heavy = _heavy_points(rng, size, d)
        for pts in (heavy, np.asfortranarray(heavy)):
            for V in (frame.vertical_coefficients(pts),
                      rng.normal(size=(size, nh, 3))):
                X = np.concatenate(
                    (np.broadcast_to(np.eye(nh), (size, nh, nh)), V), axis=2)
                for name, field in fields.items():
                    jet = field.jets(pts, order=2)
                    dense = X @ jet.hess @ np.swapaxes(X, 1, 2)
                    scale = np.max(np.abs(dense), axis=(1, 2))
                    value, grad, form = field.hessian_along(pts, V)
                    assert np.array_equal(value, jet.value), name
                    assert np.array_equal(grad, jet.grad), name
                    err = np.max(np.abs(form - dense), axis=(1, 2))
                    assert np.all(err <= 1e-13 * scale), name
                    value, grad, lap = field.hessian_along(pts, V, trace=True)
                    assert np.array_equal(value, jet.value), name
                    assert np.array_equal(grad, jet.grad), name
                    err = np.abs(lap - np.einsum("naa->n", dense))
                    assert np.all(err <= 1e-13 * scale), name


def test_phi_second_derivatives_refuse_nonpositive_h():
    # hessian_along keeps the jets' DomainError where h <= 0
    h = JetField(7, lambda p, order: Jet2(p[:, 0], np.ones_like(p),
                                          np.zeros((len(p), 7, 7))))
    phi = phi_from_h(h)
    pts = np.array([[1.0] + [0.0] * 6, [-1.0] + [0.0] * 6])
    V = np.ones((2, 4, 3))
    for trace in (False, True):
        with pytest.raises(DomainError):
            phi.hessian_along(pts, V, trace=trace)
        phi.hessian_along(pts[:1], V[:1], trace=trace)


def test_phi_order2_jet_holds_few_hessian_sized_arrays():
    # pow_real and phi_from_h keep at most three Hessian-sized arrays alive
    # at once: 2h's, g g^T (which becomes the result) and d1 H. An
    # out-of-place d1 H + d2 g g^T, or h's jet kept alive across pow_real,
    # adds one more; the rest (points, gradients) is under half a unit
    n, N = 1, 4096
    d = 4 * n + 3
    rng = np.random.default_rng(12)
    phi = phi_explicit(ExtremalParams(n=n, c0=0.8, sigma=1.2,
                                      base=_point(n, rng)))
    pts = rng.uniform(-2, 2, size=(N, d))
    phi.jets(pts[:8], order=2)
    jet, peak = _traced_peak(lambda: phi.jets(pts, order=2))
    assert jet.hess.shape == (N, d, d)
    assert peak <= 3.75 * N * d * d * 8


def _traced_peak(call):
    """call()'s result and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before


def test_scans_hold_no_ambient_hessian():
    # residual and scal read Delta_H from the vertical block V (N, 4n, 3)
    # and never build the frame coefficients C (N, 4n, d), 8/11 of an
    # (N, d, d) array at n = 2: V, its twisted copy and h's first-order
    # arrays stay below 0.75 of one. torsion holds at most 4.5 (N, 4n, 4n)
    # forms at once: the form along V and the projection's three buffers
    n, N = 2, 4096
    d, nh = 4 * n + 3, 4 * n
    rng = np.random.default_rng(13)
    params = ExtremalParams(n=n, c0=0.8, sigma=1.2, base=_point(n, rng))
    s_theta = params.s_theta
    frame = HorizontalFrame(n)
    pts = rng.uniform(-2, 2, size=(N, d))
    h, phi = h_explicit(params), phi_explicit(params)
    hessian, form = N * d * d * 8, N * nh * nh * 8
    calls = {
        "residual": lambda: yamabe_residual(phi, s_theta, pts, frame,
                                            return_terms=True),
        "scal": lambda: conformal_scal(h, pts, frame),
        "torsion": lambda: conformal_torsion(h, pts, frame),
    }
    for call in calls.values():
        call()
    peaks = {name: _traced_peak(call)[1] for name, call in calls.items()}
    assert peaks["residual"] < 0.75 * hessian
    assert peaks["scal"] < 0.75 * hessian
    assert peaks["torsion"] <= 4.5 * form


@pytest.mark.parametrize("n", [1, 2])
def test_family_closed_under_left_translation(n):
    rng = np.random.default_rng(40 + n)
    b = _point(n, rng)
    p0 = _point(n, rng)
    params = ExtremalParams(n=n, c0=1.0, sigma=1.0, base=b)
    moved = translated_field(h_explicit(params), p0)
    composed = h_explicit(ExtremalParams(n=n, c0=1.0, sigma=1.0,
                                         base=GroupPoint.from_flat(
                                             oracle_multiply(b, p0), n)))
    pts = rng.uniform(-2, 2, size=(60, 4 * n + 3))
    left, right = moved.values(pts), composed.values(pts)
    assert np.max(np.abs(left - right) / np.maximum(1.0, np.abs(right))) < 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_phi_is_inverse_power_of_2h(n):
    params = ExtremalParams.centered(n, c0=0.5, sigma=2.0)
    h_field = h_explicit(params)
    phi = phi_from_h(h_field)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2, 2, size=(30, 4 * n + 3))
    hv = h_field.values(pts)
    expect = (2.0 * hv) ** (-(4 * n + 4) / 4.0)
    assert np.max(np.abs(phi.values(pts) - expect) / expect) < 1e-13


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("c0,sigma", [(0.5, 2.0), (1.0, 1.0), (2.0, 0.5)])
def test_pde_residual_small(n, c0, sigma):
    rng = np.random.default_rng(17)
    params = ExtremalParams(n=n, c0=c0, sigma=sigma, base=_point(n, rng))
    phi = phi_explicit(params)
    frame = HorizontalFrame(n)
    pts = rng.uniform(-2, 2, size=(2000, 4 * n + 3))
    r, t1, t2 = yamabe_residual(phi, params.s_theta, pts, frame,
                                return_terms=True)
    rel = np.abs(r) / np.maximum(np.abs(t1), np.abs(t2))
    assert np.max(rel) < 1e-11


@pytest.mark.parametrize("n", [1, 2])
def test_conformal_scal_is_the_constant(n):
    rng = np.random.default_rng(23)
    params = ExtremalParams(n=n, c0=2.0, sigma=0.5, base=_point(n, rng))
    frame = HorizontalFrame(n)
    pts = rng.uniform(-2, 2, size=(2000, 4 * n + 3))
    scal = conformal_scal(h_explicit(params), pts, frame)
    assert np.max(np.abs(scal - params.s_theta)) < 1e-9 * params.s_theta
    assert np.std(scal) < 1e-11 * np.mean(scal)


@pytest.mark.parametrize("n", [1, 2])
def test_conformal_torsion_vanishes_on_family(n):
    rng = np.random.default_rng(29)
    params = ExtremalParams(n=n, c0=0.5, sigma=2.0, base=_point(n, rng))
    frame = HorizontalFrame(n)
    pts = rng.uniform(-2, 2, size=(2000, 4 * n + 3))
    t0bar, ubar = conformal_torsion(h_explicit(params), pts, frame)
    assert np.max(np.abs(t0bar)) < 1e-12
    assert np.max(np.abs(ubar)) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_conformal_torsion_equals_the_two_projection_formula(n):
    # off the family the torsion is nonzero; one projection of the form
    # along the frame and the [3]-part of dh o dh subtracted from it agree
    # with projecting Hessian - 2 h^{-1} dh o dh a second time, the
    # symmetrized Hessian taken as the symmetric part of
    # frame_second_order's fh; on the family both are round-off
    d = 4 * n + 3
    rng = np.random.default_rng(31 + n)
    poly = random_positive_polynomial(d, rng)
    frame = HorizontalFrame(n)
    pts = rng.uniform(-1.5, 1.5, size=(300, d))
    params = ExtremalParams(n=n, c0=0.7, sigma=1.3, base=_point(n, rng))
    for h_field in (poly, h_explicit(params)):
        t0bar, ubar = conformal_torsion(h_field, pts, frame)
        h, fg, fh, _ = frame_second_order(h_field, pts, frame)
        hsym = (fh + np.swapaxes(fh, 1, 2)) / 2.0
        hh = h[:, None, None]
        shifted = hsym - 2.0 * np.einsum("na,nb->nab", fg, fg) / hh
        want_t0 = project_3_m1(hsym, frame)[1] / hh
        want_u = trace_free(project_3_m1(shifted, frame)[0], frame) \
            / (2.0 * hh)
        # each row within 1e-13 of the largest entry of the form it
        # projects
        for got, want, projected in ((t0bar, want_t0, hsym / hh),
                                     (ubar, want_u, shifted / (2.0 * hh))):
            scale = np.max(np.abs(projected), axis=(1, 2))
            assert np.all(np.max(np.abs(got - want), axis=(1, 2))
                          <= 1e-13 * scale)
        # at n = 1 the trace-free [3]-part is zero up to round-off even off
        # the family
        assert h_field is not poly or n == 1 \
            or np.min(np.max(np.abs(ubar), axis=(1, 2))) > 1e-3


def test_perturbed_field_breaks_pde_on_support():
    # negative control: add a C^2 bump small enough to keep positivity and
    # the residual jumps by many orders of magnitude where the bump lives
    n, seed = 1, 11
    frame = HorizontalFrame(n)
    params = ExtremalParams.centered(n)
    phi = phi_explicit(params)
    bump = bump_field(n, seed=seed)
    center = np.random.default_rng(seed).uniform(-1.0, 1.0, size=7)
    pts = center + np.random.default_rng(0).uniform(-0.15, 0.15, size=(200, 7))
    eps = 0.2 * float(np.min(phi.values(pts))) \
        / float(np.max(np.abs(bump.values(pts))))
    pert = CombinationField([phi, bump], [1.0, eps])
    r, t1, t2 = yamabe_residual(pert, params.s_theta, pts, frame,
                                return_terms=True)
    rel = np.abs(r) / np.maximum(np.abs(t1), np.abs(t2))
    assert np.max(rel) > 1e-3


def test_residual_rejects_sign_changing_fields():
    frame = HorizontalFrame(1)
    phi = phi_explicit(ExtremalParams.centered(1))
    bump = bump_field(1, seed=11)
    center = np.random.default_rng(11).uniform(-1.0, 1.0, size=7)
    pts = center + np.random.default_rng(1).uniform(-0.1, 0.1, size=(50, 7))
    big = CombinationField([phi, bump], [1.0, 10.0])
    with pytest.raises(DomainError):
        yamabe_residual(big, 384.0, pts, frame)


def test_bump_field_support_and_smoothness():
    bump = bump_field(1, seed=5)
    center = np.random.default_rng(5).uniform(-1.0, 1.0, size=7)
    far = center + 4.0 * np.ones(7)
    assert np.all(bump.values(np.array([far])) == 0.0)
    near = center + np.random.default_rng(2).uniform(-0.1, 0.1, size=(5, 7))
    jb = bump.jets(near, order=2)
    fd = fd_oracle(bump, near)
    assert np.max(np.abs(jb.grad - fd.grad)) < 1e-6
    assert np.max(np.abs(jb.hess - fd.hess)) < 1e-4


def test_bump_order2_jets_match_fd_oracle_n2():
    bump = bump_field(2, seed=5)
    near = bump.center + np.random.default_rng(4).uniform(-0.3, 0.3,
                                                          size=(5, 11))
    jb = bump.jets(near, order=2)
    assert np.all(jb.value != 0.0)
    fd = fd_oracle(bump, near)
    assert np.max(np.abs(jb.value - fd.value)) == 0.0
    assert np.max(np.abs(jb.grad - fd.grad)) < 1e-6
    assert np.max(np.abs(jb.hess - fd.hess)) < 1e-4


@pytest.mark.parametrize("n", [1, 2])
def test_bump_support_covers_every_nonzero_point(n):
    # points within 1e-6 of the ellipsoid in rho^2, plus a few far inside
    # and far outside; the support mask must hold wherever the bump is not 0
    d = 4 * n + 3
    rng = np.random.default_rng(70 + n)
    for seed in range(5):
        bump = bump_field(n, seed=seed)
        dirs = rng.normal(size=(4000, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        rho = np.sqrt(1.0 + rng.uniform(-1e-6, 1e-6, size=4000))
        rho[:20] = np.sqrt(1.0 + rng.uniform(-1e-15, 1e-15, size=20))
        rho[-20:] = rng.uniform(0.0, 2.0, size=20)
        pts = bump.center + dirs * rho[:, None] * bump.radii
        jb = bump.jets(pts, order=1)
        nonzero = (jb.value != 0) | np.any(jb.grad != 0, axis=1)
        inside = bump.support(pts)
        assert np.all(inside[nonzero])
        assert 0 < np.count_nonzero(nonzero) < len(pts)
        assert not np.all(inside)


def _screen_points(bumps, rng):
    """Points within 1e-9 and 1e-15 of each bump's ellipsoid in rho^2, a few
    well inside, and far points with Cauchy-tail magnitudes up to 1e12."""
    d = bumps[0].dim
    parts = []
    for bump in bumps:
        dirs = rng.normal(size=(3000, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        rho2 = 1.0 + rng.uniform(-1e-9, 1e-9, size=3000)
        rho2[:1000] = 1.0 + rng.uniform(-1e-15, 1e-15, size=1000)
        rho2[-100:] = rng.uniform(0.0, 1.0, size=100)
        parts.append(bump.center + dirs * np.sqrt(rho2)[:, None] * bump.radii)
    dirs = rng.normal(size=(2000, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radius = np.minimum(np.abs(rng.standard_cauchy(2000)) * 1e3, 1e12)
    radius[:10] = 1e12
    parts.append(dirs * radius[:, None])
    return np.concatenate(parts)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("box", [2.0, 1e6])
def test_support_screen_keeps_every_support_row(monkeypatch, n, box):
    # the one-pass screen of all bumps must keep every row support() admits;
    # far from the origin the expanded rho^2 loses digits to cancellation,
    # and without its allowance for that round-off it drops support rows
    bumps = [bump_field(n, seed=k, box=box) for k in range(20)]
    pts = _screen_points(bumps, np.random.default_rng(int(box) + n))
    support = np.stack([bump.support(pts) for bump in bumps], axis=1)
    keep = yamabe._support_screen(bumps, pts)
    assert np.count_nonzero(support) > 20000
    assert np.all(keep[support])
    assert not np.all(keep)
    monkeypatch.setattr(yamabe, "_SCREEN_ROUNDOFF", 0.0)
    dropped = np.count_nonzero(support & ~yamabe._support_screen(bumps, pts))
    # near the origin support()'s slack alone covers the round-off
    assert dropped == 0 if box == 2.0 else dropped > 10000


def test_bump_jets_do_not_depend_on_the_batch():
    # functional_estimates evaluates a bump on the support rows of a chunk
    # only,
    # and matches the full-chunk evaluation exactly; that needs every row's
    # jet to be the same alone, inside a batch and in a Fortran-ordered batch
    bump = bump_field(1, seed=8)
    pts = bump.center + np.random.default_rng(3).uniform(-0.4, 0.4,
                                                         size=(257, 7))
    for jet_order in (1, 2):
        full = bump.jets(pts, order=jet_order)
        assert np.count_nonzero(full.value) > 100
        parts = ("value", "grad") if jet_order == 1 else ("value", "grad", "hess")
        for batch in (np.asfortranarray(pts), pts[::-1]):
            jb = bump.jets(batch, order=jet_order)
            rows = slice(None) if batch.flags.f_contiguous else slice(None, None, -1)
            for part in parts:
                assert np.array_equal(getattr(jb, part)[rows],
                                      getattr(full, part))
        for i in range(0, 257, 16):
            one = bump.jets(pts[i:i + 1], order=jet_order)
            for part in parts:
                assert np.array_equal(getattr(one, part)[0],
                                      getattr(full, part)[i])


def _order1_fields(n, rng):
    """The closed-form fields of the functional's node pass: h centred and
    twisted, Phi, a bump and Phi + eps b."""
    twisted = ExtremalParams(n=n, c0=0.7, sigma=1.3, base=_point(n, rng))
    phi = phi_explicit(ExtremalParams.centered(n))
    bump = bump_field(n, seed=n)
    return bump, {
        "h_centred": h_explicit(ExtremalParams.centered(n, c0=0.8, sigma=1.2)),
        "h_twisted": h_explicit(twisted), "phi": phi,
        "phi_twisted": phi_explicit(twisted), "bump": bump,
        "combination": CombinationField([phi, bump], [1.0, 0.05])}


@pytest.mark.parametrize("n", [1, 2])
def test_order1_jets_do_not_depend_on_memory_order(n):
    # the node pass hands fields the (N, d) view of a coordinate-major
    # (d, N) array; every closed-form field computes on coordinate rows and
    # writes out its sums over coordinates, so a Fortran-ordered batch and
    # its C-ordered copy get the same jets bit for bit, zero signs included,
    # and each gradient keeps its input's memory order
    d = 4 * n + 3
    rng = np.random.default_rng(70 + n)
    bump, fields = _order1_fields(n, rng)
    for size in (1, 37, 4096):
        pts = bump.center + rng.uniform(-0.6, 0.6, size=(size, d))
        zero = rng.random((size, d)) < 0.2
        pts[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5,
                             0.0, -0.0)
        for name, field in fields.items():
            jc = field.jets(pts, order=1)
            jf = field.jets(np.asfortranarray(pts), order=1)
            _assert_same_bits(jc.value, jf.value)
            _assert_same_bits(jc.grad, jf.grad)
            assert jc.grad.flags.c_contiguous, (name, size)
            assert jf.grad.flags.f_contiguous, (name, size)
        if size == 4096:
            assert np.count_nonzero(bump.jets(pts, order=1).value) > 100


@pytest.mark.parametrize("n", [1, 2])
def test_h_and_phi_order1_jets_equal_their_order2_jets(n):
    # order 1 and order 2 share the value and gradient code, so they agree
    # bit for bit; bench/layers.py's traced probe checks the same of Phi's
    # values ("phi order-1 values differ from order 2")
    d = 4 * n + 3
    rng = np.random.default_rng(75 + n)
    _, fields = _order1_fields(n, rng)
    pts = rng.uniform(-2, 2, size=(600, d))
    for name in ("h_centred", "h_twisted", "phi", "phi_twisted"):
        for batch in (pts, np.asfortranarray(pts)):
            j1 = fields[name].jets(batch, order=1)
            j2 = fields[name].jets(batch, order=2)
            assert np.array_equal(j1.value, j2.value), name
            assert np.array_equal(j1.grad, j2.grad), name


class _RecordingField:
    """Passes jets() through to a field and records each batch's shape,
    memory order and jet order; like bench/layers.py's CountingField it has
    only dim and jets."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.batches = []

    def jets(self, points, order=2):
        self.batches.append((points.shape, points.flags.f_contiguous,
                             points.flags.c_contiguous, order))
        return self.inner.jets(points, order=order)


@pytest.mark.parametrize("n", [1, 2])
def test_node_pass_hands_fields_coordinate_major_batches(n):
    # the pilot and the main pass evaluate every field on the (N, d) view of
    # a coordinate-major (d, N) node chunk, order 1 only, and each node
    # exactly once: 2 2^p pilot rows plus 2 2^m main rows, the count
    # bench/layers.py's fs_ratio probe requires
    d = 4 * n + 3
    p, m = 12, 13
    phi = phi_explicit(ExtremalParams.centered(n))
    rec = _RecordingField(phi)
    est = folland_stein_ratio(rec, n, samples_log2=m, seed=1, pilot_log2=p)
    assert est.ratio == folland_stein_ratio(phi, n, samples_log2=m, seed=1,
                                            pilot_log2=p).ratio
    assert len(rec.batches) == 2 * 2 ** p // qmc._CHUNK \
        + 2 * 2 ** m // qmc._CHUNK
    assert sum(shape[0] for shape, *_ in rec.batches) == \
        2 * 2 ** p + 2 * 2 ** m
    for shape, f_order, c_order, order in rec.batches:
        assert shape == (qmc._CHUNK, d) and order == 1
        assert f_order and not c_order
    # the same holds for the base field of functional_estimates, whose
    # pilot runs at _PILOT_LOG2 and whose main pass also carries the bumps
    rec = _RecordingField(phi)
    functional_estimates([rec], [bump_field(n, seed=500)], 0.05, n,
                         samples_log2=m, seed=1)
    assert sum(shape[0] for shape, *_ in rec.batches) == \
        2 * 2 ** qmc._PILOT_LOG2 + 2 * 2 ** m
    assert all(f_order and not c_order and order == 1
               for _, f_order, c_order, order in rec.batches)


def test_dilated_field_composes_and_scales():
    phi = phi_explicit(ExtremalParams.centered(1))
    lam = 2.0
    moved = dilated_field(phi, lam)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(20, 7))
    scaled = np.array(pts)
    scaled[:, :4] *= lam
    scaled[:, 4:] *= lam * lam
    expect = lam ** 4.0 * phi.values(scaled)
    assert np.max(np.abs(moved.values(pts) - expect) / expect) < 1e-13


# the paper's constants written out as numbers: Q = 4n + 6, 2* = 2Q/(Q-2),
# and S = 128 n (n+2) c0 sigma at two (c0, sigma, S) per n
_PAPER_CONSTANTS = [
    (1, 10, Fraction(5, 2), ((1.0, 1.0, 384.0), (2.0, 0.25, 192.0))),
    (2, 14, Fraction(7, 3), ((1.0, 1.0, 1024.0), (0.75, 1.25, 960.0))),
    (3, 18, Fraction(9, 4), ((1.0, 1.0, 1920.0), (2.0, 0.25, 960.0))),
    (4, 22, Fraction(11, 5), ((1.0, 1.0, 3072.0), (0.5, 0.5, 768.0))),
]


@pytest.mark.parametrize("n,qdim,two_star,curvatures", _PAPER_CONSTANTS)
def test_exponents_curvature_and_weights_match_the_paper(n, qdim, two_star,
                                                         curvatures):
    # heis.exponents, group_n and ExtremalParams.s_theta against the table;
    # Phi = (2h)^{-(Q-2)/4} on a (4n+3)-dimensional h, and the order-1 jets
    # of dilated_field against lam^{(Q-2)/2} Phi o delta_lam and its chain
    # rule, composed here from Phi's own jets at the dilated points
    assert exponents(n) == (qdim, float(two_star))
    assert group_n(4 * n + 3) == n
    with pytest.raises(ValueError):
        group_n(4 * n + 4)
    rng = np.random.default_rng(70 + n)
    for c0, sigma, s_theta in curvatures:
        params = ExtremalParams(n=n, c0=c0, sigma=sigma, base=_point(n, rng))
        assert params.s_theta == s_theta
    h = h_explicit(ExtremalParams(n=n, c0=0.7, sigma=1.3,
                                  base=_point(n, rng)))
    pts = rng.uniform(-1.5, 1.5, size=(50, 4 * n + 3))
    phi = phi_from_h(h)
    expect = (2.0 * h.values(pts)) ** (-(qdim - 2) / 4)
    assert np.max(np.abs(phi.values(pts) - expect) / expect) < 1e-13
    for lam in (0.5, 2.0):
        stretch = np.array([lam] * (4 * n) + [lam * lam] * 3)
        at = phi.jets(pts * stretch, order=1)
        weight = lam ** ((qdim - 2) / 2)
        moved = dilated_field(phi, lam).jets(pts, order=1)
        value, grad = weight * at.value, weight * at.grad * stretch
        assert np.max(np.abs(moved.value - value) / value) < 1e-13
        assert np.max(np.abs(moved.grad - grad)) \
            < 1e-13 * np.max(np.abs(grad))


def test_radial_oracle_reproduces_frozen_constants():
    # 2h = 2[(1+r^2)^2 + w^2]; the angular integrations contribute 8 pi^3,
    # and |grad_H Phi|^2 = 128 r^2 (2h)^{-5} for the centered n=1 field
    def den_f(t, s):
        r, w = np.tan(s), np.tan(t)
        jac = (1 + r * r) * (1 + w * w)
        core = (2.0 * ((1 + r * r) ** 2 + w * w)) ** -5
        return r ** 3 * w ** 2 * core * jac

    def num_f(t, s):
        r, w = np.tan(s), np.tan(t)
        return 128.0 * r * r * den_f(t, s)

    k = 8.0 * np.pi ** 3
    top = np.arctan(1e6)
    with warnings.catch_warnings():
        # quadpack flags the flat tail of the tangent substitution; the
        # assertions below prove convergence to the frozen digits
        warnings.simplefilter("ignore", IntegrationWarning)
        num = k * dblquad(num_f, 0, top, 0, top,
                          epsabs=1e-13, epsrel=1e-13)[0]
        den = k * dblquad(den_f, 0, top, 0, top,
                          epsabs=1e-13, epsrel=1e-13)[0]
    assert abs(num - ORACLE_NUM) < 1e-10
    assert abs(den - ORACLE_DEN) < 1e-12
    # Euler-Lagrange: num/den = S (Q-2)/(4(Q+2)) = 384/6 = 64 exactly
    assert abs(num / den - 64.0) < 1e-8
    assert abs(num / den ** 0.8 - ORACLE_RATIO) < 1e-8


def test_functional_estimate_matches_oracle():
    phi = phi_explicit(ExtremalParams.centered(1))
    est = folland_stein_ratio(phi, 1, samples_log2=14, seed=0, pilot_log2=12)
    assert isinstance(est, FunctionalEstimate)
    assert abs(est.ratio - ORACLE_RATIO) / ORACLE_RATIO < 2e-4
    assert est.error < 1e-2
    assert est.numerator > 0 and est.denominator > 0
    # the estimate must not depend on the family normalization
    other = phi_explicit(ExtremalParams.centered(1, c0=2.0, sigma=0.5))
    est2 = folland_stein_ratio(other, 1, samples_log2=14, seed=0,
                               pilot_log2=12)
    assert abs(est2.ratio - est.ratio) / est.ratio < 5e-5


def test_functional_estimate_node_map_reuse_is_deterministic():
    phi = phi_explicit(ExtremalParams.centered(1))
    est = folland_stein_ratio(phi, 1, samples_log2=13, seed=3, pilot_log2=11)
    center, transform = est.map
    assert center.shape == (7,) and transform.shape == (7, 7)
    replay = folland_stein_ratio(phi, 1, samples_log2=13, seed=3,
                                 node_map=est.map)
    assert replay.per_scramble == est.per_scramble
    again = folland_stein_ratio(phi, 1, samples_log2=13, seed=3,
                                pilot_log2=11)
    assert again.ratio == est.ratio


@pytest.mark.parametrize("m,chunk", [(10, 2 ** 8), (10, 2 ** 12)])
def test_streamed_nodes_equal_one_draw(m, chunk):
    from scipy.stats import qmc as scipy_qmc
    d = 7
    whole = scipy_qmc.Sobol(d=d, scramble=True, seed=4).random(2 ** m)
    parts = list(_sobol_chunks(d, m, 4, chunk))
    assert len(parts) == max(1, 2 ** m // chunk)
    assert np.array_equal(np.concatenate(parts), whole)
    # the polar map acts row by row, so chunks map as the whole draw does
    z_one, w_one = _polar_nodes(whole, 1)
    zs, ws = zip(*(_polar_nodes(u, 1) for u in parts))
    assert np.array_equal(np.concatenate(zs), z_one)
    assert np.array_equal(np.concatenate(ws), w_one)


@pytest.mark.parametrize("d", [7, 11])
@pytest.mark.parametrize("m", [0, 10, 14, 18])
@pytest.mark.parametrize("seed", [0, 3])
def test_sobol_chunks_equal_scipy_scrambled_sobol(d, m, seed):
    # the in-tree generator against scipy's, at the four seeds one functional
    # scramble pass and its pilots use, in chunks below, equal to and above
    # 2^m (1000 rows straddles every power-of-two boundary)
    from scipy.stats import qmc as scipy_qmc
    for s in (seed, seed + 1, seed + 17, seed + 18):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # m = 0: not a power of 2 > 1
            whole = scipy_qmc.Sobol(d=d, scramble=True,
                                    seed=s).random(2 ** m)
        for chunk in (1000, 2 ** max(m - 2, 0), 2 ** m, 2 ** (m + 1)):
            got = np.concatenate(list(_sobol_chunks(d, m, s, chunk)))
            assert got.dtype == np.float64
            assert np.array_equal(got, whole), (s, chunk)


def test_sobol_chunks_refuse_unsupported_sizes():
    with pytest.raises(ValueError):
        next(_sobol_chunks(12, 4, 0, 16))
    with pytest.raises(ValueError):
        next(_sobol_chunks(7, 31, 0, 16))


@pytest.mark.parametrize("n,m,chunk", [
    pytest.param(1, 12, None, id="1-12"),
    pytest.param(2, 10, None, id="2-10"),
    pytest.param(1, 12, 2 ** 10, id="1-12-chunks-of-1024")])
def test_functional_estimates_equal_separate_ratios(monkeypatch, n, m, chunk):
    # one shared draw per scramble gives exactly what the separate estimates
    # give: each field's estimate equals its own folland_stein_ratio in
    # every field of the result, and each bump the per-bump path on the
    # base's nodes, down to bumps with a single node in their support; a
    # bump far from every node keeps the base ratio bit for bit, so its
    # margin is exactly 0.0. A duplicated bump and two overlapping ones put
    # nodes in several supports at once, which the batched bump pass keeps
    # apart. With a smaller chunk the pilots and the main nodes span
    # several chunks each
    if chunk is not None:
        monkeypatch.setattr(qmc, "_CHUNK", chunk)
    d = 4 * n + 3
    phi = phi_explicit(ExtremalParams.centered(n))
    fields = [phi, translated_field(phi, _point(n, np.random.default_rng(2))),
              dilated_field(phi, 2.0)]
    far = BumpField(np.full(d, 1e4), np.ones(d), np.zeros(d), 1.0)
    twins = [BumpField(np.full(d, 0.1), np.ones(d), np.linspace(-0.3, 0.3, d),
                       1.0),
             BumpField(np.full(d, -0.2), np.full(d, 0.8), np.zeros(d), -0.7)]
    bumps = [bump_field(n, seed=500 + k) for k in range(20)] + twins + \
        [BumpField(twins[0].center, twins[0].radii, twins[0].lin, 1.0), far]
    ests, got = functional_estimates(fields, bumps, 0.05, n, samples_log2=m,
                                     seed=0)
    assert len(ests) == len(fields)
    for u, est in zip(fields, ests):
        alone = folland_stein_ratio(u, n, samples_log2=m, seed=0)
        assert (est.ratio, est.error, est.numerator, est.denominator,
                est.per_scramble, est.support_nodes) == \
            (alone.ratio, alone.error, alone.numerator, alone.denominator,
             alone.per_scramble, alone.support_nodes)
        assert np.array_equal(est.center, alone.center)
        assert np.array_equal(est.transform, alone.transform)
    est = ests[0]
    assert len(got) == len(bumps)
    for bump, est_p in zip(bumps, got):
        ref = folland_stein_ratio(CombinationField([phi, bump], [1.0, 0.05]),
                                  n, samples_log2=m, seed=0, node_map=est.map)
        assert (est_p.ratio, est_p.per_scramble, est_p.error,
                est_p.numerator, est_p.denominator) == \
            (ref.ratio, ref.per_scramble, ref.error, ref.numerator,
             ref.denominator)
    # support_nodes counts the nonzero bump values over both scrambles'
    # nodes, mapped as the base estimate maps them
    center, B = est.map
    nodes = [center + np.einsum("nj,ij->ni", _polar_nodes(u, n)[0], B)
             for s in (0, 1) for u in _sobol_chunks(d, m, s, 2 ** m)]
    counts = [est_p.support_nodes for est_p in got]
    assert counts == [sum(np.count_nonzero(b.jets(x, order=1).value)
                          for x in nodes) for b in bumps]
    dup = [(e.ratio, e.per_scramble, e.numerator, e.denominator,
            e.support_nodes) for e in (got[20], got[22])]
    assert dup[0] == dup[1] and counts[20] > 0
    assert sum(np.count_nonzero(twins[0].jets(x, order=1).value
                                * twins[1].jets(x, order=1).value)
               for x in nodes) > 0
    assert counts[-1] == 0 and got[-1].ratio == est.ratio
    assert (got[-1].ratio - est.ratio) / est.ratio == 0.0
    assert any(c == 1 for c in counts) or n == 2
    assert all(est_p.ratio != est.ratio for est_p, c in zip(got, counts) if c)


@pytest.mark.parametrize("n", [1, 2])
def test_extremal_ratio_matches_the_oracle(n):
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.json"
    oracle = json.loads(path.read_text())["fs_ratio"][f"n{n}"]
    assert abs(extremal_ratio(n) / oracle - 1.0) < 1e-13


def test_extremal_ratio_from_a_sympy_derivation_of_d():
    # D = int (2h)^{-Q/2} over R^7 for the centred n=1 factor
    # h = (1 + |q|^2)^2 + |w|^2, in polar coordinates in q and in w, and
    # R(Phi) = kappa D^{2/Q} with kappa = (Q-2) S / (4(Q+2)) = 64
    sp = pytest.importorskip("sympy")
    r, t = sp.symbols("r t", positive=True)
    q = 10
    inner = sp.integrate(t ** 2 * (2 * ((1 + r ** 2) ** 2 + t ** 2))
                         ** sp.Rational(-q, 2), (t, 0, sp.oo))
    D = sp.integrate(2 * sp.pi ** 2 * r ** 3 * 4 * sp.pi * inner,
                     (r, 0, sp.oo))
    assert abs(float(D) / ORACLE_DEN - 1.0) < 1e-10
    exact = float(64 * D ** sp.Rational(2, q))
    assert abs(extremal_ratio(1) / exact - 1.0) < 1e-13


def test_functional_invariances_at_reduced_sampling():
    # the acceptance suite runs these at full depth; keep a fast version here
    phi = phi_explicit(ExtremalParams.centered(1))
    est = folland_stein_ratio(phi, 1, samples_log2=15, seed=0, pilot_log2=13)
    rng = np.random.default_rng(6)
    p0 = _point(1, rng)
    est_t = folland_stein_ratio(translated_field(phi, p0), 1,
                                samples_log2=15, seed=0, pilot_log2=13)
    assert abs(est_t.ratio - est.ratio) / est.ratio < 1e-3
    est_d = folland_stein_ratio(dilated_field(phi, 2.0), 1, samples_log2=15,
                                seed=0, pilot_log2=13)
    assert abs(est_d.ratio - est.ratio) / est.ratio < 1e-4


def test_extremal_params_validation():
    with pytest.raises(ValueError):
        ExtremalParams.centered(1, c0=-1.0)
    with pytest.raises(ValueError):
        ExtremalParams.centered(2, sigma=0.0)
    base1 = GroupPoint.identity(1)
    with pytest.raises(ValueError):
        ExtremalParams(n=2, c0=1.0, sigma=1.0, base=base1)
