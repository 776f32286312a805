"""The extremal conformal factors, the Yamabe PDE residual and the
Sobolev-type functional on the group.

The family of conformal factors is

    h(q, w) = c0 [ (sigma + |q + q0|^2)^2 + |w + w0 + 2 Im(q0 conj(q))|^2 ]

for constants c0, sigma > 0 and a base point (q0, w0). The function
Phi = (2h)^{-(Q-2)/4} then solves

    (4(Q+2)/(Q-2)) Lap(Phi) + S Phi^{2*-1} = 0,    S = 128 n (n+2) c0 sigma,

with Q = 4n + 6 and 2* = 2Q/(Q-2), and the conformally changed structure
has constant scalar curvature S and vanishing torsion tensors. All of this
is checked pointwise through exact jets; nothing here solves a PDE.

The Folland-Stein ratio

    R(u) = integral |grad_H u|^2  /  (integral |u|^{2*})^{2/2*}

over the whole group (Lebesgue measure) is estimated by quasi-Monte Carlo:
scrambled Sobol points mapped through independent Cauchy quantile
transforms per axis, which turns the improper integral into a weighted
average over the unit cube. Two independent scrambles give the value and a
difference-based error bar. The ratio is invariant under left translations
and under u -> lam^{(Q-2)/2} u o delta_lam, and the extremal Phi minimizes
it; the scans in the test-suite and CLI exercise exactly those statements.

The nodes are streamed: each scramble's Sobol points are drawn in chunks
of 2^12 and mapped to polar nodes once, so no full node set is ever held,
and each field maps them through its own fitted affine map, B z^T + c.
Chunks of that size keep every working array small enough for the
allocator to reuse it from one chunk to the next instead of mapping and
faulting in fresh pages. A chunk is held coordinate-major, one contiguous
row of 2^12 values per coordinate: each field sees the (N, d) view of the
(d, N) array, and the jets, the horizontal gradients and the integrands
are computed row by row, so each numpy call loops over a whole chunk.
R(Phi), its translate, its two dilates and R(Phi + eps b) for the
compactly supported bumps b of the extremality test all share one draw
per scramble. The bumps are evaluated together, once per chunk, and each
only at the nodes inside its support: one screen of all bumps turns the
chunk into (bump, node) pairs, and the exact support test, the bump jets
and the horizontal gradients run once over those pairs. Every integrand is
reduced exactly as for a single field, so each result equals the separate
estimate of its field bit for bit. The exact R(Phi) is extremal_ratio(n).

The scrambled Sobol nodes are generated here in numpy, from the Joe-Kuo
direction numbers with a linear-matrix scramble and a digital shift; they
equal scipy.stats.qmc.Sobol's points for the same seed bit for bit, which
the tests check against scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heis import (GroupPoint, HorizontalFrame, dilation_affine,
                   horizontal_gradient, left_translation_affine, sublaplacian)
from .jets import (AffineMapField, DomainError, Jet2, JetField, ScalarField,
                   lane_sum, power_factors, scale_rows)
from .tensors import project_3_m1, trace_free


@dataclass(frozen=True)
class ExtremalParams:
    n: int
    c0: float
    sigma: float
    base: GroupPoint

    def __post_init__(self):
        if self.c0 <= 0 or self.sigma <= 0:
            raise ValueError("c0 and sigma must be positive")
        if self.base.n != self.n:
            raise ValueError("base point dimension mismatch")

    @classmethod
    def centered(cls, n, c0=1.0, sigma=1.0):
        return cls(n=n, c0=c0, sigma=sigma, base=GroupPoint.identity(n))


def _exponents(n):
    """The homogeneous dimension Q = 4n + 6 and the critical Sobolev
    exponent 2* = 2Q/(Q-2)."""
    q = 4 * n + 6
    return q, 2.0 * q / (q - 2)


@dataclass(frozen=True)
class YamabeConstants:
    qdim: int
    two_star: float
    s_theta: float

    @classmethod
    def from_params(cls, params: ExtremalParams):
        q, two_star = _exponents(params.n)
        return cls(qdim=q, two_star=two_star,
                   s_theta=128.0 * params.n * (params.n + 2)
                   * params.c0 * params.sigma)


# ---------------------------------------------------------------------------
# the explicit family


def h_explicit(params: ExtremalParams) -> ScalarField:
    """The conformal factor c0[(sigma+|q+q0|^2)^2 + |w+w0+2Im(q0 conj q)|^2].

    h is a quartic, so its jets are written out in closed form. With
    s = q + q0, r = sigma + |s|^2 and the twist tw = T p + w0, where T is
    the 3 x d block of vertical rows of L_{p0}:

        h       = c0 (r^2 + |tw|^2),
        grad h  = 2 c0 T^T tw  +  4 c0 r s          (s on the q-columns),
        hess h  = 2 c0 T^T T   +  8 c0 s s^T + 4 c0 r Id   (q-block).

    The T^T T term is one constant (d, d) matrix. The value and the
    gradient are computed on coordinate rows (the transpose of the batch,
    copied unless it is Fortran-ordered), with every sum over coordinates
    written out in jets.lane_sum's order, so a row's jet depends neither
    on its batch nor on the memory order; the gradient comes back in the
    input's memory order.
    """
    n = params.n
    d = 4 * n + 3
    nh = 4 * n
    # h is the centred h composed with L_{p0}: the horizontal shift is q0,
    # and twist_s = w_s + w0_s + 2 Im(q0 conj(q))_s is row 4n+s of L_{p0}
    A, offset = left_translation_affine(params.base)
    T = np.array(A[nh:], dtype=float)
    q0 = np.array(offset[:nh], dtype=float)[:, None]
    w0 = np.array(offset[nh:], dtype=float)[:, None]

    c0 = float(params.c0)
    sigma = float(params.sigma)

    # the Hessian must be exactly symmetric: outer products are formed
    # before they are scaled, and 2 T^T T is written as T^T T plus its
    # transpose, as BLAS need not sum the (i, j) and (j, i) entries alike;
    # on a symmetric product this is exactly 2 T^T T
    TtT = T.T @ T
    twist_hess = c0 * (TtT + TtT.T)
    q_diag = np.arange(nh)

    # at q0 = 0 the twist does not depend on q: T = [0 | Id], so tw = w + w0
    # and T^T tw = [0 | tw]; the sums over T would only add exact zeros
    untwisted = not T[:, :nh].any()
    Tt = np.ascontiguousarray(T.T)
    # the rows of T and of 2 c0 T, each as a (d, 1) column
    T, twist_grad = T[:, :, None], 2.0 * c0 * T[:, :, None]

    def first_order(points):
        """value, gradient, s (4n, N) and r; the coordinate-major working
        arrays are freed on return, before any Hessian-sized array."""
        P = np.ascontiguousarray(points.T)
        s = P[:nh] + q0
        r = sigma + lane_sum(s * s)
        grad = np.empty_like(points)
        G = grad.T
        if untwisted:
            tw = P[nh:] + w0
            value = c0 * (r * r + lane_sum(tw * tw))
            np.multiply(4.0 * c0 * r, s, out=G[:nh])
            np.multiply(tw, 2.0 * c0, out=G[nh:])
        else:
            # one work array of P's size for every product: a fresh
            # (d, N) temporary per product grows the scans' heap
            work = np.empty_like(P)
            tw = np.empty((3, P.shape[1]))
            for k, row in enumerate(T):
                tw[k] = lane_sum(np.multiply(P, row, out=work))
            tw += w0
            value = c0 * (r * r + lane_sum(tw * tw))
            # 2 c0 T^T tw, summed over s in order
            np.multiply(tw[0], twist_grad[0], out=G)
            G += np.multiply(tw[1], twist_grad[1], out=work)
            G += np.multiply(tw[2], twist_grad[2], out=work)
            G[:nh] += np.multiply(4.0 * c0 * r, s, out=work[:nh])
        return value, grad, s, r

    def builder(points, order):
        points = np.asarray(points, dtype=float)
        value, grad, s, r = first_order(points)
        if order == 1:
            return Jet2(value, grad, None)
        hess = np.empty((points.shape[0], d, d))
        hess[:] = twist_hess
        s = s.T
        ss = s[:, :, None] * s[:, None, :]
        ss *= 8.0 * c0
        hess[:, :nh, :nh] += ss
        hess[:, q_diag, q_diag] += (4.0 * c0 * r)[:, None]
        return Jet2(value, grad, hess)

    def along(points, X, trace):
        # hess h restricted to the directions X: with Y = X T^T (N, k, 3),
        # y = X_q s (N, k) and X_q the q-columns of X,
        # X hess X^T = 2 c0 Y Y^T + 8 c0 y y^T + 4 c0 r X_q X_q^T
        points = np.asarray(points, dtype=float)
        value, grad, s, r = first_order(points)
        # a product per row: as one (N k, d) BLAS product with threads, it
        # stalls whenever a thread waits for a busy core
        Y = X @ Tt
        Xq = X[:, :, :nh]
        y = np.einsum("nki,in->nk", Xq, s)
        if trace:
            return value, grad, (
                2.0 * c0 * np.einsum("nkt,nkt->n", Y, Y)
                + 8.0 * c0 * np.einsum("nk,nk->n", y, y)
                + 4.0 * c0 * r * np.einsum("nki,nki->n", Xq, Xq))
        # in place, with one (N, k, k) work array
        form = Y @ np.swapaxes(Y, 1, 2)
        form *= 2.0 * c0
        work = np.multiply(y[:, :, None], y[:, None, :])
        work *= 8.0 * c0
        form += work
        np.matmul(Xq, np.swapaxes(Xq, 1, 2), out=work)
        work *= (4.0 * c0 * r)[:, None, None]
        form += work
        return value, grad, form

    return JetField(d, builder, along)


def phi_from_h(h_field: ScalarField, qdim) -> ScalarField:
    """Phi = (2h)^{-(Q-2)/4}; raises DomainError wherever h <= 0.

    Its second derivatives along directions X follow from h's by the chain
    rule for Phi = F(h): F'(h) D^2 h[X_a, X_b] + F''(h) (X grad h)_a
    (X grad h)_b, with no Hessian of h unless h_field's own
    hessian_along forms one."""
    expo = -(qdim - 2) / 4.0

    def builder(points, order):
        # the factor 2 goes into pow_real's derivative factors, which saves
        # scaling h's gradient and Hessian; doubling is exact, so the jets
        # equal those of (2 h)^expo bit for bit
        return h_field.jets(points, order=order).pow_real(expo, scale=2.0)

    def along(points, X, trace):
        value, grad, form = h_field.hessian_along(points, X, trace)
        v, d1, d2 = power_factors(value, expo, scale=2.0)
        dh = (X @ grad[:, :, None])[:, :, 0]
        if trace:
            form = d1 * form + d2 * np.einsum("nk,nk->n", dh, dh)
        else:
            form *= d1[:, None, None]
            work = np.multiply(dh[:, :, None], dh[:, None, :])
            work *= d2[:, None, None]
            form += work
        # the gradient of the order-1 jets, bit for bit
        return v, scale_rows(grad, d1), form

    return JetField(h_field.dim, builder, along)


def phi_explicit(params: ExtremalParams) -> ScalarField:
    return phi_from_h(h_explicit(params), _exponents(params.n)[0])


# ---------------------------------------------------------------------------
# pointwise checks


def yamabe_residual(phi: ScalarField, s_const, points, frame: HorizontalFrame,
                    return_terms=False):
    """Residual (4(Q+2)/(Q-2)) Lap(Phi) + S Phi^{2*-1} at each point.

    With return_terms the two summands come back too, so callers can form
    residuals relative to the size of the terms that are cancelling.
    """
    q, _ = _exponents(frame.n)
    value, _, lap = sublaplacian(frame, phi, points)
    if np.any(value <= 0):
        raise DomainError("Phi must be positive at the evaluation points")
    t1 = (4.0 * (q + 2) / (q - 2)) * lap
    t2 = s_const * value ** ((q + 2.0) / (q - 2.0))
    r = t1 + t2
    if return_terms:
        return r, t1, t2
    return r


def conformal_scal(h_field: ScalarField, points, frame: HorizontalFrame):
    """Scalar curvature after the conformal change by 1/(2h):

        2h Scal - 8(n+2)^2 h^{-1} |grad h|^2 + 8(n+2) Lap(h),

    evaluated with the flat-group operators; the flat structure itself has
    Scal = 0, so the first term drops.
    """
    n = frame.n
    h, fg, lap = sublaplacian(frame, h_field, points)
    if np.any(h <= 0):
        raise DomainError("h must be positive at the evaluation points")
    gh2 = np.einsum("na,na->n", fg, fg)
    return 8.0 * (n + 2) * lap - 8.0 * (n + 2) ** 2 * gh2 / h


def symmetrized_hessian(fh, xi, frame: HorizontalFrame):
    """(fh + fh^T) / 2: D^2 f[C_a, C_b] up to round-off, as the bracket term
    of fh is antisymmetric. Only bench/layers.py calls it; xi and frame are
    unused, kept for that caller's signature."""
    return (fh + np.swapaxes(fh, 1, 2)) / 2.0


def conformal_torsion(h_field: ScalarField, points, frame: HorizontalFrame):
    """Torsion tensors (T0bar, Ubar) of the structure scaled by 1/(2h).

    The flat structure has vanishing torsion, so everything comes from h:
    T0bar is h^{-1} times the [-1]-part of the symmetrized Hessian, Ubar is
    (2h)^{-1} times the trace-free [3]-part of (Hessian - 2 h^{-1} dh o dh).
    The antisymmetric part of the raw Hessian is of type [-1] as a 2-form,
    so projecting the symmetrized Hessian changes nothing in the [3]-slot.
    Both vanish identically iff the scaled structure is qc-Einstein.

    The symmetrized Hessian is D^2 h[C_a, C_b] from hessian_along, as the
    bracket term is all of e_a(e_b h)'s antisymmetric part, and is
    projected once. The [3]-part of the rank-1 form dh o dh is
    (dh dh^T + sum_s (I_s^T dh)(I_s^T dh)^T) / 4, subtracted in place.
    """
    points = np.asarray(points, dtype=float)
    h, grad, hsym = h_field.hessian_along(points, frame.coefficients(points))
    if np.any(h <= 0):
        raise DomainError("h must be positive at the evaluation points")
    fg = horizontal_gradient(frame, points, grad)
    # each array is dropped once read: the (N, 4n, 4n) ones set the scans'
    # peak memory, and the gradient would add to it
    del grad
    three_part, t0bar = project_3_m1(hsym, frame)
    del hsym
    hh = h[:, None, None]
    t0bar /= hh
    # 2 h^{-1} times the [3]-part of dh o dh, one rank-1 term at a time in
    # one work array; (I_s^T dh) as a row is dh I_s
    weight = 0.5 / hh
    work = np.empty_like(three_part)
    for v in (fg, *(fg @ I for I in frame.Is)):
        np.multiply(v[:, :, None], v[:, None, :], out=work)
        work *= weight
        three_part -= work
    del work
    ubar = trace_free(three_part, frame)
    ubar /= 2.0 * hh
    return t0bar, ubar


# ---------------------------------------------------------------------------
# symmetry transports


def translated_field(u: ScalarField, p0: GroupPoint) -> ScalarField:
    """u composed with the left translation by p0."""
    A, b = left_translation_affine(p0)
    return AffineMapField(u, np.array(A, dtype=float), np.array(b, dtype=float),
                          scale=1.0)


def dilated_field(u: ScalarField, lam, n, weight_power=0.0) -> ScalarField:
    """lam^weight_power * (u o delta_lam); weight (Q-2)/2 preserves R."""
    A, _ = dilation_affine(lam, n)
    return AffineMapField(u, np.array(A, dtype=float), np.zeros(4 * n + 3),
                          scale=float(lam) ** weight_power)


# nodes within this much of the bump's boundary (in rho^2) are treated as
# inside, so the support test keeps a margin over the round-off of rho^2
# and can never miss a node the bump touches
_SUPPORT_SLACK = 1e-9


def _rho2(dx, inv_r2):
    """rho^2 = sum_i inv_r2_i dx_i^2 of each column of dx (d, N), for one
    bump's inv_r2 (d, 1) or for one column of them per column of dx,
    summed over the coordinate rows in lane_sum's order."""
    return lane_sum(dx * dx * inv_r2)


def _bump_jets(points, dx, rho2, inv_r2, lin, const, order):
    """Jets of the bump window times its affine factor at each column of
    points (d, N), given dx = points - center and rho2 = _rho2(dx, inv_r2).

    The parameters are one bump's (inv_r2 and lin (d, 1), const a float)
    or one bump per column (inv_r2 and lin (d, N), const (N,)). Every
    operation acts on whole coordinate rows and every sum over coordinates
    is written out (lane_sum), so a point gets the same jet either way, in
    a batch of any size. The gradient is the (N, d) view of a (d, N) array.
    """
    u = np.maximum(1.0 - rho2, 0.0)
    u2 = u * u
    g = 2.0 * dx * inv_r2
    w = u2 * u
    grad_w = -3.0 * u2 * g
    lin_value = lane_sum(points * lin) + const
    value = w * lin_value
    grad = w * lin + lin_value * grad_w
    if order == 1:
        return Jet2(value, grad.T, None)
    # each piece is symmetric before it is added, so the sum is too
    grad_w, g = grad_w.T, g.T
    lin, inv_r2 = (np.broadcast_to(a, dx.shape).T for a in (lin, inv_r2))
    cross = grad_w[:, :, None] * lin[:, None, :]
    hess = cross + np.swapaxes(cross, 1, 2)
    gg = g[:, :, None] * g[:, None, :]
    gg *= (6.0 * u * lin_value)[:, None, None]
    hess += gg
    diag = np.arange(dx.shape[0])
    hess[:, diag, diag] -= (6.0 * u2 * lin_value)[:, None] * inv_r2
    return Jet2(value, grad.T, hess)


class BumpField(ScalarField):
    """A C^2 perturbation with compact ellipsoidal support.

    A cubed plateau window w = max(1 - rho^2, 0)^3, with rho^2 the
    anisotropic distance sum_i ((x_i - center_i) / radii_i)^2, times the
    affine function L = lin . x + const. The jets are closed forms: with
    u = max(1 - rho^2, 0) and g = grad rho^2,

        grad w = -3 u^2 g,    hess w = 6 u g g^T - 3 u^2 hess(rho^2),

    and the Leibniz rule for w L, whose Hessian has no L'' term.
    """

    def __init__(self, center, radii, lin, const):
        self.center = np.asarray(center, dtype=float)
        self.radii = np.asarray(radii, dtype=float)
        self.lin = np.asarray(lin, dtype=float)
        self.const = float(const)
        self.dim = self.center.shape[0]
        self._inv_r2 = 1.0 / self.radii ** 2

    def support(self, points):
        """Mask of the points where the bump may be nonzero: the closed
        ellipsoid rho <= 1 widened by a round-off slack. Covers every point
        where jets() gives a nonzero value or gradient."""
        P = np.asarray(points, dtype=float).T
        return _rho2(P - self.center[:, None], self._inv_r2[:, None]) \
            < 1.0 + _SUPPORT_SLACK

    def jets(self, points, order=2):
        # on coordinate rows, from the same formulas functional_estimates
        # applies to all bumps of a chunk at once on their stacked
        # parameters, so a point gets the same jet in a batch of any size
        # and memory order, and in the batched pass
        # (test_bump_jets_do_not_depend_on_the_batch)
        points = np.asarray(points, dtype=float)
        P = np.ascontiguousarray(points.T)
        dx = P - self.center[:, None]
        ir = self._inv_r2[:, None]
        jet = _bump_jets(P, dx, _rho2(dx, ir), ir, self.lin[:, None],
                         self.const, order)
        if not points.flags.f_contiguous:
            jet.grad = np.ascontiguousarray(jet.grad)
        return jet


# the screen's allowance for its own round-off, relative to a + b below
_SCREEN_ROUNDOFF = 1e-13

# nodes screened at once: larger (bumps, nodes) blocks are handed back to
# the system and faulted in afresh on every call; screening 4096 nodes at
# once took functional --n 1 from 15 k to 78 k minor page faults
_SCREEN_ROWS = 1024


def _support_screen(bumps, points):
    """(N, len(bumps)) mask of the points (N, d) that may lie in each
    bump's support: every point bump.support() admits, and a few near
    misses. The mask is the (N, K) view of a (K, N) array.

    rho^2 = sum_i ir_i (p_i - c_i)^2 expands into a - 2 p . (c o ir) + b with
    a = (p o p) . ir and b = (c o c) . ir. A point is kept when
    rho^2 < 1 + 2 _SUPPORT_SLACK + R (a + b), R = _SCREEN_ROUNDOFF; far from
    the origin a + b is large, and the allowance with it. The difference of
    the two sides is linear in [p o p | p | 1], so all bumps are screened by
    one product of a (K, 2d + 1) table, stacked once per call, with those
    coordinate rows, and a sign test. As 2 |p_i c_i| <= p_i^2 + c_i^2, its
    terms add up to at most 2 (a + b) + 2 in magnitude. Each term enters
    the product with at most d + 5 roundings of its own (b's sum, the
    table's entries, p o p), and the product's sum of 2d + 1 terms adds
    2d + 1 more, so the computed difference is within
    gamma_{3d+6} (2 (a + b) + 2) < 1e-14 (a + b + 1) of the exact one for
    d <= 11. A point support() admits has its computed rho^2 below
    1 + _SUPPORT_SLACK, so its exact rho^2 is below
    1 + _SUPPORT_SLACK + 1e-14, and its computed difference is below
    -_SUPPORT_SLACK + 2e-14 - (R - 1e-14) (a + b) < 0: it is kept. The mask
    is a screen only: the support test on its points is the exact one.
    """
    centers = np.stack([bump.center for bump in bumps])
    ir = np.stack([bump._inv_r2 for bump in bumps])
    b = np.sum(centers * centers * ir, axis=1)
    table = np.concatenate([
        (1.0 - _SCREEN_ROUNDOFF) * ir, -2.0 * centers * ir,
        ((1.0 - _SCREEN_ROUNDOFF) * b
         - (1.0 + 2.0 * _SUPPORT_SLACK))[:, None]], axis=1)
    P = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    d, N = P.shape
    keep = np.empty((len(bumps), N), dtype=bool)
    x = np.empty((2 * d + 1, min(N, _SCREEN_ROWS)))
    x[2 * d] = 1.0
    for lo in range(0, N, _SCREEN_ROWS):
        p = P[:, lo:lo + _SCREEN_ROWS]
        cols = p.shape[1]
        np.multiply(p, p, out=x[:d, :cols])
        x[d:2 * d, :cols] = p
        np.less(table @ x[:, :cols], 0.0, out=keep[:, lo:lo + cols])
    return keep.T


def bump_field(n, seed, box=2.0) -> BumpField:
    """A seeded bump: random center inside the box, horizontal radii in
    [0.6, 1.2], vertical radii in [0.8, 1.6], and an affine factor bounded
    away from zero. Used for the extremality scans.
    """
    d = 4 * n + 3
    rng = np.random.default_rng(seed)
    center = rng.uniform(-box / 2, box / 2, size=d)
    radii = np.concatenate([rng.uniform(0.6, 1.2, size=4 * n),
                            rng.uniform(0.8, 1.6, size=3)])
    lin = rng.uniform(-0.5, 0.5, size=d)
    const = float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))
    return BumpField(center, radii, lin, const)


# ---------------------------------------------------------------------------
# the Folland-Stein ratio by quasi-Monte Carlo


@dataclass
class FunctionalEstimate:
    ratio: float
    error: float
    numerator: float
    denominator: float
    per_scramble: tuple
    center: np.ndarray
    transform: np.ndarray
    support_nodes: int = None

    @property
    def map(self):
        """The affine node map (center, matrix) this estimate used; pass it
        back in to evaluate another field on identical nodes."""
        return (self.center, self.transform)


def extremal_ratio(n):
    """The exact Folland-Stein ratio R(Phi) of the extremals.

    Multiplying the PDE by Phi and integrating by parts gives N = kappa D,
    with kappa = (Q-2) S / (4(Q+2)) and D = int Phi^{2*} = int (2h)^{-Q/2},
    so R(Phi) = kappa D^{2/Q}. At c0 = sigma = 1 and the identity base
    point, polar coordinates in q and in w give

        D = 2^{-Q/2} |S^{4n-1}| |S^2| (1/2) B(3/2, (Q-3)/2) (1/2) B(2n, 2n+3),

    and R(Phi) depends on none of c0, sigma and the base point. It is the
    optimal constant of the L^2 Folland-Stein inequality on the group
    (Folland and Stein, 1974; Ivanov, Minchev and Vassilev, JEMS 2010).
    """
    q, _ = _exponents(n)
    kappa = (q - 2) * 128 * n * (n + 2) / (4 * (q + 2))

    def half_beta(a, b):
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b) / 2.0

    den = (2.0 ** (-q / 2) * 2.0 * math.pi ** (2 * n) / math.gamma(2 * n)
           * 4.0 * math.pi * half_beta(1.5, (q - 3) / 2)
           * half_beta(2 * n, 2 * n + 3))
    return kappa * den ** (2.0 / q)


# Joe-Kuo direction numbers (new-joe-kuo-6.21201) for the first 11
# dimensions: each dimension's primitive polynomial as an integer (bit k is
# the coefficient of x^k) and its initial odd direction integers, one per
# degree. Dimension 0 is the van der Corput sequence, every direction
# integer 1.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55)
_SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3),
                (1, 3, 5, 13), (1, 1, 5, 5, 17), (1, 1, 5, 5, 5),
                (1, 1, 7, 11, 19), (1, 1, 5, 1, 1))
_SOBOL_BITS = 30


def _sobol_directions(d):
    """The (d, 30) unscrambled direction numbers, column j scaled to bit
    29 - j, by the Bratley-Fox recurrence."""
    bits = _SOBOL_BITS
    rows = [[1] * bits]
    for p, vinit in zip(_SOBOL_POLY[1:d], _SOBOL_VINIT[1:d]):
        deg = p.bit_length() - 1
        v = list(vinit)
        for j in range(deg, bits):
            new = v[j - deg]
            for k in range(1, deg + 1):
                if (p >> (deg - k)) & 1:
                    new ^= v[j - k] << k
            v.append(new)
        rows.append(v)
    return np.array([[x << (bits - 1 - j) for j, x in enumerate(v)]
                     for v in rows], dtype=np.uint32)


def _sobol_scrambled(d, seed):
    """Direction numbers under a random linear-matrix scramble, and the
    digital shift, both drawn from default_rng(seed) in the order
    scipy.stats.qmc.Sobol draws them."""
    bits = _SOBOL_BITS
    rng = np.random.default_rng(seed)
    weights = np.uint32(1) << np.arange(bits, dtype=np.uint32)
    shift = rng.integers(0, 2, size=(d, bits), dtype=np.uint32) @ weights
    ltm = np.tril(rng.integers(0, 2, size=(d, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # bit i of a direction number counted from the top (i = 0 is 2^29);
    # the scramble is the GF(2) product of each lower-triangular matrix with
    # those bit vectors
    msb = weights[::-1]
    v_bits = (_sobol_directions(d)[:, :, None] & msb) != 0
    mixed = np.einsum("dpi,dji->djp", ltm, v_bits.astype(np.uint32)) & 1
    return mixed @ msb, shift


def _sobol_chunks(d, m, seed, chunk):
    """One scramble's 2^m Sobol points in the unit cube, drawn `chunk`
    rows at a time; the chunks concatenate to exactly the points of one
    2^m draw.

    The sequence is Sobol's with the Joe-Kuo direction numbers (Joe & Kuo,
    SIAM J. Sci. Comput. 30, 2008), scrambled by a random lower-triangular
    linear matrix and a digital shift (Matousek 1998), in Gray-code order:
    point k is shift ^ XOR of the direction numbers at the set bits of
    k ^ (k >> 1), scaled by 2^-30. Those are the points of
    scipy.stats.qmc.Sobol(d, scramble=True, seed=seed), bit for bit.
    Each chunk is two gathers from XOR tables over the low and the high
    half of the index bits, one XOR and one multiply, made one coordinate
    row at a time: a chunk is the (N, d) view of a (d, N) array.
    """
    if d > len(_SOBOL_POLY) or m > _SOBOL_BITS:
        raise ValueError(f"Sobol nodes support d <= {len(_SOBOL_POLY)} and "
                         f"at most 2^{_SOBOL_BITS} points")
    sv, shift = _sobol_scrambled(d, seed)
    low = (m + 1) // 2

    def xor_table(cols, start):
        table = start[None, :]
        for col in cols:
            table = np.concatenate([table, table ^ col])
        return table

    t_low = xor_table(sv.T[:low], np.zeros(d, dtype=np.uint32)).T.copy()
    t_high = xor_table(sv.T[low:m], shift).T.copy()
    total = 2 ** m
    for lo in range(0, total, chunk):
        k = np.arange(lo, min(lo + chunk, total))
        gray = k ^ (k >> 1)
        yield ((np.take(t_low, gray & (2 ** low - 1), axis=1)
                ^ np.take(t_high, gray >> low, axis=1))
               * 2.0 ** -_SOBOL_BITS).T


def _polar_nodes(u, n):
    """Unit-cube points u (N, 4n+3) mapped through group-adapted polar
    coordinates.

    Each quaternion slot is sampled as a radius times a uniform point of the
    3-sphere in Hopf coordinates (sqrt(t) e^{i phi1}, sqrt(1-t) e^{i phi2}),
    whose area element is the constant (1/2) dphi1 dphi2 dt; the vertical
    part as a radius times a uniform point of the 2-sphere via the
    cylinder map. Radii go through half-Cauchy quantiles, so only the n+1
    radial axes carry unbounded weight factors and the integrand decays
    against them. Returns (points (N, 4n+3), weights (N,)) with

        integral of F over R^{4n+3} = E_uniform[ F(x(u)) * weight(u) ];

    the points are the (N, d) view of a coordinate-major (d, N) array. The
    map acts point by point, so a chunk maps to the same values as it does
    inside a larger draw.
    """
    d = 4 * n + 3
    u = np.clip(u.T, 1e-12, 1.0 - 1e-12, order="C")
    N = u.shape[1]
    x = np.empty((d, N))
    w = np.ones(N)
    for a in range(n):
        p1 = 2.0 * np.pi * u[4 * a]
        p2 = 2.0 * np.pi * u[4 * a + 1]
        t = u[4 * a + 2]
        r = np.tan(0.5 * np.pi * u[4 * a + 3])
        rst, rct = r * np.sqrt(t), r * np.sqrt(1.0 - t)
        np.multiply(rst, np.cos(p1), out=x[4 * a + 0])
        np.multiply(rst, np.sin(p1), out=x[4 * a + 1])
        np.multiply(rct, np.cos(p2), out=x[4 * a + 2])
        np.multiply(rct, np.sin(p2), out=x[4 * a + 3])
        jac_r = 0.5 * np.pi * (1.0 + r ** 2)
        # (v * 2) * pi^2 == v * (2 pi^2): doubling is exact
        w *= r ** 3 * jac_r * (2.0 * np.pi ** 2)
    phi = 2.0 * np.pi * u[4 * n]
    z = 2.0 * u[4 * n + 1] - 1.0
    rho = np.tan(0.5 * np.pi * u[4 * n + 2])
    rs = rho * np.sqrt(np.maximum(1.0 - z * z, 0.0))
    np.multiply(rs, np.cos(phi), out=x[4 * n + 0])
    np.multiply(rs, np.sin(phi), out=x[4 * n + 1])
    np.multiply(rho, z, out=x[4 * n + 2])
    jac_rho = 0.5 * np.pi * (1.0 + rho ** 2)
    w *= rho ** 2 * jac_rho * (4.0 * np.pi)
    return x.T, w


# Calibration of the affine adaptation: for a reference centered density
# the per-axis node scale that works best is very close to 2 sqrt(2) times
# the density's standard deviation, and the same constant comes out for the
# horizontal and the vertical block, so one number rescales the pilot
# covariance into the node map.
_KAPPA = 2.0 * math.sqrt(2.0)

# rows of nodes generated and integrated at once. The working arrays of a
# 2^12-row chunk are reused by the allocator from one chunk to the next;
# larger ones are handed back to the system and faulted in afresh each time
# (functional --n 1 took 48 k minor faults at 2^13 and 170 k at 2^14, with
# a sixth of its time in the kernel, against 15 k at 2^12), and at 2^11 the
# per-chunk Python overhead costs more than it saves
_CHUNK = 2 ** 12

# log2 of the node count of each of the two pilot passes
_PILOT_LOG2 = 14


def _mapped_nodes(B, z, center):
    """The nodes center + B z of a chunk of polar nodes z (N, d), as a
    coordinate-major (d, N) array."""
    x = B @ z.T
    x += center[:, None]
    return x


def _pilot_moments(u, two_star, n, m, seed, center, B):
    """Weighted mean and covariance of the density |u|^{2*} under the node
    map center + B z; the constant det(B) cancels in the moments. u sees
    coordinate-major chunks; the moments sum over a node-major copy of the
    nodes, node by node in the order of their draw."""
    x = np.empty((2 ** m, 4 * n + 3))
    vals = np.empty(2 ** m)
    lo = 0
    for unit in _sobol_chunks(4 * n + 3, m, seed, _CHUNK):
        z, w = _polar_nodes(unit, n)
        nodes = _mapped_nodes(B, z, center).T
        hi = lo + len(nodes)
        x[lo:hi] = nodes
        vals[lo:hi] = np.abs(u.jets(nodes, order=1).value) ** two_star * w
        lo = hi
    tot = float(np.sum(vals))
    if tot <= 0:
        raise DomainError("field has no mass under the pilot nodes")
    # one weighted copy of the nodes, reused, and x centred in place: every
    # array of this size is freshly mapped and faulted in
    weighted = vals[:, None] * x
    c = weighted.sum(axis=0) / tot
    x -= c
    np.multiply(vals[:, None], x, out=weighted)
    cov = weighted.T @ x / tot
    return c, (cov + cov.T) / 2.0


def _adapted_map(u, n, seed, pilot_log2):
    """Two pilot stages: locate the mass, then refine mean and shape."""
    _, two_star = _exponents(n)
    B0 = np.diag([1.0] * (4 * n) + [2.0] * 3)
    c, cov = _pilot_moments(u, two_star, n, pilot_log2, seed + 17,
                            np.zeros(4 * n + 3), B0)
    c, cov = _pilot_moments(u, two_star, n, pilot_log2, seed + 18,
                            c, _KAPPA * np.linalg.cholesky(cov))
    return c, _KAPPA * np.linalg.cholesky(cov)


def _stacked(bumps):
    """The bumps' parameters one column per bump: center, inverse squared
    radii and lin (d, K), and const (K,)."""
    return tuple(np.ascontiguousarray(
        np.array([getattr(bump, k) for bump in bumps], dtype=float).T)
        for k in ("center", "_inv_r2", "lin", "const"))


def _chunk_sums(target, z, wts, frame, two_star, eps):
    """One chunk's sums on the target's nodes center + B z, as a
    (1 + len(bumps), 3) array: a row for u and then one for each u + eps * b
    with b in bumps, holding the sums of |grad_H u|^2 w and |u|^{2*} w and
    the number of nodes where b is nonzero (0 for u).

    The nodes are a coordinate-major (d, N) array, and u sees its (N, d)
    view; every integrand is computed on whole coordinate rows. u's jets
    are evaluated once. _support_screen screens all bumps at once, and its
    mask becomes (bump, node) pairs; the exact support test, the bump jets
    on the pairs' stacked parameters and the horizontal gradient then run
    once over all pairs. Elsewhere u + eps * b = u. Each field's integrands
    fill one row of a (1 + len(bumps), N) array, u's values with its
    pairs' written over them, and every row is summed alike, so a bump's
    sums equal those of u + eps * b evaluated at every node, and a bump
    that holds no node reproduces u's sums exactly.
    """
    u, center, B, bumps, (centers, inv_r2, lin, const), work = target
    P = _mapped_nodes(B, z, center)
    N = P.shape[1]
    ju = u.jets(P.T, order=1)
    fg = horizontal_gradient(frame, P.T, ju.grad).T
    K = len(bumps)
    num, den = work[:2 * (1 + K) * N].reshape(2, 1 + K, -1)
    num[:] = lane_sum(fg * fg) * wts
    den[:] = np.abs(ju.value) ** two_star * wts
    out = np.zeros((1 + K, 3))
    if K:
        ks, rows = np.divmod(np.flatnonzero(_support_screen(bumps, P.T).T), N)
        dx = P[:, rows] - centers[:, ks]
        rho2 = _rho2(dx, inv_r2[:, ks])
        inside = rho2 < 1.0 + _SUPPORT_SLACK
        rows, ks, rho2 = rows[inside], ks[inside], rho2[inside]
        dx, at = dx[:, inside], P[:, rows]
        jb = _bump_jets(at, dx, rho2, inv_r2[:, ks], lin[:, ks], const[ks],
                        order=1)
        out[1:, 2] = np.bincount(ks[jb.value != 0], minlength=K)
        value = ju.value[rows] + jb.value * eps
        grad = ju.grad.T[:, rows] + jb.grad.T * eps
        fg_b = horizontal_gradient(frame, at.T, grad.T).T
        num[1 + ks, rows] = lane_sum(fg_b * fg_b) * wts[rows]
        den[1 + ks, rows] = np.abs(value) ** two_star * wts[rows]
    out[:, 0], out[:, 1] = num.sum(axis=1), den.sum(axis=1)
    return out


def _qmc_integrals(targets, n, two_star, m, seed, eps):
    """One scramble's chunk sums for every prepared target (u, center, B,
    bumps, stacked bumps, work), from one pass over its 2^m nodes: each
    chunk of Sobol points is drawn and mapped to polar nodes z once, and
    every target maps z its own way. Per target, _chunk_sums' results as an
    array indexed (field, one of num, den and nodes, chunk)."""
    frame = HorizontalFrame(n)
    sums = [[] for _ in targets]
    for unit in _sobol_chunks(4 * n + 3, m, seed, _CHUNK):
        z, wts = _polar_nodes(unit, n)
        for target, s in zip(targets, sums):
            s.append(_chunk_sums(target, z, wts, frame, two_star, eps))
    return [np.array(s).transpose(1, 2, 0) for s in sums]


def _estimate(scrambles, two_star, center, B, m, of_bump):
    """One field's FunctionalEstimate from its chunk sums in each of the
    two scrambles of 2^m nodes."""
    detB = abs(float(np.linalg.det(B)))
    nums, dens = ([detB * math.fsum(sums[i]) / 2 ** m for sums in scrambles]
                  for i in (0, 1))
    if min(dens) <= 0:
        raise DomainError("vanishing denominator in the functional")
    ratios = [num / den ** (2.0 / two_star) for num, den in zip(nums, dens)]
    return FunctionalEstimate(
        ratio=0.5 * (ratios[0] + ratios[1]), error=abs(ratios[0] - ratios[1]),
        numerator=0.5 * (nums[0] + nums[1]),
        denominator=0.5 * (dens[0] + dens[1]), per_scramble=tuple(ratios),
        center=center, transform=B,
        support_nodes=int(sum(s[2].sum() for s in scrambles)) if of_bump
        else None)


def _estimates(targets, n, eps, samples_log2, seed):
    """FunctionalEstimates for every target (u, center, B, bumps): one list
    [u's, then one per u + eps * b] per target, from two scrambles (seed
    and seed + 1), each drawn once for all targets."""
    _, two_star = _exponents(n)
    # per target, once for both scrambles: the bumps' parameters, and the
    # room for _chunk_sums' (1 + K, chunk) num and den arrays, which every
    # chunk reuses, as arrays of that size allocated afresh are handed back
    # to the system and faulted in again on every chunk
    rows = min(_CHUNK, 2 ** samples_log2)
    prepared = [(u, center, B, bumps, _stacked(bumps),
                 np.empty(2 * (1 + len(bumps)) * rows))
                for u, center, B, bumps in targets]
    passes = [_qmc_integrals(prepared, n, two_star, samples_log2, s, eps)
              for s in (seed, seed + 1)]
    return [[_estimate(field, two_star, center, B, samples_log2, k > 0)
             for k, field in enumerate(zip(*pair))]
            for (_, center, B, _), *pair in zip(targets, *passes)]


def folland_stein_ratio(u: ScalarField, n, samples_log2=18, seed=0,
                        pilot_log2=_PILOT_LOG2,
                        node_map=None) -> FunctionalEstimate:
    """R(u) = (int |grad_H u|^2) / (int |u|^{2*})^{2/2*} with an error bar.

    The nodes are polar quasi-Monte Carlo points pushed through an affine
    map fitted to the field: a pilot pass estimates the mean and covariance
    of the density |u|^{2*} and the main nodes are recentered and reshaped
    accordingly (importance adaptation; no structure of u is assumed). Two
    independent Sobol scrambles (seed and seed+1) each estimate both
    integrals; the ratio averages the two and the error is their absolute
    difference. Deterministic for fixed arguments. Passing node_map=(center,
    matrix), for instance another estimate's .map, skips the pilot and puts
    two fields on identical nodes, which makes their ratio difference far
    more accurate than the individual error bars.
    """
    if node_map is None:
        center, B = _adapted_map(u, n, seed, pilot_log2)
    else:
        center, B = (np.asarray(a, dtype=float) for a in node_map)
    return _estimates([(u, center, B, ())], n, 0.0, samples_log2, seed)[0][0]


def functional_estimates(fields, bumps, eps, n, samples_log2=18, seed=0):
    """(estimates, perturbed): folland_stein_ratio(u, n, samples_log2, seed)
    for every u in fields, and R(fields[0] + eps * b) for every b in bumps
    on fields[0]'s nodes, all from one draw of each scramble.

    Each field's pilot fits its own node map, one field after another, so
    each estimate equals the field's folland_stein_ratio exactly, and each
    perturbed one equals folland_stein_ratio(CombinationField([fields[0],
    b], [1.0, eps]), ..., node_map=estimates[0].map): the shared nodes
    cancel the quadrature noise common to R(u) and R(u + eps * b) in their
    difference. Its support_nodes counts the nodes, over both scrambles,
    where b is nonzero; with none, it is R(u) and says nothing. The bumps
    are BumpFields: the screen reads their ellipsoids, and each chunk
    evaluates all of them in one pass over its (node, bump) pairs, from
    the formulas of BumpField.jets on their stacked parameters.
    """
    targets = [(u, *_adapted_map(u, n, seed, _PILOT_LOG2),
                tuple(bumps) if k == 0 else ())
               for k, u in enumerate(fields)]
    (base, *perturbed), *others = _estimates(targets, n, eps, samples_log2,
                                             seed)
    return [base] + [ests[0] for ests in others], perturbed
