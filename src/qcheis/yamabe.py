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
and mapped to polar nodes once, so no full node set is ever held, and each
field maps them through its own fitted affine map. R(Phi), its translate,
its two dilates and R(Phi + eps b) for the compactly supported bumps b of
the extremality test all share one draw per scramble. Each bump is
evaluated only at the nodes inside its support, and every integrand is
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
                   frame_second_order, horizontal_gradient,
                   left_translation_affine)
from .jets import AffineMapField, DomainError, Jet2, JetField, ScalarField
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

    The T^T T term is one constant (d, d) matrix. Every product is
    row-wise, so a row's jet does not depend on the rest of its batch.
    """
    n = params.n
    d = 4 * n + 3
    nh = 4 * n
    # h is the centred h composed with L_{p0}: the horizontal shift is q0,
    # and twist_s = w_s + w0_s + 2 Im(q0 conj(q))_s is row 4n+s of L_{p0}
    A, offset = left_translation_affine(params.base)
    T = np.array(A[nh:], dtype=float)
    q0 = np.array(offset[:nh], dtype=float)
    w0 = np.array(offset[nh:], dtype=float)

    c0 = float(params.c0)
    sigma = float(params.sigma)

    # the Hessian must be exactly symmetric: outer products are formed
    # before they are scaled, and 2 T^T T is written as T^T T plus its
    # transpose, as BLAS need not sum the (i, j) and (j, i) entries alike;
    # on a symmetric product this is exactly 2 T^T T
    TtT = T.T @ T
    twist_hess = c0 * (TtT + TtT.T)
    twist_grad = 2.0 * c0 * T
    q_diag = np.arange(nh)

    def builder(points, order):
        points = np.ascontiguousarray(points, dtype=float)
        s = points[:, :nh] + q0
        r = sigma + np.einsum("ni,ni->n", s, s)
        # einsum, not matmul: BLAS may sum a row differently with the size
        # of its batch, and a scan's blocks must equal one evaluation over
        # all its points (test_scan_blocks_equal_one_batch_evaluation)
        tw = np.einsum("nj,sj->ns", points, T) + w0
        value = c0 * (r * r + np.einsum("ns,ns->n", tw, tw))
        grad = np.einsum("ns,sj->nj", tw, twist_grad)
        grad[:, :nh] += (4.0 * c0 * r)[:, None] * s
        if order == 1:
            return Jet2(value, grad, None)
        hess = np.empty((points.shape[0], d, d))
        hess[:] = twist_hess
        ss = s[:, :, None] * s[:, None, :]
        ss *= 8.0 * c0
        hess[:, :nh, :nh] += ss
        hess[:, q_diag, q_diag] += (4.0 * c0 * r)[:, None]
        return Jet2(value, grad, hess)

    return JetField(d, builder)


def phi_from_h(h_field: ScalarField, qdim) -> ScalarField:
    """Phi = (2h)^{-(Q-2)/4}; raises DomainError wherever h <= 0."""
    expo = -(qdim - 2) / 4.0

    def builder(points, order):
        # no name for h's jet: it is freed before pow_real allocates
        return (h_field.jets(points, order=order) * 2.0).pow_real(expo)

    return JetField(h_field.dim, builder)


def phi_explicit(params: ExtremalParams) -> ScalarField:
    return phi_from_h(h_explicit(params), 4 * params.n + 6)


# ---------------------------------------------------------------------------
# pointwise checks


def yamabe_residual(phi: ScalarField, s_const, points, frame: HorizontalFrame,
                    return_terms=False):
    """Residual (4(Q+2)/(Q-2)) Lap(Phi) + S Phi^{2*-1} at each point.

    With return_terms the two summands come back too, so callers can form
    residuals relative to the size of the terms that are cancelling.
    """
    points = np.asarray(points, dtype=float)
    q = 4 * frame.n + 6
    value, _, fh, _ = frame_second_order(phi, points, frame)
    if np.any(value <= 0):
        raise DomainError("Phi must be positive at the evaluation points")
    lap = np.einsum("naa->n", fh)
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
    points = np.asarray(points, dtype=float)
    n = frame.n
    h, fg, fh, _ = frame_second_order(h_field, points, frame)
    if np.any(h <= 0):
        raise DomainError("h must be positive at the evaluation points")
    gh2 = np.einsum("na,na->n", fg, fg)
    lap = np.einsum("naa->n", fh)
    return 8.0 * (n + 2) * lap - 8.0 * (n + 2) ** 2 * gh2 / h


def symmetrized_hessian(fh, xi, frame: HorizontalFrame):
    """The symmetric part of the frame Hessian.

    The antisymmetric part of e_a(e_b h) is -sum_s dh(xi_s) omega_s(e_a,e_b),
    so adding sum_s dh(xi_s) omega_s symmetrizes exactly.
    """
    out = fh.copy()
    for s in range(3):
        out += xi[:, s, None, None] * frame.omega(s)[None, :, :]
    return out


def conformal_torsion(h_field: ScalarField, points, frame: HorizontalFrame):
    """Torsion tensors (T0bar, Ubar) of the structure scaled by 1/(2h).

    The flat structure has vanishing torsion, so everything comes from h:
    T0bar is h^{-1} times the [-1]-part of the symmetrized Hessian, Ubar is
    (2h)^{-1} times the trace-free [3]-part of (Hessian - 2 h^{-1} dh o dh).
    The antisymmetric part of the raw Hessian is of type [-1] as a 2-form,
    so projecting the symmetrized Hessian changes nothing in the [3]-slot.
    Both vanish identically iff the scaled structure is qc-Einstein.
    """
    points = np.asarray(points, dtype=float)
    h, fg, fh, xi = frame_second_order(h_field, points, frame)
    if np.any(h <= 0):
        raise DomainError("h must be positive at the evaluation points")
    hsym = symmetrized_hessian(fh, xi, frame)
    _, minus_part = project_3_m1(hsym, frame)
    t0bar = minus_part / h[:, None, None]
    outer = np.einsum("na,nb->nab", fg, fg)
    shifted = hsym - 2.0 * outer / h[:, None, None]
    three_part, _ = project_3_m1(shifted, frame)
    ubar = trace_free(three_part, frame) / (2.0 * h[:, None, None])
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
# inside; a batch of another layout may sum rho^2 in another order, which
# moves it by round-off of order 1e-15, so the support test can never miss a
# node the bump touches
_SUPPORT_SLACK = 1e-9


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

    def _rho2(self, dx):
        return np.einsum("ni,i->n", dx * dx, self._inv_r2)

    def support(self, points):
        """Mask of the points where the bump may be nonzero: the closed
        ellipsoid rho <= 1 widened by a round-off slack. Covers every point
        where jets() gives a nonzero value or gradient."""
        points = np.asarray(points, dtype=float)
        return self._rho2(points - self.center) < 1.0 + _SUPPORT_SLACK

    def jets(self, points, order=2):
        # every operation is row-wise, and the einsum sums run along
        # C-ordered rows, so a row gets the same jet in a batch of any size
        # and layout (functional_estimates evaluates bumps on subsets of a
        # chunk and relies on this); a matmul's sums may depend on the
        # batch, so none is used (test_bump_jets_do_not_depend_on_the_batch)
        points = np.ascontiguousarray(points, dtype=float)
        dx = points - self.center
        u = np.maximum(1.0 - self._rho2(dx), 0.0)
        u2 = u * u
        g = 2.0 * dx * self._inv_r2
        w = u2 * u
        grad_w = (-3.0 * u2)[:, None] * g
        lin_value = np.einsum("nd,d->n", points, self.lin) + self.const
        value = w * lin_value
        grad = w[:, None] * self.lin + lin_value[:, None] * grad_w
        if order == 1:
            return Jet2(value, grad, None)
        # each piece is symmetric before it is added, so the sum is too
        cross = grad_w[:, :, None] * self.lin
        hess = cross + np.swapaxes(cross, 1, 2)
        gg = g[:, :, None] * g[:, None, :]
        gg *= (6.0 * u * lin_value)[:, None, None]
        hess += gg
        diag = np.arange(self.dim)
        hess[:, diag, diag] -= (6.0 * u2 * lin_value)[:, None] * self._inv_r2
        return Jet2(value, grad, hess)


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
    half of the index bits, one XOR and one multiply.
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

    t_low = xor_table(sv.T[:low], np.zeros(d, dtype=np.uint32))
    t_high = xor_table(sv.T[low:m], shift)
    total = 2 ** m
    for lo in range(0, total, chunk):
        k = np.arange(lo, min(lo + chunk, total))
        gray = k ^ (k >> 1)
        yield (t_low[gray & (2 ** low - 1)] ^ t_high[gray >> low]) \
            * 2.0 ** -_SOBOL_BITS


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

        integral of F over R^{4n+3} = E_uniform[ F(x(u)) * weight(u) ].

    The map acts row by row, so a chunk of rows maps to the same values
    as it does inside a larger draw.
    """
    d = 4 * n + 3
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    N = u.shape[0]
    x = np.empty((N, d))
    w = np.ones(N)
    for a in range(n):
        p1 = 2.0 * np.pi * u[:, 4 * a]
        p2 = 2.0 * np.pi * u[:, 4 * a + 1]
        t = u[:, 4 * a + 2]
        r = np.tan(0.5 * np.pi * u[:, 4 * a + 3])
        st, ct = np.sqrt(t), np.sqrt(1.0 - t)
        x[:, 4 * a + 0] = r * st * np.cos(p1)
        x[:, 4 * a + 1] = r * st * np.sin(p1)
        x[:, 4 * a + 2] = r * ct * np.cos(p2)
        x[:, 4 * a + 3] = r * ct * np.sin(p2)
        jac_r = 0.5 * np.pi * (1.0 + r ** 2)
        w *= r ** 3 * jac_r * 2.0 * np.pi ** 2
    phi = 2.0 * np.pi * u[:, 4 * n]
    z = 2.0 * u[:, 4 * n + 1] - 1.0
    rho = np.tan(0.5 * np.pi * u[:, 4 * n + 2])
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    x[:, 4 * n + 0] = rho * s * np.cos(phi)
    x[:, 4 * n + 1] = rho * s * np.sin(phi)
    x[:, 4 * n + 2] = rho * z
    jac_rho = 0.5 * np.pi * (1.0 + rho ** 2)
    w *= rho ** 2 * jac_rho * 4.0 * np.pi
    return x, w


# Calibration of the affine adaptation: for a reference centered density
# the per-axis node scale that works best is very close to 2 sqrt(2) times
# the density's standard deviation, and the same constant comes out for the
# horizontal and the vertical block, so one number rescales the pilot
# covariance into the node map.
_KAPPA = 2.0 * math.sqrt(2.0)

# rows of nodes generated and integrated at once
_CHUNK = 2 ** 14

# log2 of the node count of each of the two pilot passes
_PILOT_LOG2 = 14


def _pilot_moments(u, two_star, n, m, seed, center, B):
    """Weighted mean and covariance of the density |u|^{2*} under the node
    map center + B z; the constant det(B) cancels in the moments."""
    xs, vals = [], []
    for unit in _sobol_chunks(4 * n + 3, m, seed, _CHUNK):
        z, w = _polar_nodes(unit, n)
        xs.append(center + z @ B.T)
        vals.append(np.abs(u.jets(xs[-1], order=1).value) ** two_star * w)
    x = np.concatenate(xs)
    vals_all = np.concatenate(vals)
    tot = float(np.sum(vals_all))
    if tot <= 0:
        raise DomainError("field has no mass under the pilot nodes")
    c = (vals_all[:, None] * x).sum(axis=0) / tot
    xc = x - c
    cov = (vals_all[:, None] * xc).T @ xc / tot
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


def _chunk_sums(target, z, wts, frame, two_star, eps):
    """One chunk's (num, den, nodes) on the target's nodes center + B z:
    the sums of |grad_H u|^2 w and |u|^{2*} w for u and then for each
    u + eps * b with b in bumps, and the nodes where b is nonzero (0 for u).

    u's jets are evaluated once and each bump only at the nodes its
    support() admits; elsewhere u + eps * b = u. Every field's integrands
    are whole arrays (u's, with the support nodes overwritten) summed alike,
    so a bump's sums equal those of u + eps * b evaluated at every node,
    and a bump that holds no node reproduces u's sums exactly.
    """
    u, center, B, bumps = target
    pts = center + z @ B.T
    V = frame.vertical_coefficients(pts)
    ju = u.jets(pts, order=1)
    fg = horizontal_gradient(V, ju.grad)
    num = np.einsum("nb,nb->n", fg, fg) * wts
    den = np.abs(ju.value) ** two_star * wts
    sums = [(float(np.sum(num)), float(np.sum(den)), 0)]
    for bump in bumps:
        idx = np.flatnonzero(bump.support(pts))
        num_k, den_k, nodes = num.copy(), den.copy(), 0
        if idx.size:
            jb = bump.jets(pts[idx], order=1)
            nodes = int(np.count_nonzero(jb.value))
            value = ju.value[idx] + jb.value * eps
            fg_k = horizontal_gradient(V[idx], ju.grad[idx] + jb.grad * eps)
            num_k[idx] = np.einsum("nb,nb->n", fg_k, fg_k) * wts[idx]
            den_k[idx] = np.abs(value) ** two_star * wts[idx]
        sums.append((float(np.sum(num_k)), float(np.sum(den_k)), nodes))
    return sums


def _qmc_integrals(targets, n, two_star, m, seed, eps):
    """One scramble's chunk sums for every target (u, center, B, bumps),
    from one pass over its 2^m nodes: each chunk of Sobol points is drawn
    and mapped to polar nodes z once, and every target maps z its own way.
    Per target, _chunk_sums' results as an array indexed (field, one of
    num, den and nodes, chunk)."""
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
    passes = [_qmc_integrals(targets, n, two_star, samples_log2, s, eps)
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
    need support(points), a mask covering every point where they are
    nonzero, and row-wise jets; BumpField has both.
    """
    targets = [(u, *_adapted_map(u, n, seed, _PILOT_LOG2),
                tuple(bumps) if k == 0 else ())
               for k, u in enumerate(fields)]
    (base, *perturbed), *others = _estimates(targets, n, eps, samples_log2,
                                             seed)
    return [base] + [ests[0] for ests in others], perturbed
