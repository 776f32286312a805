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

The Sobol generator comes from scipy.stats, which takes about a second to
import; it loads on the first Sobol draw, not with this module, so the
pointwise checks never pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heis import (GroupPoint, HorizontalFrame, dilation_affine,
                   frame_second_order, horizontal_gradient,
                   left_translation_affine)
from .jets import (AffineMapField, DomainError, Jet2, JetField, ScalarField,
                   coordinate_jets, pack_sym)
from .quat import Quaternion, qmul
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


@dataclass(frozen=True)
class YamabeConstants:
    qdim: int
    two_star: float
    s_theta: float

    @classmethod
    def from_params(cls, params: ExtremalParams):
        q = 4 * params.n + 6
        return cls(qdim=q, two_star=2.0 * q / (q - 2),
                   s_theta=128.0 * params.n * (params.n + 2)
                   * params.c0 * params.sigma)


# ---------------------------------------------------------------------------
# the explicit family


def _linear_jet(points, coeffs, const, order):
    """Jet of the affine function coeffs . p + const."""
    N, d = points.shape
    value = points @ coeffs + const
    grad = np.broadcast_to(coeffs, (N, d)).copy()
    hess = None if order == 1 else np.zeros((N, d * (d + 1) // 2))
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
    full = np.zeros((N, d, d))
    idx = np.arange(nh)
    full[:, idx, idx] = 2.0
    return Jet2(value, grad, pack_sym(full))


def h_explicit(params: ExtremalParams) -> ScalarField:
    """The conformal factor c0[(sigma+|q+q0|^2)^2 + |w+w0+2Im(q0 conj q)|^2].

    Built as a jet composition of the displayed pieces: a shifted square in
    the horizontal coordinates and three affine twist functions, one per
    vertical direction. Exact for polynomial data up to rounding.
    """
    n = params.n
    d = 4 * n + 3
    nh = 4 * n
    q0_flat = np.array([float(v) for v in params.base.q.flat()])
    w0 = [float(v) for v in params.base.w.components()]

    # twist_s = w_s + w0_s + sum over coords of the linear map 2 Im(q0 conj(.))
    twist_rows = np.zeros((3, d))
    for s in range(3):
        twist_rows[s, nh + s] = 1.0
    for a in range(n):
        q0a = Quaternion.from_seq([float(v) for v in
                                   params.base.q.components[a].components()])
        for c in range(4):
            prod = qmul(q0a, Quaternion.unit(c).conj())
            for s, comp in enumerate((prod.x, prod.y, prod.z)):
                twist_rows[s, 4 * a + c] += 2.0 * comp

    c0 = float(params.c0)
    sigma = float(params.sigma)

    def builder(points, order):
        points = np.asarray(points, dtype=float)
        radial = _shifted_square_jet(points, nh, q0_flat, order) + sigma
        acc = radial * radial
        for s in range(3):
            tw = _linear_jet(points, twist_rows[s], w0[s], order)
            acc = acc + tw * tw
        return acc * c0

    return JetField(d, builder)


def phi_from_h(h_field: ScalarField, qdim) -> ScalarField:
    """Phi = (2h)^{-(Q-2)/4}; raises DomainError wherever h <= 0."""
    expo = -(qdim - 2) / 4.0

    def builder(points, order):
        jh = h_field.jets(points, order=order)
        return (jh * 2.0).pow_real(expo)

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


def conformal_scal(h_field: ScalarField, points, frame: HorizontalFrame,
                   base_scal=0.0):
    """Scalar curvature after the conformal change by 1/(2h):

        2h Scal - 8(n+2)^2 h^{-1} |grad h|^2 + 8(n+2) Lap(h),

    evaluated with the flat-group operators; the flat structure itself has
    Scal = 0, which is what base_scal defaults to.
    """
    points = np.asarray(points, dtype=float)
    n = frame.n
    h, fg, fh, _ = frame_second_order(h_field, points, frame)
    if np.any(h <= 0):
        raise DomainError("h must be positive at the evaluation points")
    gh2 = np.einsum("na,na->n", fg, fg)
    lap = np.einsum("naa->n", fh)
    return 2.0 * h * base_scal - 8.0 * (n + 2) ** 2 * gh2 / h \
        + 8.0 * (n + 2) * lap


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
    A = np.array([[float(v) for v in row] for row in A])
    b = np.array([float(v) for v in b])
    return AffineMapField(u, A, b, scale=1.0)


def dilated_field(u: ScalarField, lam, n, weight_power=0.0) -> ScalarField:
    """lam^weight_power * (u o delta_lam); weight (Q-2)/2 preserves R."""
    A, b = dilation_affine(lam, n)
    A = np.array([[float(v) for v in row] for row in A])
    return AffineMapField(u, A, np.zeros(4 * n + 3),
                          scale=float(lam) ** weight_power)


def bump_field(n, seed, box=2.0) -> ScalarField:
    """A seeded C^2 perturbation with compact support.

    A cubed plateau window max(1 - rho^2, 0)^3, with rho an anisotropic
    distance from a random center inside the box, times a random affine
    function bounded away from zero. Used for the extremality scans.
    """
    d = 4 * n + 3
    rng = np.random.default_rng(seed)
    center = rng.uniform(-box / 2, box / 2, size=d)
    inv_r2 = np.concatenate([
        1.0 / rng.uniform(0.6, 1.2, size=4 * n) ** 2,
        1.0 / rng.uniform(0.8, 1.6, size=3) ** 2,
    ])
    lin = rng.uniform(-0.5, 0.5, size=d)
    const = float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))

    def builder(points, order):
        points = np.asarray(points, dtype=float)
        coords = coordinate_jets(points, order)
        rho2 = None
        for i in range(d):
            term = (coords[i] - center[i]) * (coords[i] - center[i]) * inv_r2[i]
            rho2 = term if rho2 is None else rho2 + term
        u = 1.0 - rho2
        w = u * u * u
        mask = u.value > 0
        value = np.where(mask, w.value, 0.0)
        grad = np.where(mask[:, None], w.grad, 0.0)
        hess = None if w.hess is None else np.where(mask[:, None], w.hess, 0.0)
        window = Jet2(value, grad, hess)
        poly = _linear_jet(points, lin, const, order)
        return window * poly

    return JetField(d, builder)


# ---------------------------------------------------------------------------
# the Folland-Stein ratio by quasi-Monte Carlo


@dataclass
class FunctionalEstimate:
    ratio: float
    error: float
    numerator: float
    denominator: float
    per_scramble: tuple
    center: np.ndarray = None
    transform: np.ndarray = None

    def close_to(self, other, rtol):
        scale = max(abs(self.ratio), abs(other.ratio))
        return abs(self.ratio - other.ratio) <= rtol * scale

    @property
    def map(self):
        """The affine node map (center, matrix) this estimate used; pass it
        back in to evaluate another field on identical nodes."""
        return (self.center, self.transform)


def _polar_nodes(n, m, seed, scale_q, scale_w):
    """Scrambled Sobol nodes mapped through group-adapted polar coordinates.

    Each quaternion slot is sampled as a radius times a uniform point of the
    3-sphere in Hopf coordinates (sqrt(t) e^{i phi1}, sqrt(1-t) e^{i phi2}),
    whose area element is the constant (1/2) dphi1 dphi2 dt; the vertical
    part as a radius times a uniform point of the 2-sphere via the
    cylinder map. Radii go through half-Cauchy quantiles, so only the n+1
    radial axes carry unbounded weight factors and the integrand decays
    against them. Returns (points (N, 4n+3), weights (N,)) with

        integral of F over R^{4n+3} = E_uniform[ F(x(u)) * weight(u) ].
    """
    from scipy.stats import qmc     # slow to import; see the module notes

    d = 4 * n + 3
    sob = qmc.Sobol(d=d, scramble=True, seed=seed)
    u = sob.random(2 ** m)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    N = u.shape[0]
    x = np.empty((N, d))
    w = np.ones(N)
    for a in range(n):
        p1 = 2.0 * np.pi * u[:, 4 * a]
        p2 = 2.0 * np.pi * u[:, 4 * a + 1]
        t = u[:, 4 * a + 2]
        r = scale_q * np.tan(0.5 * np.pi * u[:, 4 * a + 3])
        st, ct = np.sqrt(t), np.sqrt(1.0 - t)
        x[:, 4 * a + 0] = r * st * np.cos(p1)
        x[:, 4 * a + 1] = r * st * np.sin(p1)
        x[:, 4 * a + 2] = r * ct * np.cos(p2)
        x[:, 4 * a + 3] = r * ct * np.sin(p2)
        jac_r = scale_q * 0.5 * np.pi * (1.0 + (r / scale_q) ** 2)
        w *= r ** 3 * jac_r * 2.0 * np.pi ** 2
    phi = 2.0 * np.pi * u[:, 4 * n]
    z = 2.0 * u[:, 4 * n + 1] - 1.0
    rho = scale_w * np.tan(0.5 * np.pi * u[:, 4 * n + 2])
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    x[:, 4 * n + 0] = rho * s * np.cos(phi)
    x[:, 4 * n + 1] = rho * s * np.sin(phi)
    x[:, 4 * n + 2] = rho * z
    jac_rho = scale_w * 0.5 * np.pi * (1.0 + (rho / scale_w) ** 2)
    w *= rho ** 2 * jac_rho * 4.0 * np.pi
    return x, w


# Calibration of the affine adaptation: for a reference centered density
# the per-axis node scale that works best is very close to 2 sqrt(2) times
# the density's standard deviation, and the same constant comes out for the
# horizontal and the vertical block, so one number rescales the pilot
# covariance into the node map.
_KAPPA = 2.0 * math.sqrt(2.0)


def _mapped_nodes(n, m, seed, center, B):
    z, w = _polar_nodes(n, m, seed, 1.0, 1.0)
    return center + z @ B.T, w


def _pilot_moments(u, two_star, n, m, seed, center, B, chunk):
    """Weighted mean and covariance of the density |u|^{2*} under the
    current node map; the constant det(B) cancels in the moments."""
    x, w = _mapped_nodes(n, m, seed, center, B)
    tot, mean_parts = 0.0, np.zeros(x.shape[1])
    cov = np.zeros((x.shape[1], x.shape[1]))
    vals_all = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], chunk):
        vals = np.abs(u.jets(x[lo:lo + chunk], order=1).value) ** two_star \
            * w[lo:lo + chunk]
        vals_all[lo:lo + chunk] = vals
    tot = float(np.sum(vals_all))
    if tot <= 0:
        raise DomainError("field has no mass under the pilot nodes")
    c = (vals_all[:, None] * x).sum(axis=0) / tot
    xc = x - c
    cov = np.einsum("n,ni,nj->ij", vals_all, xc, xc) / tot
    return c, (cov + cov.T) / 2.0


def _adapted_map(u, two_star, n, seed, pilot_log2, chunk):
    """Two pilot stages: locate the mass, then refine mean and shape."""
    d = 4 * n + 3
    B0 = np.diag([1.0] * (4 * n) + [2.0] * 3)
    c, cov = _pilot_moments(u, two_star, n, pilot_log2, seed + 17,
                            np.zeros(d), B0, chunk)
    c, cov = _pilot_moments(u, two_star, n, pilot_log2, seed + 18,
                            c, _KAPPA * np.linalg.cholesky(cov), chunk)
    return c, _KAPPA * np.linalg.cholesky(cov)


def _qmc_integrals(u: ScalarField, frame: HorizontalFrame, two_star,
                   m, seed, center, B, chunk):
    """One scramble's estimates of (int |grad_H u|^2, int |u|^{2*})."""
    x, w = _mapped_nodes(frame.n, m, seed, center, B)
    detB = abs(float(np.linalg.det(B)))
    num_parts, den_parts = [], []
    for lo in range(0, x.shape[0], chunk):
        pts = x[lo:lo + chunk]
        wts = w[lo:lo + chunk]
        ju = u.jets(pts, order=1)
        fg = horizontal_gradient(frame.vertical_coefficients(pts), ju.grad)
        num_parts.append(float(np.sum(np.einsum("nb,nb->n", fg, fg) * wts)))
        den_parts.append(float(np.sum(np.abs(ju.value) ** two_star * wts)))
    N = float(x.shape[0])
    return detB * math.fsum(num_parts) / N, detB * math.fsum(den_parts) / N


def folland_stein_ratio(u: ScalarField, n, samples_log2=18, seed=0,
                        pilot_log2=14, node_map=None,
                        chunk=2 ** 14) -> FunctionalEstimate:
    """R(u) = (int |grad_H u|^2) / (int |u|^{2*})^{2/2*} with an error bar.

    The nodes are polar quasi-Monte Carlo points pushed through an affine
    map fitted to the field: a pilot pass estimates the mean and covariance
    of the density |u|^{2*} and the main nodes are recentered and reshaped
    accordingly (importance adaptation; no structure of u is assumed). Two
    independent Sobol scrambles (seed and seed+1) each estimate both
    integrals; the reported ratio averages the two and the error is their
    absolute difference.

    Deterministic for fixed arguments. Passing node_map=(center, matrix)
    (for instance another estimate's .map) skips the pilot and reuses that
    geometry, which puts two fields on identical nodes and makes their
    ratio difference far more accurate than the individual error bars.
    """
    frame = HorizontalFrame(n)
    q = 4 * n + 6
    two_star = 2.0 * q / (q - 2)
    if node_map is None:
        center, B = _adapted_map(u, two_star, n, seed, pilot_log2, chunk)
    else:
        center, B = node_map
        center = np.asarray(center, dtype=float)
        B = np.asarray(B, dtype=float)
    ratios, nums, dens = [], [], []
    for s in (seed, seed + 1):
        num, den = _qmc_integrals(u, frame, two_star, samples_log2, s,
                                  center, B, chunk)
        if den <= 0:
            raise DomainError("vanishing denominator in the functional")
        ratios.append(num / den ** (2.0 / two_star))
        nums.append(num)
        dens.append(den)
    ratio = 0.5 * (ratios[0] + ratios[1])
    return FunctionalEstimate(
        ratio=ratio,
        error=abs(ratios[0] - ratios[1]),
        numerator=0.5 * (nums[0] + nums[1]),
        denominator=0.5 * (dens[0] + dens[1]),
        per_scramble=tuple(ratios),
        center=center,
        transform=B,
    )
