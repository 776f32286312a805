"""The quaternionic Heisenberg group and its horizontal calculus.

The group is H^n x Im(H) with product
(q0, w0) . (q, w) = (q0 + q, w + w0 + 2 Im(q0 conj(q))) and homogeneous
dimension Q = 4n + 6 under the parabolic dilations (q, w) -> (l q, l^2 w).
Points are coordinatized as (t^1, x^1, y^1, z^1, ..., t^n, x^n, y^n, z^n,
w_1, w_2, w_3) in R^{4n+3}.

Every structure map comes from one integer table, the structure constants
of the quaternion product, read off qmul once. Through the bilinear map
Im(x conj(y)) it gives the twist 2 Im(q0 conj(q)) of a left translation,
the vertical coefficients -2 Im(mu conj(q_a)) of the left-invariant
horizontal frame (the left translate of the coordinate vector d/dmu), and
the coefficients of the standard contact form
Theta = (1/2)(dw - q d(conj q) + dq conj(q)), whose constant d(Theta) is
read off the same coefficients; left multiplication by i, j, k gives the
complex structures I_s. The coefficient maps are affine in the point and
keep its scalar type: float points give float coefficients, exact points
(Fraction or int) exact ones. frame_audit certifies exactly the facts that
pin every convention: Theta_s annihilates the frame, Theta_s(xi_k) =
delta_sk for the Reeb normalization xi_s = 2 d/dw_s, d(Theta_s)(e_a, e_b) =
2 g(I_s e_a, e_b), and the I_s satisfy the quaternion relations. It runs
the scans' float code at dyadic points, where every step is exact, and
contracts int64 numerators; each violation is one exact Fraction.

Second-order operators use that the frame is parallel for the flat Biquard
connection: grad-dh(e_a, e_b) = e_a(e_b h). The coefficient matrix is
C = [I | V(q)]: the identity on the horizontal columns and a vertical block
V linear in q, so e_b f = d_b f + V_b . d_w f needs no dense C at all.
Along e_a, each entry v_s of V_b has the constant derivative
-2 omega_s(e_a, e_b), with omega_s(e_a, e_b) = g(I_s e_a, e_b), so

    e_a(e_b f) = D^2 f[C_a, C_b] - sum_s xi_s f omega_s(e_a, e_b).

The bracket term, half of [e_a, e_b] f, is antisymmetric with a zero
diagonal, so the sub-Laplacian and the symmetric part read the form alone,
exactly: the field's hessian_along of V, which closed-form fields write
without an ambient Hessian and without C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quat import Quaternion, qmul
from .jets import ScalarField, frame_directions


# ---------------------------------------------------------------------------
# the quaternion structure constants


def _hamilton_table():
    """E[m, c, k] with unit_m unit_c = sum_k E[m, c, k] unit_k."""
    units = [Quaternion(*row) for row in np.eye(4, dtype=int).tolist()]
    return np.array([[qmul(a, b).components() for b in units] for a in units])


_HAMILTON = _hamilton_table()
# Im(x conj(y)) = sum_{k, c} x_k y_c _IM_CONJ[k, c, :], as conj(unit_c) = +-unit_c
_IM_CONJ = (_HAMILTON * np.array([1, -1, -1, -1])[None, :, None])[:, :, 1:]
_AUDIT_BLOCK = 2048     # points per block of frame_audit's contractions


def _scalars(x):
    """x as an array for the coefficient maps: floating input as float64,
    any other (int, Fraction) as exact Python scalars in an object array.
    Integer input too: ContactForm.coefficients writes Fraction(1, 2) into
    an array of this dtype, which an int64 array would store as 0."""
    x = np.asarray(x)
    return x.astype(float, copy=False) if x.dtype.kind == "f" else x.astype(object)


# ---------------------------------------------------------------------------
# group points and group operations


class GroupPoint(tuple):
    """A point (q, w) of the group as its 4n+3 coordinates
    (t^1, x^1, y^1, z^1, ..., t^n, x^n, y^n, z^n, w_1, w_2, w_3), exact
    (int, Fraction) or float scalars. The group law and the dilations act on
    it through left_translation_affine and dilation_affine."""

    __slots__ = ()

    def __new__(cls, coords):
        point = super().__new__(cls, coords)
        if len(point) < 7 or len(point) % 4 != 3:
            raise ValueError("a group point has 4n+3 coordinates, n >= 1")
        return point

    @classmethod
    def identity(cls, n):
        return cls([0] * (4 * n + 3))

    @classmethod
    def from_flat(cls, flat, n):
        point = cls(flat)
        if len(point) != 4 * n + 3:
            raise ValueError(f"expected {4 * n + 3} coordinates")
        return point

    @property
    def n(self):
        return (len(self) - 3) // 4

    def flat(self):
        return list(self)


def left_translation_affine(p0: GroupPoint):
    """The affine map of L_{p0}: p -> p0 . p as (matrix, offset) arrays on
    R^{4n+3}.

    The q-part is a shift; the w-part picks up the twist 2 Im(q0 conj(q)),
    linear in q. An exact p0 gives exact (object) arrays, a float p0 float
    ones.
    """
    n = p0.n
    nh = 4 * n
    offset = _scalars(p0.flat())
    A = np.eye(nh + 3, dtype=offset.dtype)
    q0 = offset[:nh].reshape(n, 4)
    A[nh:, :nh] = 2 * np.einsum("ak,kcs->sac", q0, _IM_CONJ).reshape(3, nh)
    return A, offset


def dilation_affine(lam, n):
    """The linear map of the parabolic dilation as (matrix, offset)."""
    if lam <= 0:
        raise ValueError("dilation parameter must be positive")
    d = 4 * n + 3
    diag = [lam] * (4 * n) + [lam * lam] * 3
    A = [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)]
    return A, [0] * d


# ---------------------------------------------------------------------------
# contact form


class ContactForm:
    """The three 1-forms Theta_s with affine coefficients, and d(Theta_s).

    coefficients(points) gives the covectors of Theta_1, Theta_2, Theta_3
    at each point in the points' scalar type. The exterior derivatives are
    the constant antisymmetric matrices W_s[i, j] = d_i c_{s j} - d_j c_{s i}
    of the same coefficients, so d(Theta_s)(u, v) = u^T W_s v.
    """

    def __init__(self, n):
        self.n = n
        self.dim = 4 * n + 3
        self._dtheta = self._build_dtheta()

    def coefficients(self, points):
        """Covectors of Theta_s at each point: (N, 3, dim).

        The coefficient of dq_{a, mu} in (1/2)(-q d(conj q) + dq conj(q))
        is (1/2)(-q_a conj(mu) + mu conj(q_a)) = -Im(q_a conj(mu)), as
        mu conj(q_a) is the conjugate of q_a conj(mu); dw_s has 1/2.
        """
        points = _scalars(points)
        N, nh = points.shape[0], 4 * self.n
        q = points[:, :nh].reshape(N, self.n, 4)
        out = np.zeros((N, 3, self.dim), dtype=points.dtype)
        out[:, :, :nh] = -np.einsum("nak,kcs->nsac", q, _IM_CONJ).reshape(N, 3, nh)
        out[:, [0, 1, 2], [nh, nh + 1, nh + 2]] = Fraction(1, 2)
        return out

    def _build_dtheta(self):
        # the coefficients are affine, so d_i c_{s j} is their change from
        # the origin to the unit point of coordinate i
        c = self.coefficients(np.eye(self.dim + 1, self.dim, -1, dtype=int))
        D = c[1:] - c[0]
        return D.transpose(1, 0, 2) - D.transpose(1, 2, 0)

    def dtheta(self, s):
        """W_s as an exact (dim, dim) object array."""
        return self._dtheta[s]


# ---------------------------------------------------------------------------
# the horizontal frame


class HorizontalFrame:
    """The 4n horizontal fields, 3 Reeb fields and complex structures I_s.

    Frame field b = 4a + m (slot a, unit m) has the coefficient covector
    e_b = d_b + sum_s v_s(q_a) d/dw_s with v(q_a) = -2 Im(mu_m conj(q_a));
    vertical_coefficients gives the v block and coefficients the whole
    covectors, both in the points' scalar type. Is (3, 4n, 4n) holds the
    I_s, left multiplication by i, j, k in every slot, and reeb (3, dim)
    the fields xi_s = 2 d/dw_s, as integer arrays. Immutable after
    construction in normal use; tests copy and tamper.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n
        self.dim = 4 * n + 3
        self.nh = 4 * n
        # column c of left multiplication by unit m is unit_m unit_c
        self.Is = np.array([np.kron(np.eye(n, dtype=int), _HAMILTON[m].T)
                            for m in (1, 2, 3)])
        self.reeb = 2 * np.eye(3, self.dim, self.nh, dtype=int)
        vrows = -2 * _IM_CONJ    # vrows[m, c, s] = d v_s / d q_c of unit m
        # slot coordinate c -> (unit m, component s), flattened for one
        # product; each column holds one entry +-2, the rest 0
        self._vmap = vrows.transpose(1, 0, 2).reshape(4, 12)
        # the same entries per unit m: for each component s, the slot
        # coordinate c with v_s = +-2 q_c and whether the sign is -
        self._vterms = [[(int(c), bool(vrows[m, c, s] < 0)) for s in range(3)
                         for c in np.flatnonzero(vrows[m, :, s])]
                        for m in range(4)]
        # d_a v_s of frame field b is -2 omega_s(e_a, e_b): the bracket
        # term of frame_second_order as (s, (a, b)), for one product with
        # the vertical gradient; each column holds at most one +-2
        self._bracket = (-2 * self.Is.transpose(0, 2, 1)).reshape(
            3, self.nh * self.nh).astype(float)

    def vertical_coefficients(self, points):
        """The vertical block V = v(q_a) of every frame field: (N, 4n, 3).

        e_{4a+m} = d_{4a+m} + sum_s V[:, 4a+m, s] d/dw_s, with each V entry
        linear in the four coordinates of slot a only.
        """
        points = _scalars(points)
        q = points[:, :self.nh].reshape(-1, 4)
        # a BLAS product, yet row-wise: each output is one coordinate times
        # +-2 plus exact zeros, which every order of summation adds up to
        # the same value, whatever the batch; a scan's blocks must equal one
        # evaluation over all its points
        # (test_scan_blocks_equal_one_batch_evaluation). The table takes the
        # points' dtype, so exact points stay exact
        return (q @ self._vmap.astype(points.dtype)).reshape(-1, self.nh, 3)

    def coefficients(self, points):
        """Frame coefficients C = [I | V]: (N, 4n, dim), for frame_audit."""
        return frame_directions(self.vertical_coefficients(points))

    def omega(self, s):
        """Matrix of the fundamental 2-form, omega_s[a, b] = g(I_s e_a, e_b)."""
        return self.Is[s].T


# ---------------------------------------------------------------------------
# exact frame audit


@dataclass
class AuditReport:
    n: int
    points: int
    violations: dict

    @property
    def max_violation(self):
        return max(self.violations.values())

    @property
    def all_zero(self):
        return all(v == 0 for v in self.violations.values())


def _denominator(*arrays):
    """The least common denominator of exact (int, Fraction) arrays."""
    return math.lcm(*{v.denominator for a in arrays for v in a.flat})


def _int64(a, scale):
    """The integers a * scale of an exact array as int64; scale must clear
    every denominator of a."""
    a = np.asarray(a, dtype=object)
    try:
        return (a * scale).astype(np.int64)
    except OverflowError:
        raise ValueError("an audit numerator does not fit in int64") from None


def _peak(*arrays):
    """The largest |entry| of int64 arrays, as a Python int."""
    return max(max(int(a.max()), -int(a.min())) for a in arrays)


def frame_audit(frame: HorizontalFrame, contact: ContactForm = None,
                n_points=100, seed=0, reeb=None, Is=None) -> AuditReport:
    """Exact rational audit of the frame against the contact structure.

    Checks, at n_points random rational points (entries k/16, |k| <= 32):
    Theta_s(e_b) = 0; Theta_s(xi_k) = delta_sk; d(Theta_s)(e_a, e_b) =
    2 g(I_s e_a, e_b); and the quaternion relations of the I_s. The reeb
    and Is arguments (lists of lists of int or Fraction) exist so tests can
    audit deliberately broken frames; by default the frame's own are used.
    Both coefficient maps run on the points K/16 in float64, the scans'
    own path; with inputs k/16, |k| <= 32, and small integer tables every
    float step is exact. Scaled by the common denominator of 16 and of the
    exact tables W, reeb and Is, each coefficient must be an integer below
    2^53, else ValueError: nothing rounded is reported. The int64
    contractions run on blocks of _AUDIT_BLOCK points, so memory grows
    with n_points only through K, each under a bound from its largest
    numerators that keeps every entry below 2^62 (ValueError otherwise).
    Each violation, the maximum over the blocks, is one exact Fraction.
    """
    if n_points < 1:
        raise ValueError("the audit needs at least one point")
    n, d, nh = frame.n, frame.dim, frame.nh
    contact = contact or ContactForm(n)
    reeb = np.asarray(frame.reeb if reeb is None else reeb)
    Is = np.asarray(frame.Is if Is is None else Is)
    W = np.array([contact.dtheta(s) for s in range(3)])
    den = math.lcm(16, _denominator(W, reeb, Is))
    W, reeb, Is = (_int64(a, den) for a in (W, reeb, Is))
    mW, mr, mI = map(_peak, (W, reeb, Is))

    rng = np.random.default_rng(seed)
    K = rng.integers(-32, 33, size=n_points * d).reshape(n_points, d)
    peaks = [0, 0, 0]
    for lo in range(0, n_points, _AUDIT_BLOCK):
        theta, C = (f(K[lo:lo + _AUDIT_BLOCK] / 16) * den
                    for f in (contact.coefficients, frame.coefficients))
        if not all(((abs(a) < 2 ** 53) & (a == np.rint(a))).all()
                   for a in (theta, C)):
            raise ValueError(f"an audit coefficient x {den} is no integer "
                             "below 2^53")
        theta, C = theta.astype(np.int64), C.astype(np.int64)
        # under 2^62, no product or difference below can wrap
        mt, mC = _peak(theta), _peak(C)
        bound = max(d * mt * mC, d * mt * mr + den ** 2,
                    d * d * mC * mW * mC + 2 * den ** 2 * mI,
                    nh * mI * mI + den * mI + den ** 2)
        if bound >= 2 ** 62:
            raise ValueError("the audit's numerators could overflow int64")
        Ct = np.swapaxes(C, 1, 2)
        # Theta_s(e_b) is theta C^T over den^2; d(Theta_s)(e_a, e_b) is
        # C W_s C^T over den^3, and g(I_s e_a, e_b) = (I_s)_{ba}
        peaks = [max(peak, _peak(v)) for peak, v in zip(peaks, (
            theta @ Ct,
            theta @ reeb.T - den ** 2 * np.eye(3, dtype=np.int64),
            C[:, None] @ W @ Ct[:, None]
            - 2 * den ** 2 * np.swapaxes(Is, 1, 2)))]
    ident = den ** 2 * np.eye(nh, dtype=np.int64)
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    return AuditReport(n=n, points=n_points, violations={
        "theta_on_frame": Fraction(peaks[0], den ** 2),
        "reeb_normalization": Fraction(peaks[1], den ** 2),
        "compatibility_2g": Fraction(peaks[2], den ** 3),
        "quaternion_relations": Fraction(_peak(
            *(Is[i] @ Is[j] - den * Is[k] for i, j, k in cyclic),
            *(I @ I + ident for I in Is), *(I.T @ I - ident for I in Is)),
            den ** 2),
    })


# ---------------------------------------------------------------------------
# first and second order horizontal operators (batched, float)


def horizontal_gradient(frame: HorizontalFrame, points, grad):
    """e_b f = d_b f + sum_s v_s(q_a) d/dw_s f: (N, 4n), in the memory
    order of grad.

    grad is the ambient gradient (N, 4n+3) of f at points (N, 4n+3), float.
    Each vertical coefficient v_s of frame field b = 4a + m is +-2 q_c for
    one coordinate c of slot a (frame._vterms), so the sum is written out
    over whole coordinate rows: t_s = q_c (+-2 d/dw_s f), added as
    d_b f + ((t_0 + t_2) + t_1), the order of jets.lane_sum. Each t_s is
    the product V[:, b, s] d/dw_s f of the vertical block, as doubling is
    exact, so the result equals d_H f + einsum("nbs,ns->nb", V, grad_w)
    bit for bit, up to the sign of a zero; a row's value depends neither on
    its batch nor on the memory order. The coordinate rows are views of the
    transposed batch, contiguous when it is Fortran-ordered; copying a
    C-ordered batch's rows instead would cost the scans more in page faults
    and heap than it saves.
    """
    nh, n = frame.nh, frame.n
    q = points[:, :nh].T.reshape(n, 4, -1)
    G = grad.T
    twice = np.multiply(G[nh:], 2.0, order="C")
    signed = (twice, -twice)
    grad_h = G[:nh].reshape(n, 4, -1)
    fg = np.empty_like(grad[:, :nh])
    out = fg.T.reshape(n, 4, -1)
    term = np.empty(out[:, 0].shape)
    for m, ((c0, n0), (c1, n1), (c2, n2)) in enumerate(frame._vterms):
        row = out[:, m]
        np.multiply(q[:, c0], signed[n0][0], out=row)
        row += np.multiply(q[:, c2], signed[n2][2], out=term)
        row += np.multiply(q[:, c1], signed[n1][1], out=term)
        row += grad_h[:, m]
    return fg


def frame_first_order(field: ScalarField, points, frame: HorizontalFrame):
    """(horizontal gradient (N,4n), vertical derivatives (N,3)) of field."""
    points = np.asarray(points, dtype=float)
    jf = field.jets(points, order=1)
    fg = horizontal_gradient(frame, points, jf.grad)
    xi = 2.0 * jf.grad[:, frame.nh:frame.nh + 3]
    return fg, xi


def frame_second_order(field: ScalarField, points, frame: HorizontalFrame):
    """Everything second order in one pass.

    Returns (value (N,), fg (N,4n), fh (N,4n,4n), xi (N,3)) where
    fh[., a, b] = e_a(e_b field) = grad-d(field)(e_a, e_b) in the parallel
    frame. With C = [I | V(q)] the frame coefficients,

        e_a(e_b f) = D^2 f[C_a, C_b] - sum_s xi_s f omega_s(e_a, e_b).

    The form D^2 f[C_a, C_b] is field.hessian_along(points, V): C hess C^T
    for a field that only has jets, a closed form without C for h, Phi and
    their transports. The
    bracket term, d_a v_s = -2 omega_s(e_a, e_b) times d/dw_s f, is one
    product of the vertical gradient with a constant table built from the
    I_s. Being antisymmetric, it leaves the symmetric part of fh to the
    form alone, which conformal_torsion reads from hessian_along.
    """
    points = np.asarray(points, dtype=float)
    nh = frame.nh
    value, grad, fh = field.hessian_along(
        points, frame.vertical_coefficients(points))
    grad_w = grad[:, nh:nh + 3]
    fg = horizontal_gradient(frame, points, grad)
    # each (a, b) column of the table holds at most one nonzero, so this
    # BLAS product is exact and row-wise: (a, b) gets one +-2 d/dw_s f or a
    # sum of zeros
    fh += (grad_w @ frame._bracket).reshape(-1, nh, nh)
    return value, fg, fh, 2.0 * grad_w


def sublaplacian(frame: HorizontalFrame, field: ScalarField, points):
    """(value (N,), horizontal gradient (N, 4n), Delta_H field (N,)).

    Delta_H f = sum_a e_a(e_a f) is the trace of frame_second_order's fh,
    taken by field.hessian_along from V alone, so a closed-form field
    forms neither its (N, d, d) Hessian nor C. The bracket term of fh adds
    nothing to the trace: omega_s(e_a, e_a) = g(I_s e_a, e_a) is 0, as no
    coefficient of e_a depends on e_a's own coordinate.
    """
    points = np.asarray(points, dtype=float)
    value, grad, lap = field.hessian_along(
        points, frame.vertical_coefficients(points), trace=True)
    return value, horizontal_gradient(frame, points, grad), lap
