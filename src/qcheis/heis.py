"""The quaternionic Heisenberg group and its horizontal calculus.

The group is H^n x Im(H) with product
(q0, w0) . (q, w) = (q0 + q, w + w0 + 2 Im(q0 conj(q))) and homogeneous
dimension Q = 4n + 6 under the parabolic dilations (q, w) -> (l q, l^2 w).
Points are coordinatized as (t^1, x^1, y^1, z^1, ..., t^n, x^n, y^n, z^n,
w_1, w_2, w_3) in R^{4n+3}.

The standard contact form Theta = (1/2)(dw - q d(conj q) + dq conj(q)) and
the left-invariant horizontal frame are built mechanically from quaternion
algebra rather than transcribed: the frame field in slot a and unit
direction mu is the left translate of the coordinate vector, which works out
to d/d(mu-coordinate) plus the vertical coefficients -2 Im(mu conj(q_a)),
and the contact coefficients and d(Theta) come from differentiating the
defining formula term by term. frame_audit then certifies, in exact rational
arithmetic, the facts that pin every convention: Theta_s annihilates the
frame, Theta_s(xi_k) = delta_sk for the Reeb normalization xi_s = 2 d/dw_s,
d(Theta_s)(e_a, e_b) = 2 g(I_s e_a, e_b) for the complex structures I_s
given by left quaternion multiplication, and the I_s satisfy the quaternion
relations.

Second-order operators use that the frame is parallel for the flat Biquard
connection: grad-dh(e_a, e_b) = e_a(e_b h), computed from the ambient jet of
h plus the (constant) derivatives of the affine frame coefficients. The
coefficient matrix is C = [I | V(q)]: the identity on the horizontal
columns and a vertical block V linear in q, so e_b f = d_b f + V_b . d_w f
needs no dense C at all, and the derivative term C_a . G_b . grad f reduces
to the constant contraction sum_s G[b, a, s] d_{w_s} f of the vertical
gradient alone. What remains dense is the batched product C . hess f . C^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quat import HVector, ImQuaternion, Quaternion, im_product, qmul
from .jets import Jet2, ScalarField


# ---------------------------------------------------------------------------
# group points and group operations


class GroupPoint:
    """A point (q, w) of the group; scalar-generic like Quaternion."""

    __slots__ = ("q", "w")

    def __init__(self, q: HVector, w: ImQuaternion):
        self.q = q
        self.w = w

    @classmethod
    def identity(cls, n):
        return cls(HVector([Quaternion() for _ in range(n)]), ImQuaternion())

    @classmethod
    def from_flat(cls, flat, n):
        flat = list(flat)
        if len(flat) != 4 * n + 3:
            raise ValueError("expected 4n+3 coordinates")
        return cls(HVector.from_flat(flat[:4 * n]), ImQuaternion.from_seq(flat[4 * n:]))

    @property
    def n(self):
        return self.q.n

    def flat(self):
        return self.q.flat() + self.w.components()

    def __eq__(self, other):
        return isinstance(other, GroupPoint) and self.q == other.q and self.w == other.w

    def __repr__(self):
        return f"GroupPoint({self.q!r}, {self.w!r})"


def group_multiply(a: GroupPoint, b: GroupPoint) -> GroupPoint:
    """(q0,w0) . (q,w) = (q0+q, w + w0 + 2 Im(q0 conj(q)))."""
    if a.n != b.n:
        raise ValueError("group points of different dimension")
    twist = 2 * im_product(a.q, b.q)
    return GroupPoint(a.q + b.q, b.w + a.w + twist)


def group_inverse(p: GroupPoint) -> GroupPoint:
    return GroupPoint(-p.q, -p.w)


def dilate(lam, p: GroupPoint) -> GroupPoint:
    """Parabolic dilation (q, w) -> (lam q, lam^2 w), lam > 0."""
    if lam <= 0:
        raise ValueError("dilation parameter must be positive")
    return GroupPoint(HVector([lam * qa for qa in p.q.components]),
                      (lam * lam) * p.w)


def left_translation_affine(p0: GroupPoint):
    """The affine map of L_{p0}: p -> p0 . p as (matrix, offset) on R^{4n+3}.

    The q-part is a shift; the w-part picks up the twist 2 Im(q0 conj(q)),
    linear in q. Entries inherit the scalar type of p0.
    """
    n = p0.n
    d = 4 * n + 3
    A = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for a in range(n):
        q0a = p0.q.components[a]
        for c in range(4):
            col = qmul(q0a, Quaternion.unit(c).conj())
            for s, comp in enumerate((col.x, col.y, col.z)):
                A[4 * n + s][4 * a + c] = 2 * comp
    return A, p0.flat()


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

    coefficient_row(s, p) gives the covector of Theta_s at p; the exterior
    derivatives are the constant antisymmetric matrices
    W_s[i, j] = d_i c_{s j} - d_j c_{s i}, so
    d(Theta_s)(u, v) = u^T W_s v.
    """

    def __init__(self, n):
        self.n = n
        self.dim = 4 * n + 3
        self._dtheta = self._build_dtheta()

    def coefficient_rows(self, point: GroupPoint):
        """Exact covectors of Theta_1, Theta_2, Theta_3 at point.

        Scalar type follows the point; the quaternion product per coordinate
        is shared by the three rows.
        """
        n = self.n
        half = Fraction(1, 2)
        rows = [[0] * self.dim for _ in range(3)]
        for a in range(n):
            qa = point.q.components[a]
            for c in range(4):
                # coefficient of dq_{a,c} in (1/2)(-q d(conj q) + dq conj(q))
                val = -qmul(qa, Quaternion.unit(c).conj()) \
                    + qmul(Quaternion.unit(c), qa.conj())
                for s, comp in enumerate((val.x, val.y, val.z)):
                    if comp:
                        rows[s][4 * a + c] = half * comp
        for s in range(3):
            rows[s][4 * n + s] = half
        return rows

    def coefficient_row(self, s, point: GroupPoint):
        """Exact covector of Theta_s at point."""
        return self.coefficient_rows(point)[s]

    def coefficient_batch(self, points):
        """Float coefficients for a batch: (N, 3, dim)."""
        points = np.asarray(points, dtype=float)
        N = points.shape[0]
        out = np.zeros((N, 3, self.dim))
        for s in range(3):
            out[:, s, 4 * self.n + s] = 0.5
        for a in range(self.n):
            q = points[:, 4 * a:4 * a + 4]
            for c in range(4):
                # columns of the linear map q_a -> coefficient, from unit vectors
                for comp in range(4):
                    unit = Quaternion.unit(comp)
                    val = -qmul(unit, Quaternion.unit(c).conj()) \
                        + qmul(Quaternion.unit(c), unit.conj())
                    for s, v in enumerate((val.x, val.y, val.z)):
                        if v:
                            out[:, s, 4 * a + c] += 0.5 * v * q[:, comp]
        return out

    def _build_dtheta(self):
        n, d = self.n, self.dim
        W = [[[0] * d for _ in range(d)] for _ in range(3)]
        # d_i c_{s j}: coefficients are linear in the q-coordinates only
        for a in range(n):
            for c in range(4):          # form index j = 4a+c
                for i in range(4):      # derivative index 4a+i
                    unit_i = Quaternion.unit(i)
                    val = -qmul(unit_i, Quaternion.unit(c).conj()) \
                        + qmul(Quaternion.unit(c), unit_i.conj())
                    for s, v in enumerate((val.x, val.y, val.z)):
                        if v:
                            W[s][4 * a + i][4 * a + c] += Fraction(1, 2) * v
        for s in range(3):
            for i in range(d):
                for j in range(i):
                    W[s][i][j], W[s][j][i] = W[s][i][j] - W[s][j][i], \
                        W[s][j][i] - W[s][i][j]
                W[s][i][i] = 0
        return W

    def dtheta(self, s):
        return self._dtheta[s]

    def dtheta_arrays(self):
        return np.array(self._dtheta, dtype=float)


# ---------------------------------------------------------------------------
# the horizontal frame


def _left_mult_matrix(m):
    """4x4 integer matrix of left multiplication by the unit with index m."""
    cols = []
    for c in range(4):
        prod = qmul(Quaternion.unit(m), Quaternion.unit(c))
        cols.append(prod.components())
    return [[cols[c][r] for c in range(4)] for r in range(4)]


class HorizontalFrame:
    """The 4n horizontal fields, 3 Reeb fields and complex structures I_s.

    Frame field b = 4a + m (slot a, unit m) has the coefficient covector
    e_b = d_b + sum_s v_s(q_a) d/dw_s with v(q_a) = -2 Im(mu_m conj(q_a)).
    Immutable after construction in normal use; tests copy and tamper.
    """

    def __init__(self, n):
        self.n = n
        self.dim = 4 * n + 3
        self.nh = 4 * n
        self.Is = self._build_Is()
        self.reeb = np.zeros((3, self.dim))
        for s in range(3):
            self.reeb[s, 4 * n + s] = 2.0
        vrows = np.array([self._vertical_rows(m) for m in range(4)])
        # slot coordinate c -> (unit m, component s), flattened for one einsum
        self._vmap = vrows.transpose(1, 0, 2).reshape(4, 12)
        self._vgrads = self._build_vertical_grads(vrows)

    # -- construction --------------------------------------------------------

    def _build_Is(self):
        blocks = [np.array(_left_mult_matrix(m), dtype=float) for m in (1, 2, 3)]
        return [np.kron(np.eye(self.n), B) for B in blocks]

    def _vertical_rows(self, m):
        """The linear map q-coords of one slot -> 3 vertical coefficients."""
        rows = np.zeros((4, 3))
        for c in range(4):
            prod = qmul(Quaternion.unit(m), Quaternion.unit(c).conj())
            rows[c] = [-2 * prod.x, -2 * prod.y, -2 * prod.z]
        return rows

    def _build_vertical_grads(self, vrows):
        """d_a v_s of frame field b as (b, a, s): the only nonzero block of
        the coefficient gradients, the block vrows[m, c, s] in every slot."""
        G = np.zeros((self.nh, self.nh, 3))
        for a in range(self.n):
            G[4 * a:4 * a + 4, 4 * a:4 * a + 4] = vrows
        return G

    # -- evaluation -----------------------------------------------------------

    def vertical_coefficients(self, points):
        """The vertical block V = v(q_a) of every frame field: (N, 4n, 3).

        e_{4a+m} = d_{4a+m} + sum_s V[:, 4a+m, s] d/dw_s, with each V entry
        linear in the four coordinates of slot a only.
        """
        points = np.asarray(points, dtype=float)
        q = points[:, :self.nh].reshape(-1, self.n, 4)
        # einsum, not matmul: a thin (N, 4) product would start BLAS threads
        return np.einsum("nac,ck->nak", q, self._vmap).reshape(-1, self.nh, 3)

    def coefficients(self, points):
        """Batched frame coefficients C = [I | V]: (N, 4n, dim) floats."""
        V = self.vertical_coefficients(points)
        C = np.zeros((V.shape[0], self.nh, self.dim))
        idx = np.arange(self.nh)
        C[:, idx, idx] = 1.0
        C[:, :, self.nh:] = V
        return C

    def coefficient_row(self, b, point: GroupPoint):
        """Exact covector of frame field b at an exact group point."""
        a, m = divmod(b, 4)
        row = [0] * self.dim
        row[b] = 1
        qa = point.q.components[a]
        prod = qmul(Quaternion.unit(m), qa.conj())
        row[self.nh + 0] = -2 * prod.x
        row[self.nh + 1] = -2 * prod.y
        row[self.nh + 2] = -2 * prod.z
        return row

    def omega(self, s):
        """Matrix of the fundamental 2-form, omega_s[a, b] = g(I_s e_a, e_b)."""
        return self.Is[s].T

    def exact_Is(self):
        """The I_s as exact integer matrices (lists of lists)."""
        out = []
        for m in (1, 2, 3):
            B = _left_mult_matrix(m)
            M = [[0] * self.nh for _ in range(self.nh)]
            for a in range(self.n):
                for r in range(4):
                    for c in range(4):
                        M[4 * a + r][4 * a + c] = B[r][c]
            out.append(M)
        return out


def build_frame(n) -> HorizontalFrame:
    if n < 1:
        raise ValueError("n must be at least 1")
    return HorizontalFrame(n)


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


def frame_audit(frame: HorizontalFrame, contact: ContactForm = None,
                n_points=100, seed=0, reeb=None, Is=None) -> AuditReport:
    """Exact rational audit of the frame against the contact structure.

    Checks, at n_points random rational points (entries k/16, |k| <= 32):
    Theta_s(e_b) = 0; Theta_s(xi_k) = delta_sk; d(Theta_s)(e_a, e_b) =
    2 g(I_s e_a, e_b); and the quaternion relations of the I_s. The reeb and
    Is arguments exist so tests can audit deliberately broken frames; by
    default the frame's own data is used. All violations are exact maxima
    over Fractions, zero means zero.
    """
    n = frame.n
    d = frame.dim
    contact = contact or ContactForm(n)
    if reeb is None:
        reeb = [[Fraction(0)] * d for _ in range(3)]
        for s in range(3):
            reeb[s][4 * n + s] = Fraction(2)
    if Is is None:
        Is = frame.exact_Is()

    rng = np.random.default_rng(seed)
    viol = {
        "theta_on_frame": Fraction(0),
        "reeb_normalization": Fraction(0),
        "compatibility_2g": Fraction(0),
        "quaternion_relations": Fraction(0),
    }

    # sparse views: the 2-form matrices have a handful of entries per slot
    # and each frame row has at most four, so everything below skips zeros
    dtheta_nnz = []
    for s in range(3):
        W = contact.dtheta(s)
        dtheta_nnz.append([(i, j, W[i][j]) for i in range(d)
                           for j in range(d) if W[i][j]])

    for _ in range(n_points):
        flat = [Fraction(int(rng.integers(-32, 33)), 16) for _ in range(d)]
        p = GroupPoint.from_flat(flat, n)
        rows = contact.coefficient_rows(p)
        frame_rows = []
        for b in range(frame.nh):
            full = frame.coefficient_row(b, p)
            frame_rows.append({i: v for i, v in enumerate(full) if v})
        # Theta_s(e_b) = 0
        for s in range(3):
            row = rows[s]
            for fb in frame_rows:
                v = sum(row[i] * val for i, val in fb.items())
                viol["theta_on_frame"] = max(viol["theta_on_frame"], abs(v))
        # Theta_s(xi_k) = delta_sk
        for s in range(3):
            for k in range(3):
                v = sum(rows[s][i] * reeb[k][i] for i in range(d))
                target = 1 if s == k else 0
                viol["reeb_normalization"] = max(viol["reeb_normalization"],
                                                 abs(v - target))
        # d(Theta_s)(e_a, e_b) = 2 g(I_s e_a, e_b)
        for s in range(3):
            for a in range(frame.nh):
                ua = frame_rows[a]
                Wu = {}
                for i, j, w in dtheta_nnz[s]:
                    vi = ua.get(i)
                    if vi:
                        Wu[j] = Wu.get(j, 0) + vi * w
                for b in range(frame.nh):
                    ub = frame_rows[b]
                    lhs = sum(wv * ub[j] for j, wv in Wu.items() if j in ub)
                    rhs = 2 * Is[s][b][a]      # g(I_s e_a, e_b) = (I_s)_{b a}
                    viol["compatibility_2g"] = max(viol["compatibility_2g"],
                                                   abs(lhs - rhs))

    # quaternion relations of the I_s (point independent)
    nh = frame.nh

    def matmul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(nh)) for j in range(nh)]
                for i in range(nh)]

    def maxdev(A, B):
        return max(abs(A[i][j] - B[i][j]) for i in range(nh) for j in range(nh))

    ident = [[1 if i == j else 0 for j in range(nh)] for i in range(nh)]
    neg = [[-ident[i][j] for j in range(nh)] for i in range(nh)]
    qv = Fraction(0)
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        qv = max(qv, maxdev(matmul(Is[i], Is[j]), Is[k]))
    for s in range(3):
        qv = max(qv, maxdev(matmul(Is[s], Is[s]), neg))
        transpose = [[Is[s][j][i] for j in range(nh)] for i in range(nh)]
        qv = max(qv, maxdev(matmul(transpose, Is[s]), ident))
    viol["quaternion_relations"] = qv

    return AuditReport(n=n, points=n_points, violations=viol)


# ---------------------------------------------------------------------------
# first and second order horizontal operators (batched, float)


def horizontal_gradient(V, grad):
    """e_b f = d_b f + sum_s V[:, b, s] d/dw_s f: (N, 4n).

    V is the frame's vertical block (vertical_coefficients) at the points
    and grad the ambient gradient (N, 4n+3) of f there.
    """
    nh = V.shape[1]
    return grad[:, :nh] + np.einsum("nbs,ns->nb", V, grad[:, nh:])


def frame_first_order(field: ScalarField, points, frame: HorizontalFrame):
    """(horizontal gradient (N,4n), vertical derivatives (N,3)) of field."""
    points = np.asarray(points, dtype=float)
    jf = field.jets(points, order=1)
    fg = horizontal_gradient(frame.vertical_coefficients(points), jf.grad)
    xi = 2.0 * jf.grad[:, frame.nh:frame.nh + 3]
    return fg, xi


def frame_second_order(field: ScalarField, points, frame: HorizontalFrame):
    """Everything second order in one pass.

    Returns (value (N,), fg (N,4n), fh (N,4n,4n), xi (N,3)) where
    fh[., a, b] = e_a(e_b field) = grad-d(field)(e_a, e_b) in the parallel
    frame. With C = [I | V(q)] the frame coefficients and G_b the constant
    gradients of row b of C,

        e_a(e_b f) = sum_s G[b, a, s] d/dw_s f + (C . hess f . C^T)[a, b]:

    G is nonzero only on (horizontal derivative, vertical component), and
    C is the identity on its horizontal block, so C_a . G_b . grad f
    contracts only the vertical gradient, with the constant G[b, a, s].
    """
    points = np.asarray(points, dtype=float)
    jf = field.jets(points, order=2)
    C = frame.coefficients(points)
    grad_w = jf.grad[:, frame.nh:frame.nh + 3]
    fg = horizontal_gradient(C[:, :, frame.nh:], jf.grad)
    fh = C @ jf.hess_full() @ np.swapaxes(C, 1, 2)
    fh += np.einsum("bas,ns->nab", frame._vgrads, grad_w)
    return jf.value, fg, fh, 2.0 * grad_w


def horiz_grad(field: ScalarField, points, frame: HorizontalFrame):
    """Components (e_1 f, ..., e_{4n} f) at each point: (N, 4n)."""
    return frame_first_order(field, points, frame)[0]


def vertical_derivs(field: ScalarField, points, frame: HorizontalFrame):
    """(xi_1 f, xi_2 f, xi_3 f) at each point: (N, 3)."""
    return frame_first_order(field, points, frame)[1]


def frame_hessian(field: ScalarField, points, frame: HorizontalFrame):
    """The (generally non-symmetric) matrix e_a(e_b f): (N, 4n, 4n)."""
    return frame_second_order(field, points, frame)[2]


def sublaplacian(field: ScalarField, points, frame: HorizontalFrame):
    """The sub-Laplacian sum_a e_a(e_a f): (N,)."""
    return np.einsum("naa->n", frame_second_order(field, points, frame)[2])


def horiz_divergence(components, points, frame: HorizontalFrame):
    """Frame divergence sum_a e_a(V(e_a)) of a horizontal 1-form V.

    components is a sequence of 4n ScalarFields giving V(e_a).
    """
    points = np.asarray(points, dtype=float)
    if len(components) != frame.nh:
        raise ValueError("need one component field per frame vector")
    V = frame.vertical_coefficients(points)
    div = np.zeros(points.shape[0])
    for a, comp in enumerate(components):
        div += horizontal_gradient(V, comp.jets(points, order=1).grad)[:, a]
    return div
