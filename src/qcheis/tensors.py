"""Sp(n)Sp(1) projections, torsion-type tensors and their algebraic identities.

A symmetric bilinear form P on the horizontal space splits under the three
complex structures into its [3]-part, invariant under each I_s, and its
[-1]-part, satisfying P + sum_s P(I_s., I_s.) = 0. The two projections are

    P_[3]  = (P + sum_s P(I_s., I_s.)) / 4,
    P_[-1] = (3 P - sum_s P(I_s., I_s.)) / 4.

TorsionData packages a [-1]-type tensor T0, a trace-free [3]-type tensor U,
a horizontal covector dh, the vertical derivatives dh(xi_s) and a value
h > 0; these are the ingredients of the divergence machinery. From them the
one-forms

    D_s(X) = -(1/2h)(T0(X, grad h) + T0(I_s X, I_s grad h)),
    D = D_1 + D_2 + D_3 = -(1/h) T0(X, grad h),
    F_s(X) = -(1/h) T0(X, I_s grad h),
    E(X) = (1/h) EE(X, grad h)   with EE = -2U,

and the function f = 1/2 + h + (1/4h)|grad h|^2 are computed, together with
the (0,3)-tensors DD and EE3 built from T0 and EE by the paired pattern

    v(X) T(Y,Z) + v(Y) T(X,Z)
      + sum_s [ v(I_s X) T(I_s Y, Z) + v(I_s Y) T(I_s X, Z) ]

scaled by -1/(8h) and +1/(8h) respectively. dd_ee_identity_check verifies
the norm and inner-product identities these satisfy, with both sides
computed through independent routes (brute-force triple contraction on the
left, the one-form data on the right).

Everything here is frame-componentwise: a bilinear form is its 4n x 4n
matrix P[a, b] = P(e_a, e_b), a one-form its 4n-vector, and composition
with I_s acts by P(I_s., I_s.) = I_s^T P I_s, v(I_s .) = I_s^T v.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heis import HorizontalFrame, frame_second_order
from .jets import DomainError, ScalarField

_FLOOR = 1e-30


def relative_residual(lhs, rhs):
    """max |lhs - rhs| over max(|lhs|, |rhs|, floor); scale-free."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scale = max(np.max(np.abs(lhs), initial=0.0),
                np.max(np.abs(rhs), initial=0.0), _FLOOR)
    return float(np.max(np.abs(lhs - rhs)) / scale)


@dataclass
class ResidualReport:
    residuals: dict

    @property
    def max_residual(self):
        return max(self.residuals.values())


# ---------------------------------------------------------------------------
# projections


def _casimir_sum(P, Is):
    """sum_s P(I_s., I_s.) for a single (4n, 4n) P or a batch (N, 4n, 4n);
    the matmuls broadcast the constant I_s over the batch."""
    return sum(I.T @ P @ I for I in Is)


def project_3_m1(P, frame: HorizontalFrame):
    """Split a symmetric form into its ([3], [-1]) parts.

    Accepts a single (4n, 4n) matrix or a batch (N, 4n, 4n). Raises on
    asymmetric input; the formulas are only projections on symmetric forms.
    (Tests feed antisymmetric forms like omega_s through _casimir_sum
    directly when checking type facts about 2-forms.)
    """
    P = np.asarray(P, dtype=float)
    asym = np.max(np.abs(P - np.swapaxes(P, -1, -2)))
    if asym > 1e-12 * max(1.0, np.max(np.abs(P))):
        raise ValueError("projection input must be symmetric")
    S = _casimir_sum(P, frame.Is)
    return (P + S) / 4.0, (3.0 * P - S) / 4.0


def trace_free(P, frame: HorizontalFrame):
    P = np.asarray(P, dtype=float)
    nh = frame.nh
    tr = np.trace(P, axis1=-2, axis2=-1)
    eye = np.eye(nh)
    if P.ndim == 2:
        return P - (tr / nh) * eye
    return P - (tr[:, None, None] / nh) * eye


# ---------------------------------------------------------------------------
# torsion data


@dataclass
class TorsionData:
    """Abstract inputs for the identity suite, not tied to a group point.

    T0 is of type [-1], U of type [3] and trace-free, dh holds the frame
    components of the horizontal gradient, dhxi the three vertical
    derivatives, h the (positive) value of the conformal factor.
    """
    n: int
    T0: np.ndarray
    U: np.ndarray
    dh: np.ndarray
    dhxi: np.ndarray
    h: float

    def validate(self, frame: HorizontalFrame = None, tol=0.0):
        frame = frame or HorizontalFrame(self.n)
        Is = frame.Is
        checks = {}
        checks["T0_symmetric"] = np.max(np.abs(self.T0 - self.T0.T))
        checks["U_symmetric"] = np.max(np.abs(self.U - self.U.T))
        checks["T0_minus_one_type"] = np.max(np.abs(
            self.T0 + _casimir_sum(self.T0, Is)))
        checks["U_three_type"] = max(
            np.max(np.abs(I.T @ self.U @ I - self.U)) for I in Is)
        checks["U_trace_free"] = abs(np.trace(self.U))
        bad = {k: v for k, v in checks.items() if v > tol}
        if bad or self.h <= 0:
            raise ValueError(f"invalid torsion data: {bad or 'h <= 0'}")
        return checks


def random_torsion(n, seed, frame: HorizontalFrame = None) -> TorsionData:
    """Reproducible TorsionData with dyadic entries.

    Entries are multiples of 1/16, so the projections (divisions by 4 and,
    for the trace part, by 4n with n <= 2) stay exact in double precision
    and the type invariants hold with zero error, not just small error.
    For n = 1 the trace-free [3]-projection of any symmetric matrix
    vanishes identically, so U comes out exactly zero. Pass the caller's
    frame to skip building one per sample.
    """
    rng = np.random.default_rng(seed)
    frame = frame or HorizontalFrame(n)
    nh = 4 * n

    def dyadic(shape):
        return rng.integers(-24, 25, size=shape) / 16.0

    S1 = dyadic((nh, nh))
    S1 = (S1 + S1.T) / 2.0
    S2 = dyadic((nh, nh))
    S2 = (S2 + S2.T) / 2.0
    P3_1, T0 = project_3_m1(S1, frame)
    U3, _ = project_3_m1(S2, frame)
    U = trace_free(U3, frame)
    dh = dyadic(nh)
    dhxi = dyadic(3)
    h = 1.0 + rng.integers(0, 33) / 16.0
    return TorsionData(n=n, T0=T0, U=U, dh=dh, dhxi=dhxi, h=float(h))


# ---------------------------------------------------------------------------
# the one-forms and f


@dataclass
class AuxForms:
    D1: np.ndarray
    D2: np.ndarray
    D3: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    F3: np.ndarray
    f: float

    @property
    def Ds(self):
        return (self.D1, self.D2, self.D3)

    @property
    def Fs(self):
        return (self.F1, self.F2, self.F3)


def ebold_from_u(U):
    """The tensor EE = -2U entering E and the (0,3)-tensor EE3."""
    return -2.0 * np.asarray(U, dtype=float)


def aux_forms_from_torsion(td: TorsionData, frame: HorizontalFrame = None) -> AuxForms:
    frame = frame or HorizontalFrame(td.n)
    Is = frame.Is
    h, dh, T0 = td.h, td.dh, td.T0
    Ds = [-(T0 @ dh + I.T @ T0 @ (I @ dh)) / (2.0 * h) for I in Is]
    D = Ds[0] + Ds[1] + Ds[2]
    E = ebold_from_u(td.U) @ dh / h
    Fs = [-(T0 @ (I @ dh)) / h for I in Is]
    f = 0.5 + h + 0.25 * float(dh @ dh) / h
    return AuxForms(D1=Ds[0], D2=Ds[1], D3=Ds[2], D=D, E=E,
                    F1=Fs[0], F2=Fs[1], F3=Fs[2], f=f)


def f_alternative_from_ds(aux: AuxForms, frame: HorizontalFrame):
    """F_i(X) = -D_i(I_i X) + D_j(I_i X) + D_k(I_i X), cyclic in (i,j,k).

    Returns the three vectors built from the D_s, for cross-checking the
    directly computed F_s.
    """
    Is = frame.Is
    out = []
    order = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    Ds = aux.Ds
    for (i, j, k) in order:
        comb = -Ds[i] + Ds[j] + Ds[k]
        out.append(Is[i].T @ comb)
    return out


# ---------------------------------------------------------------------------
# the (0,3)-tensors


def _paired_tensor(v, T, Is):
    """v(X)T(Y,Z) + v(Y)T(X,Z) + sum_s [same with X,Y twisted by I_s]."""
    out = np.einsum("a,bc->abc", v, T) + np.einsum("b,ac->abc", v, T)
    for I in Is:
        vI = I.T @ v
        TI = I.T @ T
        out += np.einsum("a,bc->abc", vI, TI) + np.einsum("b,ac->abc", vI, TI)
    return out


def dd_ee_tensors(td: TorsionData, frame: HorizontalFrame = None):
    """The (0,3)-tensors built from T0 and EE = -2U.

    DD = -(1/8h) * paired(dh, T0), EE3 = +(1/8h) * paired(dh, EE). Both are
    symmetric in their first two slots by construction.
    """
    frame = frame or HorizontalFrame(td.n)
    Is = frame.Is
    DD = -_paired_tensor(td.dh, td.T0, Is) / (8.0 * td.h)
    EE3 = _paired_tensor(td.dh, ebold_from_u(td.U), Is) / (8.0 * td.h)
    return DD, EE3


def dd_ee_identity_check(td: TorsionData, frame: HorizontalFrame = None) -> ResidualReport:
    """Norm and product identities for DD and EE3, both sides independent.

    Left sides are brute-force triple-index contractions of the tensors;
    right sides use only h, dh, T0, EE and the one-forms. The four checks:

      |DD|^2  = (1/8) h^-2 |dh|^2 |T0|^2 - (1/4) sum_s |D_s|^2
                  + (1/2)(D1.D2 + D1.D3 + D2.D3)
      |EE3|^2 = (1/8) h^-2 |dh|^2 |EE|^2 - (1/4)|E|^2
      DD.EE3  = (1/4) sum_s E.D_s
      (1/4) h^-2 |dh|^2 (|T0|^2 + |EE|^2)
              = 2|DD + EE3|^2 - sum_s E.D_s + (1/2)|E|^2
                  + (1/2) sum_s |D_s|^2 - (D1.D2 + D1.D3 + D2.D3)
    """
    frame = frame or HorizontalFrame(td.n)
    aux = aux_forms_from_torsion(td, frame)
    DD, EE3 = dd_ee_tensors(td, frame)
    h, dh = td.h, td.dh
    EE = ebold_from_u(td.U)

    dh2 = float(dh @ dh)
    t0n2 = float(np.sum(td.T0 * td.T0))
    een2 = float(np.sum(EE * EE))
    dnorms = [float(d @ d) for d in aux.Ds]
    dcross = float(aux.D1 @ aux.D2 + aux.D1 @ aux.D3 + aux.D2 @ aux.D3)
    en2 = float(aux.E @ aux.E)
    eds = float(sum(aux.E @ d for d in aux.Ds))

    res = {}
    lhs = float(np.sum(DD * DD))
    rhs = dh2 * t0n2 / (8 * h * h) - 0.25 * sum(dnorms) + 0.5 * dcross
    res["dd_norm"] = relative_residual(lhs, rhs)

    lhs = float(np.sum(EE3 * EE3))
    rhs = dh2 * een2 / (8 * h * h) - 0.25 * en2
    res["ee_norm"] = relative_residual(lhs, rhs)

    lhs = float(np.sum(DD * EE3))
    rhs = 0.25 * eds
    res["dd_dot_ee"] = relative_residual(lhs, rhs)

    mix = DD + EE3
    lhs = dh2 * (t0n2 + een2) / (4 * h * h)
    rhs = 2.0 * float(np.sum(mix * mix)) - eds + 0.5 * en2 \
        + 0.5 * sum(dnorms) - dcross
    res["combined"] = relative_residual(lhs, rhs)
    return ResidualReport(res)


# ---------------------------------------------------------------------------
# formal h-jet formulas
#
# These transcribe the one-forms D and E as expressions in the 2-jet of h.
# Their derivations use the normalization Scal = 16n(n+2) of a curved
# structure, so they are NOT pointwise assertions on the flat group; what
# is asserted (universal_identity_suite) are their derivation-independent
# consequences, which are jet-level algebraic identities.


def d_from_h_jet(fg, fh, xi, h, frame: HorizontalFrame):
    """D(e_a) = (1/4)h^-2 (3 Hdh(e_a, gh) - sum_s Hdh(I_s e_a, I_s gh))
    + h^-2 sum_s dh(xi_s) dh(I_s e_a), with Hdh the frame Hessian."""
    h = np.asarray(h, dtype=float)
    hinv2 = 1.0 / (h * h)
    # the integer I_s as floats: einsum over mixed dtypes runs a slower
    # buffered loop
    Is = frame.Is.astype(float)
    main = 3.0 * np.einsum("nab,nb->na", fh, fg)
    for I in Is:
        main -= np.einsum("nad,nd->na", I.T @ fh @ I, fg)
    vert = np.zeros_like(fg)
    for s, I in enumerate(Is):
        vert += xi[:, s:s + 1] * np.einsum("ba,nb->na", I, fg)
    return 0.25 * hinv2[:, None] * main + hinv2[:, None] * vert


def e_from_h_jet(fg, fh, xi, h, frame: HorizontalFrame):
    """E(e_a) = (1/4)h^-2 [Hdh(e_a, gh) + sum_s Hdh(I_s e_a, I_s gh)
    + (-2 + 4h - 3 h^-1 |gh|^2) dh(e_a)]."""
    h = np.asarray(h, dtype=float)
    hinv2 = 1.0 / (h * h)
    main = np.einsum("nab,nb->na", fh, fg)
    for I in frame.Is.astype(float):
        main += np.einsum("nad,nd->na", I.T @ fh @ I, fg)
    gh2 = np.einsum("na,na->n", fg, fg)
    coef = -2.0 + 4.0 * h - 3.0 * gh2 / h
    return 0.25 * hinv2[:, None] * (main + coef[:, None] * fg)


def flat_A_vectors(n):
    """The vectors A_i = I_i [xi_j, xi_k] on the flat group: the center is
    abelian, so all three vanish. Kept as explicit inputs so the quadratic
    form can be exercised with nonzero A-blocks from elsewhere."""
    nh = 4 * n
    return [np.zeros(nh) for _ in range(3)]


# ---------------------------------------------------------------------------
# the jet-level identity suite


def universal_identity_suite(h_field: ScalarField, points,
                             frame: HorizontalFrame) -> ResidualReport:
    """Two identities in the 2-jet of a positive h, asserted pointwise.

    (i) the sum identity: with D, E from their h-jet formulas,

        (E + D)(e_a) = h^-2 Hdh(e_a, gh) + h^-2 sum_s dh(xi_s) dh(I_s e_a)
                       + (1/4) h^-2 (-2 + 4h - 3 h^-1 |gh|^2) dh(e_a);

    (ii) the differential of f = 1/2 + h + (1/4h)|gh|^2:

        2 df(e_a) = h (E + D)(e_a) - h^-1 sum_s dh(xi_s) dh(I_s e_a)
                    + h^-1 f dh(e_a),

    where df is computed independently by the chain rule through the frame
    Hessian. Both must hold for any h > 0, whatever the curvature of the
    ambient structure; they certify sign and slot conventions end to end.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    h, fg, fh, xi = frame_second_order(h_field, points, frame)
    if np.any(h <= 0):
        raise DomainError("h must be positive on the evaluation points")

    D = d_from_h_jet(fg, fh, xi, h, frame)
    E = e_from_h_jet(fg, fh, xi, h, frame)

    hinv = 1.0 / h
    hinv2 = hinv * hinv
    gh2 = np.einsum("na,na->n", fg, fg)
    hess_gh = np.einsum("nab,nb->na", fh, fg)
    twist = np.zeros_like(fg)
    for s, I in enumerate(frame.Is.astype(float)):
        twist += xi[:, s:s + 1] * np.einsum("ba,nb->na", I, fg)

    rhs1 = hinv2[:, None] * hess_gh + hinv2[:, None] * twist \
        + 0.25 * (hinv2 * (-2.0 + 4.0 * h - 3.0 * gh2 * hinv))[:, None] * fg
    res = {"sum_identity": relative_residual(E + D, rhs1)}

    f = 0.5 + h + 0.25 * gh2 * hinv
    # df(e_b) = dh(e_b)(1 - |gh|^2/(4h^2)) + (1/2h) sum_a Hdh(e_b, e_a) dh(e_a)
    df = fg * (1.0 - 0.25 * gh2 * hinv2)[:, None] + 0.5 * hinv[:, None] * hess_gh
    rhs2 = h[:, None] * (E + D) - hinv[:, None] * twist \
        + (hinv * f)[:, None] * fg
    res["f_differential"] = relative_residual(2.0 * df, rhs2)
    return ResidualReport(res)


# ---------------------------------------------------------------------------
# the quadratic form of the divergence theorem


def q_quadratic_form(blocks) -> float:
    """h <QV, V> without the h: sum_{rs} Q[r,s] <V_r, V_s> over the seven
    blocks V = (E, D1, D2, D3, A1, A2, A3), each a 4n-vector."""
    from .qmatrix import q_float

    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if len(blocks) != 7:
        raise ValueError("expected 7 blocks (E, D1..D3, A1..A3)")
    Q = q_float()
    total = 0.0
    for r in range(7):
        for s in range(7):
            if Q[r, s]:
                total += Q[r, s] * float(blocks[r] @ blocks[s])
    return total
