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

Every array may carry a leading batch axis: TorsionData for N samples holds
T0 and U as (N, 4n, 4n), dh as (N, 4n), dhxi as (N, 3) and h as (N,), and
what is built from it gains the same axis. A single sample runs the same
code without that axis, and each row of a batch equals its single result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heis import HorizontalFrame, frame_second_order
from .jets import DomainError, ScalarField

_FLOOR = 1e-30


def relative_residual(lhs, rhs):
    """max |lhs - rhs| over max(|lhs|, |rhs|, floor) along the last axis.

    Scale-free row by row: each row has its own scale, never the batch's,
    so it gets the residual it gets alone. Ravel both sides for one total.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scale = np.maximum(np.maximum(np.max(np.abs(lhs), axis=-1, initial=0.0),
                                  np.max(np.abs(rhs), axis=-1, initial=0.0)),
                       _FLOOR)
    return np.max(np.abs(lhs - rhs), axis=-1) / scale


@dataclass
class ResidualReport:
    residuals: dict

    @property
    def max_residual(self):
        return max(np.max(v) for v in self.residuals.values())


# ---------------------------------------------------------------------------
# projections


def _casimir_sum(P, Is):
    """sum_s P(I_s., I_s.) for a single (4n, 4n) P or a batch (N, 4n, 4n);
    the matmuls broadcast the constant I_s over the batch. Each term is
    formed in two work arrays and added into S, from zero, as sum() adds."""
    S = np.zeros(np.shape(P), np.result_type(P, Is))
    left = term = None
    for I in Is:
        left = np.matmul(I.T, P, out=left)
        term = np.matmul(left, I, out=term)
        S += term
    return S


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
    minus_one = np.multiply(P, 3.0)
    minus_one -= S
    minus_one /= 4.0
    S += P
    S /= 4.0
    return S, minus_one


def trace_free(P, frame: HorizontalFrame):
    """P minus its trace part (tr P / 4n) Id, for one form or a batch."""
    out = np.array(P, dtype=float)
    diag = np.arange(frame.nh)
    out[..., diag, diag] -= np.trace(out, axis1=-2, axis2=-1)[..., None] / frame.nh
    return out


# ---------------------------------------------------------------------------
# torsion data


@dataclass
class TorsionData:
    """Abstract inputs for the identity suite, not tied to a group point.

    T0 is of type [-1], U of type [3] and trace-free, dh holds the frame
    components of the horizontal gradient, dhxi the three vertical
    derivatives, h the (positive) value of the conformal factor. A batch
    of N samples stacks each field along a leading axis; h is then (N,).
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
        T0, U = self.T0, self.U
        checks = {}
        checks["T0_symmetric"] = np.max(np.abs(T0 - np.swapaxes(T0, -1, -2)))
        checks["U_symmetric"] = np.max(np.abs(U - np.swapaxes(U, -1, -2)))
        checks["T0_minus_one_type"] = np.max(np.abs(T0 + _casimir_sum(T0, Is)))
        # Casimir eigenvalue 3 is invariance under each I_s
        checks["U_three_type"] = np.max(np.abs(_casimir_sum(U, Is) - 3.0 * U))
        checks["U_trace_free"] = np.max(np.abs(
            np.trace(U, axis1=-2, axis2=-1)))
        bad = {k: v for k, v in checks.items() if v > tol}
        if bad or np.any(np.asarray(self.h) <= 0):
            raise ValueError(f"invalid torsion data: {bad or 'h <= 0'}")
        return checks


def random_torsion(n, seed, frame: HorizontalFrame = None) -> TorsionData:
    """Reproducible TorsionData with dyadic entries.

    seed is one integer, or a sequence of them for a batch along a leading
    axis. Each sample has its own default_rng(seed), so each row of a batch
    is bit-identical to the single draw from its seed.

    Entries are multiples of 1/16, so the projections (divisions by 4 and,
    for the trace part, by 4n with n <= 2) stay exact in double precision
    and the type invariants hold with zero error, not just small error.
    For n = 1 the trace-free [3]-projection of any symmetric matrix
    vanishes identically, so U comes out exactly zero. Pass the caller's
    frame to skip building one per call.
    """
    single = np.ndim(seed) == 0
    frame = frame or HorizontalFrame(n)
    nh = 4 * n
    draws = []
    for s in ([seed] if single else seed):
        rng = np.random.default_rng(s)
        # one call per field, in this order: the streams depend on it
        draws.append((rng.integers(-24, 25, size=(nh, nh)),
                      rng.integers(-24, 25, size=(nh, nh)),
                      rng.integers(-24, 25, size=nh),
                      rng.integers(-24, 25, size=3),
                      rng.integers(0, 33)))
    S1, S2, dh, dhxi, h = (np.array(field) / 16.0 for field in zip(*draws))
    S1, S2 = ((S + np.swapaxes(S, -1, -2)) / 2.0 for S in (S1, S2))
    _, T0 = project_3_m1(S1, frame)
    U3, _ = project_3_m1(S2, frame)
    fields = dict(T0=T0, U=trace_free(U3, frame), dh=dh, dhxi=dhxi, h=1.0 + h)
    if single:
        fields = {key: value[0] for key, value in fields.items()}
    return TorsionData(n=n, **fields)


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


def _apply(M, v):
    """M v, row by row over leading batch axes of either operand; each row
    is the same matmul call as a single sample's."""
    return (M @ v[..., None])[..., 0]


def _dot(u, v):
    """u . v row by row, by the same matmul call as for one pair."""
    return _apply(u[..., None, :], v)[..., 0]


def aux_forms_from_torsion(td: TorsionData, frame: HorizontalFrame = None) -> AuxForms:
    frame = frame or HorizontalFrame(td.n)
    Is = frame.Is
    dh, T0 = td.dh, td.T0
    h = np.asarray(td.h)[..., None]
    # I_s^T T0 I_s dh as three products on vectors
    Ds = [-(_apply(T0, dh) + _apply(I.T, _apply(T0, _apply(I, dh))))
          / (2.0 * h) for I in Is]
    D = Ds[0] + Ds[1] + Ds[2]
    E = _apply(ebold_from_u(td.U), dh) / h
    Fs = [-_apply(T0, _apply(I, dh)) / h for I in Is]
    f = 0.5 + td.h + 0.25 * _dot(dh, dh) / td.h
    return AuxForms(D1=Ds[0], D2=Ds[1], D3=Ds[2], D=D, E=E,
                    F1=Fs[0], F2=Fs[1], F3=Fs[2], f=f)


def f_alternative_from_ds(aux: AuxForms, frame: HorizontalFrame):
    """F_i(X) = -D_i(I_i X) + D_j(I_i X) + D_k(I_i X), cyclic in (i,j,k).

    Returns the three vectors built from the D_s, for cross-checking the
    directly computed F_s.
    """
    Is = frame.Is
    Ds = aux.Ds
    return [_apply(Is[i].T, -Ds[i] + Ds[j] + Ds[k])
            for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]


# ---------------------------------------------------------------------------
# the (0,3)-tensors


def _paired_tensor(v, T, Is):
    """v(X)T(Y,Z) + v(Y)T(X,Z) + sum_s [same with X,Y twisted by I_s]."""
    def pair(v, T):
        return (v[..., :, None, None] * T[..., None, :, :]
                + v[..., None, :, None] * T[..., :, None, :])

    out = pair(v, T)
    for I in Is:
        out += pair(_apply(I.T, v), I.T @ T)
    return out


def dd_ee_tensors(td: TorsionData, frame: HorizontalFrame = None):
    """The (0,3)-tensors built from T0 and EE = -2U.

    DD = -(1/8h) * paired(dh, T0), EE3 = +(1/8h) * paired(dh, EE). Both are
    symmetric in their first two slots by construction.
    """
    frame = frame or HorizontalFrame(td.n)
    Is = frame.Is
    h = np.asarray(td.h)[..., None, None, None]
    DD = -_paired_tensor(td.dh, td.T0, Is) / (8.0 * h)
    EE3 = _paired_tensor(td.dh, ebold_from_u(td.U), Is) / (8.0 * h)
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

    def norm2(X, Y, ndim=3):
        # a plain sum of products over the trailing axes; einsum sums in
        # another order and moves the residuals at round-off
        return np.sum(X * Y, axis=tuple(range(-ndim, 0)))

    D1, D2, D3 = aux.Ds
    dh2 = _dot(dh, dh)
    t0n2 = norm2(td.T0, td.T0, 2)
    een2 = norm2(EE, EE, 2)
    dnorms = sum(_dot(d, d) for d in aux.Ds)
    dcross = _dot(D1, D2) + _dot(D1, D3) + _dot(D2, D3)
    en2 = _dot(aux.E, aux.E)
    eds = sum(_dot(aux.E, d) for d in aux.Ds)
    mix = DD + EE3
    sides = {
        "dd_norm": (norm2(DD, DD),
                    dh2 * t0n2 / (8 * h * h) - 0.25 * dnorms + 0.5 * dcross),
        "ee_norm": (norm2(EE3, EE3), dh2 * een2 / (8 * h * h) - 0.25 * en2),
        "dd_dot_ee": (norm2(DD, EE3), 0.25 * eds),
        "combined": (dh2 * (t0n2 + een2) / (4 * h * h),
                     2.0 * norm2(mix, mix) - eds + 0.5 * en2 + 0.5 * dnorms
                     - dcross),
    }
    # one scalar per sample: a trailing axis of length one makes each its
    # own row, scaled by itself
    return ResidualReport({
        key: relative_residual(np.asarray(lhs)[..., None],
                               np.asarray(rhs)[..., None])
        for key, (lhs, rhs) in sides.items()})


# ---------------------------------------------------------------------------
# formal h-jet formulas
#
# These transcribe the one-forms D and E as expressions in the 2-jet of h.
# Their derivations use the normalization Scal = 16n(n+2) of a curved
# structure, so they are NOT pointwise assertions on the flat group; what
# is asserted (universal_identity_suite) are their derivation-independent
# consequences, which are jet-level algebraic identities.


def _twist(xi, v, Is):
    """sum_s xi_s I_s^T v row by row; for v = dh, sum_s dh(xi_s) dh(I_s .)."""
    return sum(xi[..., s, None] * _apply(I.T, v) for s, I in enumerate(Is))


def d_from_h_jet(fg, fh, xi, h, frame: HorizontalFrame):
    """D(e_a) = (1/4)h^-2 (3 Hdh(e_a, gh) - sum_s Hdh(I_s e_a, I_s gh))
    + h^-2 sum_s dh(xi_s) dh(I_s e_a), with Hdh the frame Hessian."""
    hinv2 = 1.0 / (h * h)
    main = 3.0 * _apply(fh, fg) - _apply(_casimir_sum(fh, frame.Is), fg)
    return (0.25 * hinv2[:, None] * main
            + hinv2[:, None] * _twist(xi, fg, frame.Is))


def e_from_h_jet(fg, fh, xi, h, frame: HorizontalFrame):
    """E(e_a) = (1/4)h^-2 [Hdh(e_a, gh) + sum_s Hdh(I_s e_a, I_s gh)
    + (-2 + 4h - 3 h^-1 |gh|^2) dh(e_a)]."""
    hinv2 = 1.0 / (h * h)
    main = _apply(fh, fg) + _apply(_casimir_sum(fh, frame.Is), fg)
    coef = -2.0 + 4.0 * h - 3.0 * _dot(fg, fg) / h
    return 0.25 * hinv2[:, None] * (main + coef[:, None] * fg)


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
    Their twist sum_s dh(xi_s) dh(I_s .) comes from the frame bracket,
    -(antisymmetric part of Hdh)(., gh), not from D's _twist, so a wrong
    twist in D shows.
    """
    h, fg, fh, xi = frame_second_order(h_field, points, frame)
    if np.any(h <= 0):
        raise DomainError("h must be positive on the evaluation points")

    D = d_from_h_jet(fg, fh, xi, h, frame)
    E = e_from_h_jet(fg, fh, xi, h, frame)

    hinv = 1.0 / h
    hinv2 = hinv * hinv
    gh2 = _dot(fg, fg)
    hess_gh = _apply(fh, fg)
    twist = -_apply((fh - np.swapaxes(fh, 1, 2)) / 2.0, fg)

    rhs1 = hinv2[:, None] * hess_gh + hinv2[:, None] * twist \
        + 0.25 * (hinv2 * (-2.0 + 4.0 * h - 3.0 * gh2 * hinv))[:, None] * fg
    res = {"sum_identity": relative_residual((E + D).ravel(), rhs1.ravel())}

    f = 0.5 + h + 0.25 * gh2 * hinv
    # df(e_b) = dh(e_b)(1 - |gh|^2/(4h^2)) + (1/2h) sum_a Hdh(e_b, e_a) dh(e_a)
    df = fg * (1.0 - 0.25 * gh2 * hinv2)[:, None] + 0.5 * hinv[:, None] * hess_gh
    rhs2 = h[:, None] * (E + D) - hinv[:, None] * twist \
        + (hinv * f)[:, None] * fg
    res["f_differential"] = relative_residual((2.0 * df).ravel(), rhs2.ravel())
    return ResidualReport(res)
