"""Order-2 jet arithmetic and scalar fields on R^d.

A Jet2 carries the truncated Taylor data (value, gradient, Hessian) of a
scalar function at a batch of points, and the arithmetic below (add, sub,
mul, div, pow_real, log) propagates that data by the chain and Leibniz
rules. All first and second order differential operators in the toolkit
(horizontal gradient, sub-Laplacian, frame Hessian) are evaluated from
ambient jets, so exactness here is what makes the identity checks sharp.
A field whose derivatives are known in closed form (the extremal h and the
bump window in yamabe) writes its Jet2 directly instead of composing one
from these operations.

Storage is batched: value (N,), gradient (N, d), Hessian packed as the upper
triangle (N, d(d+1)/2). Packing keeps symmetry true by construction through
every operation; full matrices are materialized only on demand. The dtype is
whatever the caller supplies, float64 for the numeric paths and object
(fractions.Fraction) for the exact ones; no operation below ever leaves the
scalar type it was given, except where a genuinely real exponent forces
floats.

An independent finite-difference oracle (Richardson-extrapolated central
differences) lives at the bottom; tests use it to cross-check every jet
pipeline without sharing any code with it.
"""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """A jet operation hit a degenerate point (division by zero value,
    non-positive base for pow_real/log). Signals a bad evaluation point,
    e.g. h <= 0; never clamped."""


def _triu(dim):
    return np.triu_indices(dim)


def pack_sym(full):
    """Pack (..., d, d) symmetric matrices to upper-triangle (..., d(d+1)/2)."""
    d = full.shape[-1]
    iu0, iu1 = _triu(d)
    return full[..., iu0, iu1]


def unpack_sym(packed, dim):
    """Inverse of pack_sym."""
    iu0, iu1 = _triu(dim)
    shape = packed.shape[:-1] + (dim, dim)
    full = np.zeros(shape, dtype=packed.dtype)
    full[..., iu0, iu1] = packed
    full[..., iu1, iu0] = packed
    return full


def _sym_outer_packed(g1, g2, iu0, iu1):
    """Packed form of g1 (x) g2 + g2 (x) g1 for batched gradients (N, d)."""
    return g1[:, iu0] * g2[:, iu1] + g1[:, iu1] * g2[:, iu0]


class Jet2:
    """Batched order-2 jets: value (N,), grad (N, d), hess packed or None.

    hess is None for order-1 jets (quadrature paths that only need
    gradients); any arithmetic between an order-1 and an order-2 jet
    truncates to order 1.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess=None):
        self.value = np.asarray(value)
        self.grad = np.asarray(grad)
        self.hess = hess if hess is None else np.asarray(hess)

    # -- structure ----------------------------------------------------------

    @property
    def n(self):
        return self.value.shape[0]

    @property
    def dim(self):
        return self.grad.shape[1]

    @property
    def order(self):
        return 1 if self.hess is None else 2

    def hess_full(self):
        if self.hess is None:
            raise ValueError("order-1 jet has no Hessian")
        return unpack_sym(self.hess, self.dim)

    def _pair_hess(self, other):
        if self.hess is None or other.hess is None:
            return None, None
        return self.hess, other.hess

    # -- linear ops ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            ha, hb = self._pair_hess(other)
            return Jet2(self.value + other.value, self.grad + other.grad,
                        None if ha is None else ha + hb)
        return Jet2(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            ha, hb = self._pair_hess(other)
            return Jet2(self.value - other.value, self.grad - other.grad,
                        None if ha is None else ha - hb)
        return Jet2(self.value - other, self.grad, self.hess)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet2(-self.value, -self.grad,
                    None if self.hess is None else -self.hess)

    # -- products ------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Jet2):
            ha, hb = self._pair_hess(other)
            value = self.value * other.value
            grad = self.grad * other.value[:, None] + other.grad * self.value[:, None]
            if ha is None:
                return Jet2(value, grad, None)
            iu0, iu1 = _triu(self.dim)
            hess = (ha * other.value[:, None] + hb * self.value[:, None]
                    + _sym_outer_packed(self.grad, other.grad, iu0, iu1))
            return Jet2(value, grad, hess)
        return Jet2(self.value * other, self.grad * other,
                    None if self.hess is None else self.hess * other)

    __rmul__ = __mul__

    def reciprocal(self):
        if np.any(self.value == 0):
            raise DomainError("division by a jet with zero value")
        v = 1 / self.value
        v2 = v * v
        grad = -self.grad * v2[:, None]
        if self.hess is None:
            return Jet2(v, grad, None)
        iu0, iu1 = _triu(self.dim)
        hess = (-self.hess * v2[:, None]
                + (v2 * v)[:, None] * _sym_outer_packed(self.grad, self.grad, iu0, iu1))
        return Jet2(v, grad, hess)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        return self * (1 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- real powers and log ---------------------------------------------------

    def pow_real(self, alpha):
        """self ** alpha for real alpha; requires strictly positive values."""
        if np.any(self.value <= 0):
            raise DomainError("pow_real needs a strictly positive base")
        v = self.value ** alpha
        d1 = alpha * self.value ** (alpha - 1)
        grad = d1[:, None] * self.grad
        if self.hess is None:
            return Jet2(v, grad, None)
        d2 = alpha * (alpha - 1) * self.value ** (alpha - 2)
        iu0, iu1 = _triu(self.dim)
        gg = self.grad[:, iu0] * self.grad[:, iu1]
        return Jet2(v, grad, d1[:, None] * self.hess + d2[:, None] * gg)

    def log(self):
        if np.any(self.value <= 0):
            raise DomainError("log needs a strictly positive argument")
        v = np.log(self.value)
        inv = 1 / self.value
        grad = inv[:, None] * self.grad
        if self.hess is None:
            return Jet2(v, grad, None)
        iu0, iu1 = _triu(self.dim)
        gg = self.grad[:, iu0] * self.grad[:, iu1]
        return Jet2(v, grad, inv[:, None] * self.hess - (inv * inv)[:, None] * gg)


def coordinate_jets(points, order=2):
    """Jets of the d coordinate functions at each row of points (N, d)."""
    points = np.asarray(points)
    n, d = points.shape
    out = []
    npack = d * (d + 1) // 2
    for i in range(d):
        grad = np.zeros((n, d), dtype=points.dtype)
        grad[:, i] = 1
        hess = None if order == 1 else np.zeros((n, npack), dtype=points.dtype)
        out.append(Jet2(points[:, i].copy(), grad, hess))
    return out


# ---------------------------------------------------------------------------
# scalar fields


class ScalarField:
    """A map from points of R^d to jets. Subclasses implement jets()."""

    dim = None

    def jets(self, points, order=2) -> Jet2:
        raise NotImplementedError

    def values(self, points):
        return self.jets(points, order=1).value


class PolynomialField(ScalarField):
    """sum_k c_k x^{alpha_k} with analytic (not jet-propagated) derivatives.

    monomials maps exponent tuples to coefficients. Because the derivatives
    are written out directly from the exponents, this class doubles as an
    independent oracle for jet-arithmetic pipelines, and it is exact when the
    coefficients and evaluation points are Fractions.
    """

    def __init__(self, dim, monomials):
        self.dim = dim
        self.monomials = {tuple(k): v for k, v in monomials.items() if v != 0}
        for k in self.monomials:
            if len(k) != dim:
                raise ValueError("exponent tuple length must equal dim")

    def jets(self, points, order=2):
        points = np.asarray(points)
        n, d = points.shape
        if d != self.dim:
            raise ValueError("point dimension mismatch")
        if points.dtype == object:
            from fractions import Fraction
            zero = Fraction(0)
            value = np.full(n, zero, dtype=object)
            grad = np.full((n, d), zero, dtype=object)
            hess = None if order == 1 else np.full((n, d, d), zero, dtype=object)
        else:
            value = np.zeros(n, dtype=points.dtype)
            grad = np.zeros((n, d), dtype=points.dtype)
            hess = None if order == 1 else np.zeros((n, d, d), dtype=points.dtype)

        for expo, coef in self.monomials.items():
            term = coef * self._power(points, expo)
            value = value + term
            for i, ei in enumerate(expo):
                if ei == 0:
                    continue
                de = list(expo)
                de[i] -= 1
                dterm = coef * ei * self._power(points, de)
                grad[:, i] = grad[:, i] + dterm
                if hess is None:
                    continue
                for j in range(i, d):
                    ej = de[j]
                    if ej == 0:
                        continue
                    dde = list(de)
                    dde[j] -= 1
                    hterm = coef * ei * ej * self._power(points, dde)
                    hess[:, i, j] = hess[:, i, j] + hterm
                    if j != i:
                        hess[:, j, i] = hess[:, j, i] + hterm
        packed = None if hess is None else pack_sym(hess)
        return Jet2(value, grad, packed)

    @staticmethod
    def _power(points, expo):
        out = None
        for i, e in enumerate(expo):
            if e == 0:
                continue
            p = points[:, i] ** e
            out = p if out is None else out * p
        if out is None:
            one = points[:, 0] * 0 + 1
            return one
        return out

    def values(self, points):
        points = np.asarray(points)
        if points.dtype == object:
            value = points[:, 0] * 0
        else:
            value = np.zeros(points.shape[0], dtype=points.dtype)
        for expo, coef in self.monomials.items():
            value = value + coef * self._power(points, expo)
        return value


class JetField(ScalarField):
    """Adapter turning a jet-building callable (points, order) -> Jet2 into
    a ScalarField."""

    def __init__(self, dim, builder):
        self.dim = dim
        self._builder = builder

    def jets(self, points, order=2):
        return self._builder(np.asarray(points), order)


class AffineMapField(ScalarField):
    """scale * u(A p + b): the pullback of a field under an affine map.

    Covers left translations (A = I plus the twist rows) and parabolic
    dilations (diagonal A) of group-based fields; the chain rule for an
    affine map is exact, grad = A^T grad u, hess = A^T (hess u) A.
    """

    def __init__(self, base: ScalarField, matrix, offset, scale=1.0):
        self.base = base
        self.matrix = np.asarray(matrix)
        self.offset = np.asarray(offset)
        self.scale = scale
        self.dim = self.matrix.shape[1]

    def jets(self, points, order=2):
        points = np.asarray(points)
        # einsum, not matmul: a thin (N, d) product would start BLAS threads
        mapped = np.einsum("nj,ij->ni", points, self.matrix) + self.offset
        ju = self.base.jets(mapped, order=order)
        value = self.scale * ju.value
        grad = self.scale * np.einsum("ni,ij->nj", ju.grad, self.matrix)
        if ju.hess is None:
            return Jet2(value, grad, None)
        full = self.scale * np.einsum(
            "ia,nij,jb->nab", self.matrix, ju.hess_full(), self.matrix)
        # A^T H A is symmetric up to roundoff-free reordering; resymmetrize
        # explicitly so packing stays exact.
        full = (full + np.swapaxes(full, 1, 2)) / 2
        return Jet2(value, grad, pack_sym(full))


class CombinationField(ScalarField):
    """A fixed linear combination sum_k c_k u_k of fields on one domain."""

    def __init__(self, fields, coeffs):
        if not fields or len(fields) != len(coeffs):
            raise ValueError("need one coefficient per field")
        dims = {f.dim for f in fields}
        if len(dims) != 1:
            raise ValueError("fields live on different dimensions")
        self.fields = list(fields)
        self.coeffs = [float(c) for c in coeffs]
        self.dim = fields[0].dim

    def jets(self, points, order=2):
        points = np.asarray(points)
        total = None
        for c, f in zip(self.coeffs, self.fields):
            term = f.jets(points, order=order) * c
            total = term if total is None else total + term
        return total


def random_positive_polynomial(dim, rng, degree=3, terms=10, box=2.0):
    """A random polynomial bounded below by 1 on [-box, box]^dim.

    Draws `terms` monomials of total degree 1..degree with coefficients
    scaled so their worst-case sum on the box stays below half the constant
    term; used for the identity suites and the non-extremal negative
    controls, where h must stay strictly positive at every test point.
    """
    c0 = float(rng.uniform(2.0, 4.0))
    monomials = {}
    budget = c0 / 2
    raw = []
    for _ in range(terms):
        total = int(rng.integers(1, degree + 1))
        expo = [0] * dim
        for _ in range(total):
            expo[int(rng.integers(0, dim))] += 1
        coef = float(rng.normal())
        raw.append((tuple(expo), coef))
    worst = sum(abs(c) * box ** sum(e) for e, c in raw)
    scale = budget / worst if worst > 0 else 0.0
    for expo, coef in raw:
        monomials[expo] = monomials.get(expo, 0.0) + coef * scale
    monomials[tuple([0] * dim)] = c0
    return PolynomialField(dim, monomials)


# ---------------------------------------------------------------------------
# finite-difference oracle


def fd_oracle(field, points, step=1e-4) -> Jet2:
    """Central-difference jets with one Richardson extrapolation step.

    Uses only field.values (or a plain callable points -> values), so it
    shares no derivative code with the jet pipelines. The extrapolated
    stencils are fourth order in step on smooth fields: gradients combine
    (4 D(step/2) - D(step))/3 and likewise for the pure and mixed second
    differences.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    evaluate = field.values if isinstance(field, ScalarField) else field
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    value = np.asarray(evaluate(points), dtype=float)
    grad = np.zeros((n, d))
    hess = np.zeros((n, d, d))

    def shift(i, s):
        out = points.copy()
        out[:, i] += s
        return np.asarray(evaluate(out), dtype=float)

    def shift2(i, si, j, sj):
        out = points.copy()
        out[:, i] += si
        out[:, j] += sj
        return np.asarray(evaluate(out), dtype=float)

    for i in range(d):
        def d1(s):
            return (shift(i, s) - shift(i, -s)) / (2 * s)

        def d2(s):
            return (shift(i, s) - 2 * value + shift(i, -s)) / (s * s)

        grad[:, i] = (4 * d1(step / 2) - d1(step)) / 3
        hess[:, i, i] = (4 * d2(step / 2) - d2(step)) / 3

    for i in range(d):
        for j in range(i + 1, d):
            def mixed(s):
                return (shift2(i, s, j, s) - shift2(i, s, j, -s)
                        - shift2(i, -s, j, s) + shift2(i, -s, j, -s)) / (4 * s * s)

            mij = (4 * mixed(step / 2) - mixed(step)) / 3
            hess[:, i, j] = mij
            hess[:, j, i] = mij

    return Jet2(value, grad, pack_sym(hess))
