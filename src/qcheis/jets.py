"""Order-2 jet arithmetic and scalar fields on R^d.

A Jet2 carries the truncated Taylor data (value, gradient, Hessian) of a
scalar function at a batch of points, and the arithmetic below (add, sub,
mul, pow_real) propagates that data by the chain and Leibniz rules. All
first and second order differential operators in the toolkit (horizontal
gradient, sub-Laplacian, frame Hessian) are evaluated from ambient jets, so
exactness here is what makes the identity checks sharp. A field whose
derivatives are known in closed form (the extremal h and the bump window in
yamabe) writes its Jet2 directly instead of composing one from these
operations.

Storage is batched: value (N,), gradient (N, d), Hessian (N, d, d). Every
Hessian is exactly symmetric, H[:, i, j] == H[:, j, i] bit for bit: each
producer forms an outer product as x[:, :, None] * x[:, None, :] before it
scales it, adds only symmetric pieces, and adds a matrix that may not be
symmetric to its own transpose. The frame calculus relies on this. The dtype is whatever the caller
supplies, float64 for the numeric paths and object (fractions.Fraction)
for the exact ones; no operation below ever leaves the scalar type it was
given, except where a genuinely real exponent forces floats.

An independent finite-difference oracle (Richardson-extrapolated central
differences) lives at the bottom; tests use it to cross-check every jet
pipeline without sharing any code with it.
"""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """A jet operation hit a degenerate point (a non-positive base for
    pow_real). Signals a bad evaluation point, e.g. h <= 0; never
    clamped."""


class Jet2:
    """Batched order-2 jets: value (N,), grad (N, d), hess (N, d, d) or None.

    hess is None for order-1 jets (quadrature paths that only need
    gradients); any arithmetic between an order-1 and an order-2 jet
    truncates to order 1. An order-2 hess is exactly symmetric, and every
    operation below keeps it so.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess=None):
        self.value = np.asarray(value)
        self.grad = np.asarray(grad)
        self.hess = hess if hess is None else np.asarray(hess)

    # -- structure ----------------------------------------------------------

    @property
    def order(self):
        return 1 if self.hess is None else 2

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
            # a_i b_j + b_i a_j is symmetric bit for bit, as each sum
            # adds the same two products
            ga, gb = self.grad, other.grad
            hess = (ha * other.value[:, None, None] + hb * self.value[:, None, None]
                    + (ga[:, :, None] * gb[:, None, :] + gb[:, :, None] * ga[:, None, :]))
            return Jet2(value, grad, hess)
        return Jet2(self.value * other, self.grad * other,
                    None if self.hess is None else self.hess * other)

    __rmul__ = __mul__

    # -- real powers -----------------------------------------------------------

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
        # in place: this is the largest array on the order-2 scan path,
        # and d1 H + d2 g g^T out of place would hold two more of its size
        hess = self.grad[:, :, None] * self.grad[:, None, :]
        hess *= d2[:, None, None]
        hess += d1[:, None, None] * self.hess
        return Jet2(v, grad, hess)


def coordinate_jets(points, order=2):
    """Jets of the d coordinate functions at each row of points (N, d)."""
    points = np.asarray(points)
    n, d = points.shape
    out = []
    for i in range(d):
        grad = np.zeros((n, d), dtype=points.dtype)
        grad[:, i] = 1
        hess = None if order == 1 else np.zeros((n, d, d), dtype=points.dtype)
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
        return Jet2(value, grad, hess)

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
        # BLAS products: a row's jet may move at round-off with the size of
        # its batch, so a field reproduces its jets bit for bit only on the
        # same batches (the functional evaluates whole node chunks)
        mapped = points @ self.matrix.T + self.offset
        ju = self.base.jets(mapped, order=order)
        value = self.scale * ju.value
        grad = self.scale * (ju.grad @ self.matrix)
        if ju.hess is None:
            return Jet2(value, grad, None)
        hess = self.scale * np.einsum(
            "ia,nij,jb->nab", self.matrix, ju.hess, self.matrix)
        # the einsum may sum the (a, b) and (b, a) entries of A^T H A in
        # different orders; averaging with the transpose keeps the Hessian
        # exactly symmetric
        hess = (hess + np.swapaxes(hess, 1, 2)) / 2
        return Jet2(value, grad, hess)


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

    return Jet2(value, grad, hess)
