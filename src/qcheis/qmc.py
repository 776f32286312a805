"""The quasi-Monte Carlo node pass behind the Folland-Stein ratio.

An integral over the group (Lebesgue measure) becomes a weighted average
over the unit cube. _polar_nodes maps the cube in Hopf coordinates per
quaternion slot: each slot is a radius times a uniform point of the
3-sphere, the vertical part a radius times a uniform point of the 2-sphere
(cylinder map), and only the n + 1 radii, through half-Cauchy quantiles,
carry unbounded weight factors. Each field moves these polar nodes z by
its own map center + B z, which a two-stage pilot fits to the mean and
covariance of its density |u|^{2*} (adapted_map). The exponent 2* is never
passed in: each function takes it from n, or from the frame's n, through
heis.exponents.

The nodes are streamed (scramble_sums): each scramble's Sobol points, bit
for bit scipy.stats.qmc.Sobol's, are drawn _CHUNK rows at a time and mapped
to polar nodes once, and every target maps a chunk its own way. A chunk is
coordinate-major: each field sees the (N, d) view of a (d, N) array, so
every numpy call loops over a whole coordinate row.
"""

from __future__ import annotations

import math

import numpy as np

from .heis import HorizontalFrame, exponents, horizontal_gradient
from .jets import DomainError, lane_sum

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

    The direction numbers are Joe and Kuo's (SIAM J. Sci. Comput. 30,
    2008), the scramble a random lower-triangular linear matrix and a
    digital shift (Matousek 1998), in Gray-code order: point k is shift ^
    XOR of the direction numbers at the set bits of k ^ (k >> 1), scaled by
    2^-30. Each chunk is two gathers from XOR tables over the low and the
    high half of the index bits, one XOR and one multiply, one coordinate
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
    coordinates. A slot's point of the 3-sphere is (sqrt(t) e^{i phi1},
    sqrt(1-t) e^{i phi2}), whose area element is the constant
    (1/2) dphi1 dphi2 dt. Returns (points (N, 4n+3), weights (N,)) with

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
# the best per-axis node scale is very close to 2 sqrt(2) times its standard
# deviation, in the horizontal and the vertical block alike, so one number
# rescales the pilot covariance into the node map.
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


def _pilot_moments(u, n, m, seed, center, B):
    """Weighted mean and covariance of the density |u|^{2*} under the node
    map center + B z; the constant det(B) cancels in the moments. u sees
    coordinate-major chunks; the moments sum over a node-major copy of the
    nodes, node by node in the order of their draw."""
    _, two_star = exponents(n)
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


def adapted_map(u, n, seed, pilot_log2):
    """The node map (center, B) of u: two pilot stages of 2^pilot_log2
    nodes each, the first from the origin to locate the mass of |u|^{2*},
    the second from its moments to refine mean and shape."""
    B0 = np.diag([1.0] * (4 * n) + [2.0] * 3)
    c, cov = _pilot_moments(u, n, pilot_log2, seed + 17,
                            np.zeros(4 * n + 3), B0)
    c, cov = _pilot_moments(u, n, pilot_log2, seed + 18,
                            c, _KAPPA * np.linalg.cholesky(cov))
    return c, _KAPPA * np.linalg.cholesky(cov)


def _chunk_sums(target, work, z, wts, frame, pairs, k):
    """One chunk's sums on the target (u, center, B)'s nodes center + B z,
    as a (1 + k, 3) array: a row for u, then one per perturbed field, each
    holding the sums of |grad_H f|^2 w and |f|^{2*} w and the number of
    nodes where the perturbation is nonzero (0 for u).

    pairs(P, u's jets) gives the (perturbation, node) pairs ks, rows, the
    nodes there (d, pairs), the perturbed value and coordinate-major
    gradient there, and the nonzero mask; elsewhere a perturbed field is u.
    Every row of a (1 + k, N) array in work starts as u's integrand, the
    pairs' are written over it, and every row is summed alike, so each sum
    equals that of its field evaluated at every node.
    """
    u, center, B = target
    _, two_star = exponents(frame.n)
    P = _mapped_nodes(B, z, center)
    N = P.shape[1]
    ju = u.jets(P.T, order=1)
    fg = horizontal_gradient(frame, P.T, ju.grad).T
    num, den = work[:2 * (1 + k) * N].reshape(2, 1 + k, -1)
    num[:] = lane_sum(fg * fg) * wts
    den[:] = np.abs(ju.value) ** two_star * wts
    out = np.zeros((1 + k, 3))
    if k:
        ks, rows, at, value, grad, nonzero = pairs(P, ju)
        out[1:, 2] = np.bincount(ks[nonzero], minlength=k)
        fg = horizontal_gradient(frame, at.T, grad.T).T
        num[1 + ks, rows] = lane_sum(fg * fg) * wts[rows]
        den[1 + ks, rows] = np.abs(value) ** two_star * wts[rows]
    out[:, 0], out[:, 1] = num.sum(axis=1), den.sum(axis=1)
    return out


def scramble_sums(targets, n, m, seed, pairs=None, k=0):
    """The sums of every target (u, center, B) over two scrambles, seed and
    seed + 1, of 2^m nodes each; only the first target carries the k
    perturbations of pairs (_chunk_sums). Per target, one row per field (u,
    then the perturbed ones), each row one [num, den, nodes] list per
    scramble: the math.fsum over the chunks of _chunk_sums' columns. num
    and den are sums over the 2^m nodes, before the factor |det B| / 2^m."""
    frame = HorizontalFrame(n)
    # per target, the num and den rows every chunk reuses: arrays of that
    # size allocated afresh are faulted in again on every chunk
    rows = 2 * min(_CHUNK, 2 ** m)
    work = [np.empty(rows * (1 + k))] + [np.empty(rows) for _ in targets[1:]]
    passes = []
    for s in (seed, seed + 1):
        sums = [[] for _ in targets]
        for unit in _sobol_chunks(4 * n + 3, m, s, _CHUNK):
            z, wts = _polar_nodes(unit, n)
            for j, (target, buf) in enumerate(zip(targets, work)):
                sums[j].append(_chunk_sums(target, buf, z, wts, frame,
                                           pairs, 0 if j else k))
        passes.append([[[math.fsum(c) for c in field]
                        for field in np.array(chunks).transpose(1, 2, 0)]
                       for chunks in sums])
    return [list(zip(*fields)) for fields in zip(*passes)]
