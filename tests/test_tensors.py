"""Casimir projections, torsion data, auxiliary one-forms, and the
identity suites they must satisfy."""

import numpy as np
import pytest

from qcheis.heis import GroupPoint, HorizontalFrame, frame_second_order
from qcheis.jets import random_positive_polynomial
from qcheis.tensors import (TorsionData, _casimir_sum, aux_forms_from_torsion,
                            dd_ee_tensors,
                            d_from_h_jet, e_from_h_jet, ebold_from_u,
                            f_alternative_from_ds,
                            dd_ee_identity_check, project_3_m1,
                            random_torsion,
                            relative_residual, trace_free,
                            universal_identity_suite)
from qcheis.yamabe import ExtremalParams, h_explicit


def _random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    P = rng.integers(-32, 33, size=(4 * n, 4 * n)) / 16.0
    return (P + P.T) / 2.0


@pytest.mark.parametrize("n", [1, 2])
def test_projection_splits_and_casimir_eigenvalues(n):
    frame = HorizontalFrame(n)
    P = _random_symmetric(n, 100 + n)
    P3, Pm1 = project_3_m1(P, frame)
    assert np.max(np.abs(P3 + Pm1 - P)) == 0.0

    def casimir(Q):
        S = np.zeros_like(Q)
        for I in frame.Is:
            S += I.T @ Q @ I
        return S

    # the [3] part has Casimir sum eigenvalue +3, the [-1] part -1
    assert np.max(np.abs(casimir(P3) - 3.0 * P3)) < 1e-13
    assert np.max(np.abs(casimir(Pm1) + Pm1)) < 1e-13
    # idempotence
    P3b, Pm1b = project_3_m1(P3, frame)
    assert np.max(np.abs(P3b - P3)) < 1e-15
    assert np.max(np.abs(Pm1b)) < 1e-15


@pytest.mark.parametrize("n", [1, 2])
def test_batched_casimir_sum_equals_per_matrix_loop(n):
    # the I_s are signed permutations, so every entry of I_s^T P I_s is one
    # entry of P up to sign and the batched, looped and dense einsum forms
    # agree bit for bit
    frame = HorizontalFrame(n)
    rng = np.random.default_rng(300 + n)
    sym = np.stack([_random_symmetric(n, 400 + k) for k in range(30)])
    scales = rng.integers(-8, 9, size=(30, 3)) / 4.0
    anti = np.einsum("ks,sab->kab", scales,
                     np.stack([frame.omega(s) for s in range(3)]))
    for P in (sym, anti):
        loop = np.stack([sum(I.T @ Pk @ I for I in frame.Is) for Pk in P])
        dense = sum(np.einsum("ca,ncd,db->nab", I, P, I) for I in frame.Is)
        batched = _casimir_sum(P, frame.Is)
        assert batched.shape == P.shape
        assert np.array_equal(batched, loop)
        assert np.array_equal(batched, dense)
        for Pk, Bk in zip(P, batched):
            assert np.array_equal(_casimir_sum(Pk, frame.Is), Bk)


def test_projection_rejects_asymmetric_input():
    frame = HorizontalFrame(1)
    P = np.arange(16.0).reshape(4, 4)
    with pytest.raises(ValueError):
        project_3_m1(P, frame)


@pytest.mark.parametrize("n", [1, 2])
def test_trace_free_removes_exactly_the_trace(n):
    frame = HorizontalFrame(n)
    P = _random_symmetric(n, 200 + n)
    T = trace_free(P, frame)
    assert abs(np.trace(T)) < 1e-14
    assert np.max(np.abs(P - T - np.trace(P) / (4 * n) * np.eye(4 * n))) < 1e-15


def test_three_part_trace_free_vanishes_for_n1():
    # in dimension seven the [3]-type trace-free symmetric tensors are zero,
    # which is why U drops out of every n=1 formula
    frame = HorizontalFrame(1)
    for seed in range(20):
        P = _random_symmetric(1, seed)
        P3, _ = project_3_m1(P, frame)
        assert np.max(np.abs(trace_free(P3, frame))) == 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_random_torsion_validates_exactly(n):
    for seed in range(10):
        td = random_torsion(n, seed)
        td.validate(tol=0.0)
        assert td.h > 0
        if n == 1:
            assert np.max(np.abs(td.U)) == 0.0


def test_random_torsion_is_deterministic():
    a = random_torsion(2, 7)
    b = random_torsion(2, 7)
    assert np.array_equal(a.T0, b.T0) and np.array_equal(a.U, b.U)
    assert np.array_equal(a.dh, b.dh) and a.h == b.h


@pytest.mark.parametrize("n", [1, 2])
def test_random_torsion_with_the_callers_frame_is_the_same(n):
    frame = HorizontalFrame(n)
    for seed in range(5):
        a = random_torsion(n, seed, frame=frame)
        b = random_torsion(n, seed)
        for key in ("T0", "U", "dh", "dhxi"):
            assert np.array_equal(getattr(a, key), getattr(b, key))
        assert a.h == b.h


def test_torsion_validate_rejects_wrong_type():
    frame = HorizontalFrame(2)
    td = random_torsion(2, 3)
    bad = TorsionData(n=2, T0=td.U.copy() + np.eye(8) * 0.25, U=td.U,
                      dh=td.dh, dhxi=td.dhxi, h=td.h)
    with pytest.raises(ValueError):
        bad.validate(frame)


@pytest.mark.parametrize("n", [1, 2])
def test_aux_form_structural_identities(n):
    frame = HorizontalFrame(n)
    for seed in range(25):
        td = random_torsion(n, seed)
        aux = aux_forms_from_torsion(td, frame)
        # D is the sum of its three pieces by construction of the formulas
        assert np.max(np.abs(aux.D - (aux.D1 + aux.D2 + aux.D3))) < 1e-14
        # F_i from the D_s must reproduce the directly computed F_i
        for direct, rebuilt in zip(aux.Fs, f_alternative_from_ds(aux, frame)):
            assert np.max(np.abs(direct - rebuilt)) < 1e-13
        expect_f = 0.5 + td.h + 0.25 * float(td.dh @ td.dh) / td.h
        assert abs(aux.f - expect_f) < 1e-15


def test_ebold_is_minus_two_u():
    td = random_torsion(2, 11)
    assert np.max(np.abs(ebold_from_u(td.U) + 2.0 * td.U)) == 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_dd_ee_identity_residuals_small_on_random_torsion(n):
    for seed in range(50):
        report = dd_ee_identity_check(random_torsion(n, seed))
        assert report.max_residual <= 1e-12, (seed, report.residuals)


@pytest.mark.parametrize("n", [1, 2])
def test_dd_ee_identities_exact_zero_for_zero_torsion(n):
    rng = np.random.default_rng(9)
    nh = 4 * n
    td = TorsionData(n=n, T0=np.zeros((nh, nh)), U=np.zeros((nh, nh)),
                     dh=rng.integers(-16, 17, size=nh) / 16.0,
                     dhxi=rng.integers(-16, 17, size=3) / 16.0,
                     h=1.5)
    report = dd_ee_identity_check(td)
    for name, value in report.residuals.items():
        assert value == 0.0, name


@pytest.mark.parametrize("n", [1, 2])
def test_dd_ee_pairing_symmetry(n):
    # both (0,3)-tensors are symmetric in their last two slots by the
    # symmetry of T0 and EE, and in the first two by the pairing recipe
    frame = HorizontalFrame(n)
    td = random_torsion(n, 21)
    DD, EE = dd_ee_tensors(td, frame)
    for T in (DD, EE):
        assert np.max(np.abs(T - np.swapaxes(T, 0, 1))) < 1e-15


@pytest.mark.parametrize("n", [1, 2])
def test_universal_identities_for_random_fields(n):
    d = 4 * n + 3
    frame = HorizontalFrame(n)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        h_field = random_positive_polynomial(d, rng)
        pts = rng.uniform(-2, 2, size=(50, d))
        report = universal_identity_suite(h_field, pts, frame)
        assert report.max_residual <= 1e-12, (seed, report.residuals)


@pytest.mark.parametrize("n", [1, 2])
def test_d_and_e_from_h_jet_match_four_operand_einsum(n):
    # the I_s^T Hdh I_s terms go through _casimir_sum and the twist through
    # _twist; the reference is the one-step contraction
    # sum_{b,c,d} I[b,a] Hdh[b,c] I[c,d] dh[d]. The fields are a random
    # polynomial, whose Hessian comes from its jets, and h_explicit at a
    # random base point, whose Hessian along the frame is a closed form
    d = 4 * n + 3
    frame = HorizontalFrame(n)
    rng = np.random.default_rng(50 + n)
    poly = random_positive_polynomial(d, rng)
    poly_pts = rng.uniform(-2, 2, (40, d))
    base = GroupPoint.from_flat(rng.uniform(-1, 1, size=d).tolist(), n)
    # D of h_explicit vanishes, as the family is qc-Einstein, so its bound
    # is relative to the terms that cancel rather than to itself
    cases = ((poly, poly_pts, False),
             (h_explicit(ExtremalParams(n=n, c0=0.7, sigma=1.3, base=base)),
              rng.uniform(-2, 2, (40, d)), True))
    Is = frame.Is.astype(float)
    for h_field, pts, d_vanishes in cases:
        h, fg, fh, xi = frame_second_order(h_field, pts, frame)
        twisted = sum(np.einsum("ba,nbc,cd,nd->na", I, fh, I, fg) for I in Is)
        hess_gh = np.einsum("nab,nb->na", fh, fg)
        vert = sum(xi[:, s:s + 1] * np.einsum("ba,nb->na", I, fg)
                   for s, I in enumerate(Is))
        hinv2 = (1.0 / (h * h))[:, None]
        coef = (-2.0 + 4.0 * h
                - 3.0 * np.einsum("na,na->n", fg, fg) / h)[:, None]
        d_ref = 0.25 * hinv2 * (3.0 * hess_gh - twisted) + hinv2 * vert
        e_ref = 0.25 * hinv2 * (hess_gh + twisted + coef * fg)
        d_scale = np.max(np.abs(d_ref))
        if d_vanishes:
            assert d_scale < 1e-13
            d_scale = max(np.max(np.abs(hinv2 * t))
                          for t in (hess_gh, twisted, vert))
        for got, ref, scale in (
                (d_from_h_jet(fg, fh, xi, h, frame), d_ref, d_scale),
                (e_from_h_jet(fg, fh, xi, h, frame), e_ref,
                 np.max(np.abs(e_ref)))):
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [1, 2])
def test_d_one_form_vanishes_along_extremal_family(n):
    # along the explicit family the structure is qc-Einstein, so the
    # torsion-type one-form built from the h-jet must vanish identically;
    # this holds for every (c0, sigma) and base point
    frame = HorizontalFrame(n)
    d = 4 * n + 3
    rng = np.random.default_rng(31 + n)
    for (c0, sg) in ((1.0, 1.0), (0.5, 2.0)):
        params = ExtremalParams.centered(n, c0=c0, sigma=sg)
        h_field = h_explicit(params)
        pts = rng.uniform(-1.5, 1.5, size=(30, d))
        h, fg, fh, xi = frame_second_order(h_field, pts, frame)
        D = d_from_h_jet(fg, fh, xi, h, frame)
        assert np.max(np.abs(D)) < 1e-13


def test_relative_residual_floor():
    assert relative_residual(np.zeros(3), np.zeros(3)) == 0.0
    assert relative_residual(np.array([1.0]), np.array([1.0 + 1e-12])) < 2e-12


def test_relative_residual_scales_each_row_by_its_own_maximum():
    lhs = np.array([[1.0, 2.0], [1e-8, 0.0], [0.0, 0.0]])
    rhs = np.array([[1.0, 2.5], [2e-8, 0.0], [0.0, 0.0]])
    got = relative_residual(lhs, rhs)
    assert got.shape == (3,)
    for row, (a, b) in enumerate(zip(lhs, rhs)):
        assert got[row] == relative_residual(a, b)
    assert list(got) == [0.2, 0.5, 0.0]


# ---------------------------------------------------------------------------
# the batch axis: a stack of samples gives the single-sample results row by
# row. Every product with I_s is a signed permutation and every matmul,
# dot and sum runs once per row with the same call as for a single sample,
# so the equalities below are exact, not within a tolerance.

_FIELDS = ("T0", "U", "dh", "dhxi", "h")


def _stack(tds):
    return TorsionData(n=tds[0].n, **{key: np.stack([getattr(td, key)
                                                      for td in tds])
                                       for key in _FIELDS})


@pytest.mark.parametrize("n", [1, 2])
def test_seed_sequence_stacks_the_single_seed_draws(n):
    frame = HorizontalFrame(n)
    seeds = [5, 6, 7, 100, 3]
    batch = random_torsion(n, seeds, frame)
    assert batch.T0.shape == (5, 4 * n, 4 * n) and batch.h.shape == (5,)
    batch.validate(frame)
    for k, seed in enumerate(seeds):
        single = random_torsion(n, seed, frame)
        for key in _FIELDS:
            assert np.array_equal(getattr(batch, key)[k],
                                  getattr(single, key)), (seed, key)
        assert isinstance(single.h, float)


@pytest.mark.parametrize("n", [1, 2])
def test_batched_forms_and_residuals_equal_the_per_sample_results(n):
    frame = HorizontalFrame(n)
    seeds = range(40, 80)
    batch = random_torsion(n, seeds, frame)
    aux = aux_forms_from_torsion(batch, frame)
    f_alt = f_alternative_from_ds(aux, frame)
    DD, EE3 = dd_ee_tensors(batch, frame)
    report = dd_ee_identity_check(batch, frame)
    assert all(v.shape == (len(seeds),) for v in report.residuals.values())
    for k, seed in enumerate(seeds):
        td = random_torsion(n, seed, frame)
        single = aux_forms_from_torsion(td, frame)
        for name in ("D1", "D2", "D3", "D", "E", "F1", "F2", "F3", "f"):
            assert np.array_equal(getattr(aux, name)[k],
                                  getattr(single, name)), (seed, name)
        for got, ref in zip(f_alt, f_alternative_from_ds(single, frame)):
            assert np.array_equal(got[k], ref)
        dd, ee = dd_ee_tensors(td, frame)
        assert np.array_equal(DD[k], dd) and np.array_equal(EE3[k], ee)
        for key, value in dd_ee_identity_check(td, frame).residuals.items():
            assert report.residuals[key][k] == value, (seed, key)


@pytest.mark.parametrize("n", [1, 2])
def test_zero_and_tiny_rows_keep_their_own_residuals(n):
    # a zero-torsion row has both sides exactly zero, so its residuals are
    # exactly 0.0 whatever the other rows hold; a row scaled by 2^-20 scales
    # both sides of each identity by a power of two, so its relative
    # residuals equal those of the unscaled row. Either fails if the
    # numerator or the scale is taken over the whole batch.
    frame = HorizontalFrame(n)
    nh = 4 * n
    draws = [random_torsion(n, seed, frame) for seed in (19, 12, 15)]
    zero = TorsionData(n=n, T0=np.zeros((nh, nh)), U=np.zeros((nh, nh)),
                       dh=draws[1].dh, dhxi=draws[1].dhxi, h=draws[1].h)
    tiny = TorsionData(n=n, T0=draws[2].T0 * 2.0 ** -20,
                       U=draws[2].U * 2.0 ** -20, dh=draws[2].dh,
                       dhxi=draws[2].dhxi, h=draws[2].h)
    own = dd_ee_identity_check(draws[2], frame).residuals
    assert max(own.values()) > 0.0
    report = dd_ee_identity_check(_stack([draws[0], zero, tiny]), frame)
    for key, values in report.residuals.items():
        assert values[1] == 0.0, key
        assert values[2] == own[key], key
