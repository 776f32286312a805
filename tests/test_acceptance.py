"""Acceptance gate: one test per criterion, each at a fixed tolerance.

Run with -v to get one pass/fail line per criterion. Each test also prints
a summary line with the measured extremes, visible with -s or on failure.
Tolerances and sizes here are the contract; loosening them is not a fix.
"""

import json
import re
import time
from fractions import Fraction as F

import numpy as np
import pytest

from qcheis.cli import main
from qcheis.heis import GroupPoint, HorizontalFrame, frame_audit
from qcheis.jets import CombinationField, random_positive_polynomial
from qcheis.qmatrix import (build_q, char_poly, leading_minors, poly_eval,
                            poly_mod_quadratic)
from qcheis.tensors import (TorsionData, aux_forms_from_torsion,
                            f_alternative_from_ds, dd_ee_identity_check,
                            project_3_m1, random_torsion, trace_free,
                            universal_identity_suite)
from qcheis.yamabe import (ExtremalParams, bump_field, conformal_scal,
                           conformal_torsion, dilated_field,
                           folland_stein_ratio, h_explicit, phi_explicit,
                           translated_field, yamabe_residual)


def _random_base(n, rng, span=1.0):
    return GroupPoint.from_flat(rng.uniform(-span, span, 4 * n + 3).tolist(), n)


def test_criterion_01_frame_audit_exact_in_rational_arithmetic():
    start = time.perf_counter()
    for n in (1, 2):
        report = frame_audit(HorizontalFrame(n), n_points=100, seed=0)
        assert report.all_zero, (n, report.violations)
        assert report.max_violation == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"audit took {elapsed:.3f}s"
    print(f"criterion 1 PASS: exact frame audit zero for n=1,2 "
          f"in {elapsed:.3f}s")


def test_criterion_02_yamabe_pde_residual_over_parameter_grid():
    worst = 0.0
    slowest = 0.0
    for n in (1, 2):
        d = 4 * n + 3
        frame = HorizontalFrame(n)
        for c0 in (0.5, 1.0, 2.0):
            for sigma in (0.5, 1.0, 2.0):
                rng = np.random.default_rng(
                    hash((n, c0, sigma)) % (2 ** 32))
                start = time.perf_counter()
                params = ExtremalParams(n=n, c0=c0, sigma=sigma,
                                        base=_random_base(n, rng))
                phi = phi_explicit(params)
                pts = rng.uniform(-2.0, 2.0, size=(10_000, d))
                r, t1, t2 = yamabe_residual(phi, params.s_theta, pts, frame,
                                            return_terms=True)
                rel = np.abs(r) / np.maximum(np.abs(t1), np.abs(t2))
                elapsed = time.perf_counter() - start
                assert elapsed < 30.0, (n, c0, sigma, elapsed)
                assert np.max(rel) <= 1e-9, (n, c0, sigma, np.max(rel))
                worst = max(worst, float(np.max(rel)))
                slowest = max(slowest, elapsed)
    print(f"criterion 2 PASS: PDE residual <= {worst:.2e} over 18 configs "
          f"at 1e4 points, slowest config {slowest:.2f}s")


def test_criterion_03_scalar_curvature_constancy():
    worst = 0.0
    for n in (1, 2):
        d = 4 * n + 3
        frame = HorizontalFrame(n)
        rng = np.random.default_rng(300 + n)
        params = ExtremalParams(n=n, c0=2.0, sigma=0.5,
                                base=_random_base(n, rng))
        pts = rng.uniform(-2.0, 2.0, size=(10_000, d))
        scal = conformal_scal(h_explicit(params), pts, frame)
        mean = float(np.mean(scal))
        std = float(np.std(scal))
        assert abs(mean - params.s_theta) <= 1e-9 * params.s_theta
        assert std <= 1e-9 * mean, (n, std, mean)
        worst = max(worst, std / mean)
    print(f"criterion 3 PASS: scal constant, std/mean <= {worst:.2e} "
          f"at 1e4 points")


def test_criterion_04_qc_einstein_vanishing_and_negative_control():
    worst_family = 0.0
    for n in (1, 2):
        d = 4 * n + 3
        frame = HorizontalFrame(n)
        rng = np.random.default_rng(400 + n)
        params = ExtremalParams(n=n, c0=0.5, sigma=2.0,
                                base=_random_base(n, rng))
        pts = rng.uniform(-2.0, 2.0, size=(10_000, d))
        t0bar, ubar = conformal_torsion(h_explicit(params), pts, frame)
        mx = max(float(np.max(np.abs(t0bar))), float(np.max(np.abs(ubar))))
        assert mx <= 1e-9, (n, mx)
        worst_family = max(worst_family, mx)

    smallest_control = np.inf
    for n in (1, 2):
        d = 4 * n + 3
        frame = HorizontalFrame(n)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            h_field = random_positive_polynomial(d, rng)
            pts = rng.uniform(-2.0, 2.0, size=(2000, d))
            t0bar, ubar = conformal_torsion(h_field, pts, frame)
            per_point = np.maximum(
                np.sqrt(np.einsum("nab,nab->n", t0bar, t0bar)),
                np.sqrt(np.einsum("nab,nab->n", ubar, ubar)))
            assert np.max(per_point) > 1e-3, (n, seed, np.max(per_point))
            smallest_control = min(smallest_control, float(np.max(per_point)))
    print(f"criterion 4 PASS: extremal torsion <= {worst_family:.2e}; "
          f"all 10 nonextremal h exceed 1e-3 "
          f"(smallest maximum {smallest_control:.2e})")


def test_criterion_05_exact_spectral_facts_of_q():
    start = time.perf_counter()
    q = build_q()
    poly = char_poly(q)
    assert poly_eval(poly, F(1)) == 0
    for quad in ((F(1), F(-9), F(2)), (F(1), F(-11), F(8))):
        rem = poly_mod_quadratic(poly, quad)
        assert all(c == 0 for c in rem), quad
    minors = leading_minors(q)
    assert all(m > 0 for m in minors)
    assert tuple(minors) == (F(5, 2), F(6), F(27, 2), F(27), F(54), F(96),
                             F(128))
    shifted = [[q[i][j] - (1 if i == j else 0) for j in range(7)]
               for i in range(7)]
    shifted_minors = leading_minors(shifted)
    assert all(m >= 0 for m in shifted_minors)
    assert tuple(shifted_minors) == (F(3, 2), F(2), F(2), F(0), F(0), F(0),
                                     F(0))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    print(f"criterion 5 PASS: exact char poly roots and minors "
          f"in {elapsed:.3f}s")


def test_criterion_06_paired_tensor_identities_on_random_torsion():
    worst = 0.0
    for n in (1, 2):
        for seed in range(1000):
            report = dd_ee_identity_check(random_torsion(n, seed))
            assert report.max_residual <= 1e-10, (n, seed, report.residuals)
            worst = max(worst, report.max_residual)
    for n in (1, 2):
        nh = 4 * n
        rng = np.random.default_rng(606)
        td = TorsionData(n=n, T0=np.zeros((nh, nh)), U=np.zeros((nh, nh)),
                         dh=rng.integers(-16, 17, size=nh) / 16.0,
                         dhxi=rng.integers(-16, 17, size=3) / 16.0, h=1.25)
        report = dd_ee_identity_check(td)
        assert all(v == 0.0 for v in report.residuals.values()), (
            n, report.residuals)
    print(f"criterion 6 PASS: paired-tensor residuals <= {worst:.2e} on 1000 "
          f"torsion draws per n; exactly zero at zero torsion")


def test_criterion_07_universal_jet_identities_for_random_h():
    worst = 0.0
    for n in (1, 2):
        d = 4 * n + 3
        frame = HorizontalFrame(n)
        for seed in range(200):
            rng = np.random.default_rng(700_000 + seed)
            h_field = random_positive_polynomial(d, rng)
            pts = rng.uniform(-2.0, 2.0, size=(5, d))
            report = universal_identity_suite(h_field, pts, frame)
            assert report.max_residual <= 1e-9, (n, seed, report.residuals)
            worst = max(worst, report.max_residual)
    print(f"criterion 7 PASS: jet identities <= {worst:.2e} over 200 "
          f"random h per n")


def test_criterion_08_structural_identities_and_n1_u_vanishing():
    worst = 0.0
    for n in (1, 2):
        frame = HorizontalFrame(n)
        for seed in range(500):
            td = random_torsion(n, 8000 + seed)
            aux = aux_forms_from_torsion(td, frame)
            dev = float(np.max(np.abs(aux.D - (aux.D1 + aux.D2 + aux.D3))))
            assert dev <= 1e-12, (n, seed, dev)
            worst = max(worst, dev)
            for direct, rebuilt in zip(aux.Fs,
                                       f_alternative_from_ds(aux, frame)):
                dev = float(np.max(np.abs(direct - rebuilt)))
                assert dev <= 1e-12, (n, seed, dev)
                worst = max(worst, dev)
    # dimension seven: U vanishes identically, from the draw and from the
    # projection itself
    frame1 = HorizontalFrame(1)
    for seed in range(100):
        assert np.max(np.abs(random_torsion(1, seed).U)) == 0.0
    rng = np.random.default_rng(808)
    for _ in range(50):
        P = rng.integers(-32, 33, size=(4, 4)) / 16.0
        P = (P + P.T) / 2.0
        three, _ = project_3_m1(P, frame1)
        assert np.max(np.abs(trace_free(three, frame1))) == 0.0
    print(f"criterion 8 PASS: D-sum and F-cyclic <= {worst:.2e} on 1000 "
          f"torsion draws; U identically zero for n=1")


def test_criterion_09_functional_invariance_and_extremality():
    start = time.perf_counter()
    n = 1
    phi = phi_explicit(ExtremalParams.centered(n))
    est = folland_stein_ratio(phi, n, seed=0)

    rng = np.random.default_rng(900)
    p0 = _random_base(n, rng)
    est_t = folland_stein_ratio(translated_field(phi, p0), n, seed=0)
    t_dev = abs(est_t.ratio - est.ratio) / est.ratio
    assert t_dev <= 1e-4, t_dev

    d_devs = []
    for lam in (0.5, 2.0):
        moved = dilated_field(phi, lam)
        est_d = folland_stein_ratio(moved, n, seed=0)
        d_devs.append(abs(est_d.ratio - est.ratio) / est.ratio)
        assert d_devs[-1] <= 1e-4, (lam, d_devs[-1])

    margins = []
    for k in range(20):
        bump = bump_field(n, seed=950 + k)
        perturbed = CombinationField([phi, bump], [1.0, 0.05])
        est_p = folland_stein_ratio(perturbed, n, seed=0, node_map=est.map)
        margins.append((est_p.ratio - est.ratio) / est.ratio)
    assert min(margins) > 0.0, margins

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, elapsed
    print(f"criterion 9 PASS: translation dev {t_dev:.2e}, dilation devs "
          f"{max(d_devs):.2e}, min bump margin {min(margins):.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_10_reports_byte_identical_modulo_wall_time(tmp_path):
    wall = re.compile(rb'"wall_ms": \d+')
    cases = [
        ["audit", "--n", "2", "--seed", "3"],
        ["residual", "--points", "500", "--seed", "3"],
        ["scal", "--points", "500", "--seed", "3"],
        ["torsion", "--points", "500", "--seed", "3"],
        ["identities", "--points", "100", "--seed", "3"],
        ["qmatrix", "--seed", "3"],
        ["functional", "--points", "1024", "--seed", "3"],
    ]
    for argv in cases:
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{argv[0]}_{tag}.json"
            code = main(argv + ["--out", str(out)])
            assert code in (0, 1), (argv, code)
            blobs.append(wall.sub(b'"wall_ms": X', out.read_bytes()))
        assert blobs[0] == blobs[1], argv[0]
    print("criterion 10 PASS: identical seeds give byte-identical reports "
          "modulo wall_ms across all seven commands")
