"""The traced run: per-layer numbers from one process.

The benchmark's own code wraps each call into a public function of a
qcheis module in a span (layer, name, start, end, rows); no span lives
inside the program. The run has four parts:

1. the workload's operations, one round, through qcheis.cli.main in this
   process, each checked like its end-to-end counterpart; they set
   attempted and failed, so the share of failures matches the untimed runs;
2. the layer probes at fixed sizes (10^4 points, n = 1 and n = 2): once
   untimed to warm up, once with spans on, once with spans off; the
   difference of the last two wall times is the tracing overhead;
3. tracemalloc peaks of frame_second_order and project_3_m1, outside the
   timed probes;
4. `python -X importtime -c "import qcheis.cli"`, three times.

Every probe result is checked against a closed form or an oracle. The
spans go to .bench-trace/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np

from checks import (TOL_JET, TOL_STRUCT, TOL_TENSOR, _check_certificate,
                    check_output, s_theta)
from oracles import _hamilton
from run import ROOT, SRC, child_env, located_in_tree
from workloads import WORKLOADS, cli_defaults

N_POINTS = 10_000
FS_LOG2 = 14            # the ratio probes use 2^14 nodes and 2^14 pilot nodes
QMUL_COUNT = 20_000
TORSION_SAMPLES = 100
IDENTITY_FIELDS = 20
IMPORT_SAMPLES = 3


class Tracer:
    """Span recorder; with enabled=False it only calls through."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []

    def call(self, layer, name, rows, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append({"layer": layer, "name": name, "start": start,
                           "end": time.perf_counter(), "rows": rows})
        return out

    def seconds(self, layer, name):
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["layer"] == layer and s["name"] == name)


def _import_qcheis():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qcheis
    if not located_in_tree(qcheis.__file__):
        raise RuntimeError(f"qcheis imported from {qcheis.__file__}, "
                           f"not from {SRC}")


def run_main(tr, ops, name, oracles, problems):
    """qcheis.cli.main over ops; returns the number of failed operations."""
    from qcheis.cli import main
    failed = 0
    for op in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = tr.call("cli", name, op.expected_points, main, op.argv())
            except SystemExit as exc:
                code = exc.code
        bad, found = check_output(op, code, buf.getvalue(), oracles)
        failed += bad
        problems += found
    return failed


class CountingField:
    """Passes jets() through to a field and counts the rows it receives."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.rows = 0

    def jets(self, points, order=2):
        self.rows += len(points)
        return self.inner.jets(points, order=order)


def audit_problems(report, n):
    return [f"frame_audit n={n}: {k} = {v}"
            for k, v in report.violations.items() if v != 0]


def closed_form_problems(n, c0, sigma, pts, value, fg, fh):
    """The centred h against |grad_H h|^2 = 16 c0 |q|^2 h and
    Lap_H h = 16 n c0 (sigma + |q|^2) + 32 c0 |q|^2."""
    q2 = np.sum(pts[:, :4 * n] ** 2, axis=1)
    w2 = np.sum(pts[:, 4 * n:] ** 2, axis=1)
    h = c0 * ((sigma + q2) ** 2 + w2)
    lap = 16 * n * c0 * (sigma + q2) + 32 * c0 * q2
    devs = {
        "h": np.max(np.abs(value - h) / h),
        "grad_h_sq": np.max(np.abs(np.sum(fg * fg, axis=1) - 16 * c0 * q2 * h)
                            / (16 * c0 * (q2 + 1) * h)),
        "sublaplacian_h": np.max(np.abs(np.trace(fh, axis1=1, axis2=2) - lap)
                                 / lap),
    }
    return [f"frame_second_order n={n}: {k} off its closed form by {v:.3g}"
            for k, v in devs.items() if not v <= TOL_JET]


def _identity_suites(n, seed, frame):
    """The identities command's suites at a fixed, smaller size."""
    from qcheis.jets import random_positive_polynomial
    from qcheis.tensors import (aux_forms_from_torsion, dd_ee_identity_check,
                                f_alternative_from_ds, random_torsion,
                                relative_residual, universal_identity_suite)
    worst = {"structural": 0.0, "tensor": 0.0, "jet": 0.0}
    for k in range(TORSION_SAMPLES):
        td = random_torsion(n, seed=seed + k)
        aux = aux_forms_from_torsion(td, frame)
        res = [relative_residual(aux.D, -td.T0 @ td.dh / td.h)]
        res += [relative_residual(a, b) for a, b in
                zip(aux.Fs, f_alternative_from_ds(aux, frame))]
        worst["structural"] = max(worst["structural"], *res)
        worst["tensor"] = max(worst["tensor"],
                              dd_ee_identity_check(td, frame).max_residual)
    d = 4 * n + 3
    for k in range(IDENTITY_FIELDS):
        rng = np.random.default_rng(seed + 10_000 + k)
        h = random_positive_polynomial(d, rng, degree=3, terms=8, box=2.0)
        pts = rng.uniform(-2.0, 2.0, size=(5, d))
        rep = universal_identity_suite(h, pts, frame)
        worst["jet"] = max(worst["jet"], rep.max_residual)
    return worst


def probes(tr, seed, oracles, problems):
    """Every layer probe once. Checks run with spans on and off alike."""
    from qcheis.heis import (ContactForm, GroupPoint, HorizontalFrame,
                             frame_audit, frame_second_order)
    from qcheis.qmatrix import certify
    from qcheis.quat import Quaternion, qmul
    from qcheis.tensors import project_3_m1
    from qcheis.yamabe import (ExtremalParams, bump_field, conformal_scal,
                               conformal_torsion, folland_stein_ratio,
                               h_explicit, phi_explicit, symmetrized_hessian,
                               yamabe_residual)

    counts = {}
    rng = np.random.default_rng(seed)
    comps = [[Fraction(int(k), 16) for k in rng.integers(-32, 33, size=4)]
             for _ in range(QMUL_COUNT)]
    quats = [Quaternion(*c) for c in comps]
    prods = tr.call("quat", "qmul_exact", QMUL_COUNT, lambda: [
        qmul(a, b) for a, b in zip(quats, quats[1:] + quats[:1])])
    for i in range(0, QMUL_COUNT, 997):
        want = _hamilton(comps[i], comps[(i + 1) % QMUL_COUNT])
        if tuple(prods[i].components()) != want:
            problems.append(f"qmul {i}: {prods[i]} != {want}")

    cert = tr.call("qmatrix", "certify", 1, certify)
    problems += [f"certify: {p}" for p in
                 _check_certificate(cert.to_dict(), oracles["qmatrix"])]

    for n in (1, 2):
        d, nh = 4 * n + 3, 4 * n
        frame = HorizontalFrame(n)
        report = tr.call("heis", f"frame_audit.n{n}", 100, frame_audit,
                         frame, ContactForm(n), n_points=100, seed=seed)
        problems += audit_problems(report, n)

        c0, sigma = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
        s_const = s_theta(n, c0, sigma)
        pts = rng.uniform(-2.0, 2.0, size=(N_POINTS, d))
        centred = ExtremalParams.centered(n, c0, sigma)
        h, phi = h_explicit(centred), phi_explicit(centred)

        jh = tr.call("jets", f"h_o2.n{n}", N_POINTS, h.jets, pts, order=2)
        jp = tr.call("jets", f"phi_o2.n{n}", N_POINTS, phi.jets, pts, order=2)
        want = (2.0 * jh.value) ** (-(4 * n + 4) / 4.0)
        if not np.max(np.abs(jp.value - want) / want) <= TOL_JET:
            problems.append(f"phi jets n={n} differ from (2h)^(-(Q-2)/4)")

        value, fg, fh, xi = tr.call("heis", f"frame_second_order.n{n}",
                                    N_POINTS, frame_second_order, h, pts, frame)
        problems += closed_form_problems(n, c0, sigma, pts, value, fg, fh)
        hsym = symmetrized_hessian(fh, xi, frame)
        p3, pm1 = tr.call("tensors", f"project_3_m1.n{n}", N_POINTS,
                          project_3_m1, hsym, frame)
        if not np.max(np.abs(p3 + pm1 - hsym)) <= TOL_STRUCT * np.max(np.abs(hsym)):
            problems.append(f"project_3_m1 n={n}: parts do not sum to input")

        base = GroupPoint.from_flat(rng.uniform(-1.0, 1.0, size=d).tolist(), n)
        params = ExtremalParams(n=n, c0=c0, sigma=sigma, base=base)
        r, t1, t2 = tr.call("yamabe", f"residual.n{n}", N_POINTS,
                            yamabe_residual, phi_explicit(params), s_const,
                            pts, frame, return_terms=True)
        scal = tr.call("yamabe", f"scal.n{n}", N_POINTS, conformal_scal,
                       h_explicit(params), pts, frame)
        t0bar, ubar = tr.call("yamabe", f"torsion.n{n}", N_POINTS,
                              conformal_torsion, h_explicit(params), pts, frame)
        devs = {
            "pde": np.max(np.abs(r) / np.maximum(np.abs(t1), np.abs(t2))),
            "scal": np.max(np.abs(scal - s_const)) / s_const,
            "t0bar": np.max(np.sqrt(np.sum(t0bar ** 2, axis=(1, 2)))),
            "ubar": np.max(np.sqrt(np.sum(ubar ** 2, axis=(1, 2)))),
        }
        problems += [f"{k} n={n}: residual {v:.3g}" for k, v in devs.items()
                     if not v <= TOL_JET]

        j1 = tr.call("jets", f"phi_o1.n{n}", N_POINTS, phi.jets, pts, order=1)
        if not np.array_equal(j1.value, jp.value):
            problems.append(f"phi order-1 values n={n} differ from order 2")
        bump = bump_field(n, seed=seed + 500)
        jb = tr.call("jets", f"bump_o1.n{n}", N_POINTS, bump.jets, pts, order=1)
        # at n=2 the box points often miss the compact support altogether,
        # so only finiteness is a property every seed has
        if not (np.all(np.isfinite(jb.value)) and np.all(np.isfinite(jb.grad))):
            problems.append(f"bump jets n={n}: non-finite values")
        C = tr.call("heis", f"coefficients.n{n}", N_POINTS,
                    frame.coefficients, pts)
        if not np.array_equal(C[:, :, :nh], np.broadcast_to(np.eye(nh), (N_POINTS, nh, nh))):
            problems.append(f"frame coefficients n={n}: horizontal block")

        counted = CountingField(phi)
        est = tr.call("yamabe", f"fs_ratio.n{n}", 2 ** FS_LOG2,
                      folland_stein_ratio, counted, n, samples_log2=FS_LOG2,
                      seed=seed, pilot_log2=FS_LOG2)
        counts[f"yamabe.fs_points_evaluated.n{n}"] = counted.rows
        problems += _ratio_problems(n, est, counted.rows, oracles)
        mapped = tr.call("yamabe", f"fs_ratio_mapped.n{n}", 2 ** FS_LOG2,
                         folland_stein_ratio, phi, n, samples_log2=FS_LOG2,
                         seed=seed, node_map=est.map)
        if mapped.ratio != est.ratio:
            problems.append(f"fs ratio n={n}: same nodes, different ratio")

        worst = tr.call("tensors", f"identity_suites.n{n}", TORSION_SAMPLES,
                        _identity_suites, n, seed, frame)
        for key, tol in (("structural", TOL_STRUCT), ("tensor", TOL_TENSOR),
                         ("jet", TOL_JET)):
            if not worst[key] <= tol:
                problems.append(f"identity suites n={n}: {key} {worst[key]:.3g}")
    return counts


# loose sanity bounds at 2^14 nodes (observed: n=1 within 5e-4, n=2 within
# 6e-3 over seeds 0-11); the end-to-end functional check is the tight one
FS_PROBE_RTOL = {1: 5e-3, 2: 5e-2}


def _ratio_problems(n, est, rows, oracles):
    problems = []
    want_rows = 2 * 2 ** FS_LOG2 + 2 * 2 ** FS_LOG2   # two pilots, two scrambles
    if rows != want_rows:
        problems.append(f"fs ratio n={n}: {rows} rows evaluated, {want_rows} "
                        f"expected")
    oracle = oracles["fs_ratio"][f"n{n}"]
    if not abs(est.ratio / oracle - 1.0) <= FS_PROBE_RTOL[n]:
        problems.append(f"fs ratio n={n}: {est.ratio!r} vs oracle {oracle!r}")
    return problems


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def peak_memory(seed):
    """tracemalloc peaks (MB) of frame_second_order and project_3_m1."""
    from qcheis.heis import HorizontalFrame, frame_second_order
    from qcheis.tensors import project_3_m1
    from qcheis.yamabe import ExtremalParams, h_explicit, symmetrized_hessian
    rng = np.random.default_rng(seed)
    out = {}
    for n in (1, 2):
        frame = HorizontalFrame(n)
        pts = rng.uniform(-2.0, 2.0, size=(N_POINTS, 4 * n + 3))
        h = h_explicit(ExtremalParams.centered(n))
        (_, _, fh, xi), peak = _traced_peak_mb(
            lambda: frame_second_order(h, pts, frame))
        out[f"heis.frame_second_order_peak_mb.n{n}"] = peak
        hsym = symmetrized_hessian(fh, xi, frame)
        _, peak = _traced_peak_mb(lambda: project_3_m1(hsym, frame))
        out[f"tensors.project_3_m1_peak_mb.n{n}"] = peak
    return out


def import_times():
    """Medians of `-X importtime` cumulative times (s) of qcheis.cli and
    scipy.stats; 0 when a module is not imported at all."""
    samples = {"qcheis.cli": [], "scipy.stats": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qcheis.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for key in samples:
            samples[key].append(seen.get(key, 0.0))
    return {"cli.import_s": statistics.median(samples["qcheis.cli"]),
            "cli.import_scipy_stats_s":
                statistics.median(samples["scipy.stats"])}


def run_traced(workload, seed, oracles):
    _import_qcheis()
    problems = []
    tr = Tracer(enabled=True)
    ops = WORKLOADS[workload](seed)
    failed = run_main(tr, ops, "main.workload", oracles, problems)
    run_main(tr, cli_defaults(seed), "main.cli-defaults", oracles, problems)

    # the first, untimed pass warms caches and the allocator, so that the
    # traced and untraced passes after it start from the same state
    plain = Tracer(enabled=False)
    probes(plain, seed, oracles, [])
    start = time.perf_counter()
    counts = probes(tr, seed, oracles, problems)
    traced = time.perf_counter() - start
    start = time.perf_counter()
    probes(plain, seed, oracles, [])
    untraced = time.perf_counter() - start

    metrics = {"cli.main_s": (tr.seconds("cli", "main.cli-defaults"), "s"),
               "trace.overhead_s": (traced - untraced, "s"),
               "quat.qmul_exact_per_s":
                   (QMUL_COUNT / tr.seconds("quat", "qmul_exact"), "1/s"),
               "qmatrix.certify_ms": (1e3 * tr.seconds("qmatrix", "certify"),
                                      "ms")}
    for span in tr.spans:
        layer, name = span["layer"], span["name"]
        if layer in ("cli", "quat", "qmatrix"):
            continue
        base, n = name.rsplit(".", 1)
        unit, scale = ("s", 1.0) if base in (
            "frame_audit", "fs_ratio", "fs_ratio_mapped",
            "identity_suites") else ("ms", 1e3)
        metrics[f"{layer}.{base}_{unit}.{n}"] = (
            scale * (span["end"] - span["start"]), unit)
    metrics.update({k: (v, "count") for k, v in counts.items()})
    metrics.update({k: (v, "MB") for k, v in peak_memory(seed).items()})
    metrics.update({k: (v, "s") for k, v in import_times().items()})

    out_dir = ROOT / ".bench-trace"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-{seed}.jsonl", "w") as fh:
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    note = (f"traced run: {len(tr.spans)} spans, probes {traced:.3f} s traced "
            f"vs {untraced:.3f} s untraced")
    return result, problems, note
