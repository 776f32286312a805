"""qcheis benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {cli-defaults,scan-bulk,functional}
                         --seed N --seconds S --trace {0,1}

With --trace 0 it measures end to end. The workload's qcheis subcommands
run as separate processes of the working tree's code
(`PYTHONPATH=src python -m qcheis.cli ...`), in a closed loop with one
client: each process starts after the previous one exits. Whole passes
over the workload repeat; after the first, another starts when at least
half of it is expected to fit within --seconds. Every process is reaped
with os.wait4, so its CPU time and maximum RSS are its own, and every
output is checked (bench/checks.py). Each distinct operation's time is
the median of its samples in the run. Set-up time is measured first, as
the median of several fresh interpreters importing qcheis.cli.

With --trace 1 it runs the traced per-layer probes in this process
instead (bench/layers.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit status: 0 when every output
was correct, 1 when one was not, 2 when the qcheis source tree is missing
or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_output
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
IMPORT_SNIPPET = "import qcheis, qcheis.cli; print(qcheis.__file__)"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv, env, scratch):
    """Run one python process to its end; return (wall, cpu, maxrss_kb,
    exit code, stdout). Output goes through files so that a large report
    cannot block the child while we wait for it."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss, proc.returncode, out_path.read_text()


def located_in_tree(module_file):
    return Path(module_file.strip()).resolve().is_relative_to(SRC.resolve())


def measure_setup(env, scratch, problems):
    """Median wall time of a fresh interpreter importing qcheis.cli. An
    untimed compileall first writes the bytecode cache in a new checkout."""
    run_process(["-m", "compileall", "-q", str(SRC / "qcheis")], env, scratch)
    times = []
    for _ in range(SETUP_SAMPLES):
        wall, _, _, code, out = run_process(["-c", IMPORT_SNIPPET], env,
                                            scratch)
        if code != 0 or not located_in_tree(out):
            problems.append(f"import qcheis.cli: exit {code}, qcheis found "
                            f"at {out.strip()!r}, not under {SRC}")
        times.append(wall)
    return statistics.median(times)


def run_pass(ops, env, scratch, oracles, problems, samples):
    """One pass over ops; returns the number of failed operations."""
    failed = 0
    for op in ops:
        wall, cpu, rss, code, out = run_process(
            ["-m", "qcheis.cli", *op.argv()], env, scratch)
        bad, found = check_output(op, code, out, oracles)
        if found:
            tail = (scratch / "stderr").read_text().strip().splitlines()[-1:]
            problems += found + [f"{op}: stderr {line}" for line in tail]
        failed += bad
        samples.setdefault(op, []).append((wall, cpu, rss))
    return failed


def measure(workload, seed, seconds, oracles):
    env = child_env()
    ops = WORKLOADS[workload](seed)
    problems, samples, pass_walls = [], {}, []
    failed = 0
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        scratch = Path(tmp)
        setup_s = measure_setup(env, scratch, problems)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            failed += run_pass(ops, env, scratch, oracles, problems, samples)
            pass_walls.append(time.perf_counter() - t0)
            # another pass starts when at least half of it fits
            per_pass = statistics.median(pass_walls)
            if time.perf_counter() - start + per_pass / 2 > seconds:
                break

    # each distinct operation counts once, at the median of its samples
    typical = {op: (statistics.median(w for w, _, _ in rows),
                    statistics.median(c for _, c, _ in rows))
               for op, rows in samples.items()}
    for op, rows in samples.items():
        walls = " ".join(f"{w:.3f}" for w, _, _ in rows)
        print(f"bench: {op}: wall {walls} s", file=sys.stderr)

    def rate(kind):
        picked = [op for op in typical if op.kind == kind]
        return (sum(op.expected_points for op in picked)
                / sum(typical[op][0] for op in picked))

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(w for w, _ in typical.values()), "s"),
        "cpu_s": (sum(c for _, c in typical.values()), "s"),
        "peak_rss_mb": (max(r for rows in samples.values()
                            for _, _, r in rows) / 1024.0, "MB"),
        "scan_points_per_s": (rate("scan"), "points/s"),
        "audit_points_per_s": (rate("audit"), "points/s"),
    }
    attempted = sum(len(rows) for rows in samples.values())
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, problems, len(pass_walls)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qcheis" / "cli.py").is_file():
        print(f"bench: no qcheis source tree at {SRC}", file=sys.stderr)
        return 2

    from oracles import load
    oracles = load()
    if args.trace:
        from layers import run_traced
        result, problems, note = run_traced(args.workload, args.seed, oracles)
    else:
        result, problems, npass = measure(args.workload, args.seed,
                                          args.seconds, oracles)
        note = f"{npass} pass(es) of {args.workload}"
    for line in problems:
        print(f"bench: {line}", file=sys.stderr)
    print(f"bench: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
