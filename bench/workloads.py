"""The benchmark's workloads: the qcheis subcommands one pass runs.

A pass is a fixed list of operations, each one `qcheis` process. The
workload seed goes into every operation's --seed except the known-fault
operation, whose inputs are fixed so that it fails the same way on every
seed. Points the benchmark does not pass are the command's defaults, and
the report's config echo is checked against them.
"""

from __future__ import annotations

from dataclasses import dataclass

# documented defaults of `qcheis <command> --points`
DEFAULT_POINTS = {"audit": 100, "residual": 2000, "scal": 2000,
                  "torsion": 2000, "identities": 500, "qmatrix": 1,
                  "functional": 2 ** 18}
SCANS = ("residual", "scal", "torsion")

# scan-bulk sizes: about 30 s a pass, of which import is about a third
SCAN_BULK_POINTS = {1: 64_000, 2: 24_000}
SCAN_BULK_AUDIT_POINTS = 700

# functional --n 2 runs at this sample count with seed 0; it fails its
# quadrature checks every time (ROADMAP item 4)
FUNCTIONAL_N2_POINTS = 2 ** 12
FUNCTIONAL_N2_SEED = 0


@dataclass(frozen=True)
class Op:
    command: str
    n: int
    seed: int
    points: int = None          # None: the command's default
    fmt: str = "json"
    known_fault: bool = False   # fails every time because of a named fault

    @property
    def expected_points(self):
        return DEFAULT_POINTS[self.command] if self.points is None else self.points

    @property
    def kind(self):
        if self.command in SCANS:
            return "scan"
        return "audit" if self.command == "audit" else "other"

    def argv(self):
        out = [self.command, "--seed", str(self.seed)]
        if self.command != "qmatrix":
            out += ["--n", str(self.n)]
        if self.points is not None:
            out += ["--points", str(self.points)]
        if self.fmt != "json":
            out += ["--format", self.fmt]
        return out

    def __str__(self):
        return "qcheis " + " ".join(self.argv())


def cli_defaults(seed):
    ops = [Op(cmd, n, seed) for n in (1, 2)
           for cmd in ("audit", "residual", "scal", "torsion", "identities")]
    return ops + [Op("qmatrix", 1, seed)]


def scan_bulk(seed):
    # the exact audit runs at the start, middle and end of the pass, so its
    # median is taken over three samples spread over the whole pass
    audit = Op("audit", 2, seed, SCAN_BULK_AUDIT_POINTS)
    ops = [audit]
    for n in (1, 2):
        for cmd in SCANS:
            fmt = "csv" if (cmd, n) == ("residual", 1) else "json"
            ops.append(Op(cmd, n, seed, SCAN_BULK_POINTS[n], fmt))
        ops.append(audit)
    return ops


def functional(seed):
    # a default audit and residual, three times each, give this workload the
    # same end-to-end metrics as the others; they are about a fifth of a pass
    short = [Op("audit", 1, seed), Op("residual", 1, seed)]
    return (short + [Op("functional", 1, seed)] + short
            + [Op("functional", 2, FUNCTIONAL_N2_SEED, FUNCTIONAL_N2_POINTS,
                  known_fault=True)] + short)


WORKLOADS = {"cli-defaults": cli_defaults, "scan-bulk": scan_bulk,
             "functional": functional}
