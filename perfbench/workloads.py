"""Workload fixtures and the checks on their outputs.

Each workload is one fso-relay CLI command on one fixed scenario, named
by the layer it stresses:

* sweep-weak:   weak turbulence (4,2,1), 81 SNR points x 4 protocols.  The
  CSI term table has 100 terms, so per-call overhead (kernel rebuilds,
  route detection) and the csi1 kernel quadrature dominate.
* sweep-strong: strong turbulence (8,6,1), 3 SNR points x 4 protocols.  The
  CSI term table has 52,500 terms, so the closed-form tables, Bessel K and
  the closed ABER loops dominate; no oracle, no Monte Carlo.
* verify-weak:  (4,2,1) at 10 dB, df and csi0, 2e6 Monte Carlo samples.  The
  only workload with the quadrature oracle and Monte Carlo; the sweeps are
  its bypass.

The benchmark seed is the Monte Carlo seed of verify-weak; the sweeps have
no random input.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

# Closed forms are stated accurate to 1e-6 against the quadrature oracle
# (acceptance c2); a tighter tolerance would read an accuracy fix as a
# failure.
TOLERANCE = 1e-6
# Monte Carlo misses of the 95% interval are expected statistics; a
# deviation beyond this many standard errors is a failure.
MC_SIGMAS = 5.0

WEAK_HOP = {"alpha": 4, "beta": 2, "L": 10, "xi_sq": 1, "r_over_wz": 0.1}
STRONG_HOP = {"alpha": 8, "beta": 6, "L": 10, "xi_sq": 1, "r_over_wz": 0.1}
ALL_PROTOCOLS = ["df", "csi0", "csi1", "fixed"]

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    command: str                  # "sweep" or "verify"
    hop: dict
    protocols: list
    grid_db: tuple                # (start, stop, step)
    mc_samples: int | None = None

    def scenario(self, seed: int) -> dict:
        start, stop, step = self.grid_db
        doc = {"schema": 1, "hops": [self.hop], "protocols": self.protocols,
               "modulation": {"P": 0.5, "Q": 1.0}, "gamma_th_db": 0.0,
               "sweep": {"start_db": start, "stop_db": stop, "step_db": step}}
        if self.mc_samples is not None:
            doc["mc"] = {"samples": self.mc_samples, "seed": seed, "streams": 1}
        return doc

    def argv(self, config: Path, out: Path) -> list[str]:
        return [self.command, "--config", str(config), "--out", str(out)]

    def ok_exit(self, code: int) -> bool:
        # verify exits 4 when a Monte Carlo interval misses, which is
        # counted separately, not as a failure
        return code == 0 or (self.command == "verify" and code == 4)


WORKLOADS = {
    "sweep-weak": Workload("sweep", WEAK_HOP, ALL_PROTOCOLS, (0.0, 40.0, 0.5)),
    "sweep-strong": Workload("sweep", STRONG_HOP, ALL_PROTOCOLS,
                             (10.0, 30.0, 10.0)),
    "verify-weak": Workload("verify", WEAK_HOP, ["df", "csi0"],
                            (10.0, 10.0, 1.0), mc_samples=2_000_000),
}


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    ci_misses: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.ci_misses += other.ci_misses
        self.problems.extend(other.problems)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _key(row: dict, command: str) -> tuple:
    key = (float(row["gamma_bar_db"]), row["protocol"])
    return key + (row["metric"],) if command == "verify" else key


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return math.isfinite(x) and abs(x - y) <= TOLERANCE


def _row_problem(row: dict, ref: dict, command: str) -> str | None:
    for col in ("method", "bound_regime"):
        if row[col] != ref[col]:
            return f"{col} {row[col]!r}, reference {ref[col]!r}"
    values = ("analytic", "quadrature") if command == "verify" else ("outage", "aber")
    for col in values:
        if not _close(row[col], ref[col]):
            return f"{col} {row[col]}, reference {ref[col]}"
    if command == "verify":
        analytic, mc = float(row["analytic"]), float(row["mc"])
        if abs(analytic - float(row["quadrature"])) > TOLERANCE:
            return "analytic and quadrature differ by more than 1e-6"
        if not abs(mc - analytic) <= MC_SIGMAS * float(row["mc_std_err"]):
            return f"Monte Carlo {mc} is over {MC_SIGMAS} standard errors from {analytic}"
    return None


def check_output(command: str, rows: list[dict] | None, reference: list[dict],
                 exit_code: int | None, ok_exit: bool) -> Check:
    """Count the output rows that fail against the reference.

    Every reference row is one operation; a missing row, an unexpected one
    and every row of a run that exited with an error count as failed.
    """
    if rows is None or not ok_exit:
        return Check(len(reference), len(reference),
                     problems=[f"{command} exited with {exit_code}"])
    out = {_key(r, command): r for r in rows}
    check = Check(attempted=len(reference))
    for ref in reference:
        row = out.pop(_key(ref, command), None)
        problem = "missing" if row is None else _row_problem(row, ref, command)
        if problem:
            check.failed += 1
            check.problems.append(f"{_key(ref, command)}: {problem}")
        elif (command == "verify" and not
              float(row["mc_ci_low"]) <= float(row["analytic"]) <= float(row["mc_ci_high"])):
            check.ci_misses += 1
    for key in out:
        check.attempted += 1
        check.failed += 1
        check.problems.append(f"{key}: not in the reference")
    return check
