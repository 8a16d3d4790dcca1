"""Correctness gate applied to the output of every op.

An op passes when
  1. the preflight report body equals the committed golden report;
  2. every other body hashes to the digest recorded for its configuration at
     the commit that introduced this benchmark (expected.json).  The key
     leaves out the worker count, so a theta_q_w2 body must equal the
     theta_q body of the same prime;
  3. exact invariants hold: all_checks_pass, span verdict "pass" over Q,
     sum 1/w equal to the mass, and over Q the class number, unit weights
     and mass of Eichler's closed formulas, which share no code with the
     program.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import PREFLIGHT, Job

EXPECTED = Path(__file__).with_name("expected.json")
GOLDEN = Path("tests") / "golden" / "q11_b12.json"


def body_digest(body: dict) -> str:
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_body(report: dict) -> dict:
    """The deterministic part of a `cli.run` report: everything but timings."""
    return {k: v for k, v in report.items() if k != "timings"}


def classes_body(classes) -> dict:
    """A class set as plain data: weights, norms and each ideal's canonical basis."""
    return {
        "count": classes.size,
        "weights": list(classes.weights),
        "mass": str(classes.mass),
        "norms": [list(I.norm.coords()) for I in classes.ideals],
        "ideals": [
            {
                "den": I.lattice.den,
                "basis": [[list(e.coords()) for e in row] for row in I.lattice.mat],
            }
            for I in classes.ideals
        ],
    }


def eichler_class_data(p: int) -> tuple[int, list[int], Fraction]:
    """Class number, sorted unit weights and mass of a maximal order of the
    rational quaternion algebra ramified at a prime p > 3 and infinity.

    Mass (p-1)/12; one class of weight 2 when p = 3 mod 4 and one of weight 3
    when p = 2 mod 3, all others weight 1.
    """
    e2 = 1 if p % 4 == 3 else 0
    e3 = 1 if p % 3 == 2 else 0
    mass = Fraction(p - 1, 12)
    h = mass + Fraction(e2, 2) + Fraction(2 * e3, 3)
    if h.denominator != 1:
        raise ValueError(f"no integral class number at p={p}")
    count = int(h)
    return count, [1] * (count - e2 - e3) + [2] * e2 + [3] * e3, mass


class Gate:
    def __init__(self, golden: dict, digests: dict[str, str]):
        self.golden = golden
        self.digests = digests

    @classmethod
    def load(cls, root: Path) -> "Gate":
        golden = json.loads((root / GOLDEN).read_text())
        digests = json.loads(EXPECTED.read_text())["digests"]
        return cls(golden, digests)

    def check(self, job: Job, output) -> list[str]:
        """Problems with one op's output; empty when it is correct."""
        if job.kind == "classes":
            body = classes_body(output)
            problems = self._check_classes(job, body)
        else:
            body = report_body(output)
            problems = self._check_report(job, body)
        if job == PREFLIGHT:
            if body != self.golden:
                problems.append("body differs from the golden report")
            return problems
        want = self.digests.get(job.key)
        if want is None:
            problems.append(f"no recorded digest for {job.key}")
        elif body_digest(body) != want:
            if job.workers > 1:
                problems.append("body differs from the workers=1 body")
            else:
                problems.append("body digest differs from the recorded one")
        return problems

    def _check_report(self, job: Job, body: dict) -> list[str]:
        problems = []
        if body.get("all_checks_pass") is not True:
            problems.append("all_checks_pass is not true")
        if job.d == 1 and body["span"]["verdict"] != "pass":
            problems.append(f"span verdict {body['span']['verdict']!r}")
        weights = body["classes"]["weights"]
        mass = Fraction(body["mass"])
        if sum(Fraction(1, w) for w in weights) != mass:
            problems.append("sum of 1/w differs from the mass")
        if job.d == 1:
            problems += _against_eichler(job.p, weights, mass)
        return problems

    def _check_classes(self, job: Job, body: dict) -> list[str]:
        weights = body["weights"]
        problems = []
        if sum(Fraction(1, w) for w in weights) != Fraction(body["mass"]):
            problems.append("sum of 1/w differs from the mass")
        if job.d == 1:
            problems += _against_eichler(job.p, weights, Fraction(body["mass"]))
        return problems


def _against_eichler(p: int, weights: list[int], mass: Fraction) -> list[str]:
    count, want_weights, want_mass = eichler_class_data(p)
    problems = []
    if len(weights) != count:
        problems.append(f"H={len(weights)}, Eichler's formula gives {count}")
    if sorted(weights) != want_weights:
        problems.append(f"weights {sorted(weights)}, expected {want_weights}")
    if mass != want_mass:
        problems.append(f"mass {mass}, expected {want_mass}")
    return problems
