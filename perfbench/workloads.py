"""The benchmark's workloads: each is a pool of pipeline configurations.

Every timed pass runs the whole pool of its workload, in an order drawn
from the seed.  A pass therefore does the same work for every seed, so a
workload's wall time is comparable across seeds; picking a subset per seed
would let the cost of one configuration (5.5 s at p=61, 8.7 s at p=79 on
the theta pool) swamp any bound a later change is judged against.  Why each
pool holds what it does is in README.md beside this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One op: `cli.run` of a (field, prime, bound) configuration, or
    `orders.ideal_classes` of the level-p order at a prime (kind "classes")."""

    kind: str
    d: int
    p: int
    bound: int = 0
    workers: int = 1

    @property
    def key(self) -> str:
        """Names the output, so it leaves out the worker count: a report body
        does not depend on it."""
        if self.kind == "classes":
            return f"classes:d={self.d}:p={self.p}"
        return f"run:d={self.d}:p={self.p}:B={self.bound}"


def _runs(configs, workers):
    return tuple(Job("run", d, p, bound, workers) for d, p, bound in configs)


_THETA_Q = ((1, 61, 50), (1, 67, 50), (1, 73, 50))

WORKLOADS: dict[str, tuple[Job, ...]] = {
    "theta_q": _runs(_THETA_Q, 1),
    "classes_q": tuple(Job("classes", 1, p) for p in (223, 227, 233)),
    "hilbert_sqrt5": _runs(((5, 11, 12), (5, 7, 16), (5, 3, 16)), 1),
    "theta_q_w2": _runs(_THETA_Q, 2),
}

# Runs before the timed passes of every workload; its body must equal the
# committed golden report.
PREFLIGHT = Job("run", 1, 11, 12)


def jobs(workload: str, seed: int) -> list[Job]:
    """The workload's pool in the order the seed gives."""
    out = list(WORKLOADS[workload])
    random.Random(seed).shuffle(out)
    return out
