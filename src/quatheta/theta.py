"""Representation numbers of the degree form: a_nu = #{x in M : Q(x) = nu},
computed by exact branch-and-bound over the integer trace form of rank 4g."""

from __future__ import annotations

import concurrent.futures
import multiprocessing
from dataclasses import dataclass

from .errors import IncompatibleBounds
from .fields import AlgebraicInteger, enumerate_totally_positive
from .quadmod import QuadraticModule, small_norm_elements
from .shortvec import DEFAULT_CAP
from .shortvec import short_vectors  # noqa: F401  (unused; perfbench/test_perfbench.py reads this binding)


@dataclass(frozen=True)
class ThetaSeries:
    """Coefficient table nu -> a_nu over the canonical totally positive index set."""

    field: object
    i: int
    j: int
    bound: int
    nus: tuple[AlgebraicInteger, ...]
    counts: tuple[int, ...]

    def coefficient(self, nu: AlgebraicInteger) -> int:
        try:
            return self.counts[self.nus.index(nu)]
        except ValueError:
            raise IncompatibleBounds(f"{nu!r} is outside the computed index set") from None

    def total(self) -> int:
        return sum(self.counts)


def theta(mod: QuadraticModule, bound: int, cap: int = DEFAULT_CAP) -> ThetaSeries:
    """Count the lattice points with Tr(Q(x)) <= bound by the exact value of Q.

    Each enumerated representative stands for the pair {x, -x}.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    fld = mod.field
    buckets: dict[tuple[int, int], int] = {}
    for _, nu in small_norm_elements(mod, bound, cap):
        buckets[nu] = buckets.get(nu, 0) + 2
    index = enumerate_totally_positive(fld, bound)
    allowed = {nu.coords() for nu in index}
    stray = [k for k in buckets if k not in allowed]
    if stray:
        raise ArithmeticError(f"enumerated values {stray} fall outside the index set")
    counts = [1 if nu.is_zero() else buckets.get(nu.coords(), 0) for nu in index]
    return ThetaSeries(fld, mod.i, mod.j, bound, tuple(index), tuple(counts))


def _theta_counts(mod: QuadraticModule, bound: int) -> tuple[int, ...]:
    """Pool task: the counts of one theta series, as plain integers."""
    return theta(mod, bound).counts


def theta_matrix(mods: list[list[QuadraticModule]], bound: int, workers: int = 1) -> list[list[ThetaSeries]]:
    """Theta series of every Hom module in the H x H table `mods`.

    With workers > 1 the modules are spread over one pool of at most
    `workers` processes; a failure in any task is raised here unchanged.
    The series themselves are built in this process, so they all share its
    field object.
    """
    flat = [m for row in mods for m in row]
    if workers == 1:
        series = [theta(m, bound) for m in flat]
    else:
        # spawned children start from a fresh import and get all they need in
        # the payload; fork would copy this process's heap and is unsafe once
        # the process has threads
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(min(workers, len(flat)), spawn) as pool:
            counts = list(pool.map(_theta_counts, flat, [bound] * len(flat)))
        index = tuple(enumerate_totally_positive(flat[0].field, bound))
        series = [ThetaSeries(m.field, m.i, m.j, bound, index, c) for m, c in zip(flat, counts)]
    H = len(mods)
    return [series[i * H : (i + 1) * H] for i in range(H)]


def theta_difference(t1: ThetaSeries, t2: ThetaSeries) -> tuple[int, ...]:
    """Coefficient-wise t1 - t2 in canonical index order; constant term cancels."""
    if t1.field is not t2.field or t1.bound != t2.bound:
        raise IncompatibleBounds("theta series differ in field or trace bound")
    return tuple(a - b for a, b in zip(t1.counts, t2.counts))
