"""Representation numbers of the degree form: a_nu = #{x in M : Q(x) = nu},
counted by exact branch-and-bound over the LLL-reduced integer trace form of
rank 4g (`quadmod.norm_counts`)."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompatibleBounds
from .fields import AlgebraicInteger, enumerate_totally_positive
from .quadmod import QuadraticModule, norm_counts
from .shortvec import DEFAULT_CAP
from .shortvec import short_vectors  # noqa: F401  (unused; perfbench/test_perfbench.py reads this binding)


@dataclass(frozen=True)
class ThetaSeries:
    """Coefficient table over the canonical totally positive index set: counts[k] is a_nu for nu = nus[k]."""

    field: object
    i: int
    j: int
    bound: int
    nus: tuple[AlgebraicInteger, ...]
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)


def theta(mod: QuadraticModule, bound: int, cap: int = DEFAULT_CAP) -> ThetaSeries:
    """Count the lattice points with Tr(Q(x)) <= bound by the exact value of Q.

    `norm_counts` counts the pairs {x, -x}, so each stands for two points.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    fld = mod.field
    pairs = norm_counts(mod, bound, cap)
    index = tuple(enumerate_totally_positive(fld, bound))
    stray = pairs.keys() - {nu.coords() for nu in index}
    if stray:
        raise ArithmeticError(f"enumerated values {sorted(stray)} fall outside the index set")
    counts = tuple(1 if nu.is_zero() else 2 * pairs.get(nu.coords(), 0) for nu in index)
    return ThetaSeries(fld, mod.i, mod.j, bound, index, counts)


def theta_matrix(mods: list[list[QuadraticModule]], bound: int) -> list[list[ThetaSeries]]:
    """Theta series of every Hom module in the H x H table `mods`.

    `mods[j][i]` must be the conjugate of `mods[i][j]`, as `hom_modules`
    builds it: Nrd(conj x) = Nrd(x), so the two have the same theta series.
    Only the modules with i <= j are enumerated, and (j, i) shares the index
    and count tables of (i, j).
    """
    H = len(mods)
    series = [[None] * H for _ in range(H)]
    for i in range(H):
        for j in range(i, H):
            t = theta(mods[i][j], bound)
            series[i][j] = t
            series[j][i] = ThetaSeries(t.field, t.j, t.i, bound, t.nus, t.counts)
    return series


def theta_difference(t1: ThetaSeries, t2: ThetaSeries) -> tuple[int, ...]:
    """Coefficient-wise t1 - t2 in canonical index order; constant term cancels."""
    if t1.field is not t2.field or t1.bound != t2.bound:
        raise IncompatibleBounds("theta series differ in field or trace bound")
    return tuple(a - b for a, b in zip(t1.counts, t2.counts))
