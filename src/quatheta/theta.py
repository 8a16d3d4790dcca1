"""Representation numbers of the degree form: a_nu = #{x in M : Q(x) = nu},
counted by exact branch-and-bound over the LLL-reduced integer trace form of
rank 4g (`quadmod.norm_counts`)."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import IncompatibleBounds
from .fields import AlgebraicInteger, enumerate_totally_positive
from .quadmod import QuadraticModule, norm_counts
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
    positions: dict = dc_field(compare=False, repr=False)  # (a, b) -> place in nus, one per index tuple

    def coefficient(self, nu: AlgebraicInteger) -> int:
        try:
            return self.counts[self.positions[nu.coords()]]
        except KeyError:
            raise IncompatibleBounds(f"{nu!r} is outside the computed index set") from None

    def total(self) -> int:
        return sum(self.counts)


def _index(fld, bound: int) -> tuple[tuple[AlgebraicInteger, ...], dict]:
    """The index set of trace at most `bound`, and its position map."""
    nus = tuple(enumerate_totally_positive(fld, bound))
    return nus, {nu.coords(): k for k, nu in enumerate(nus)}


def theta(mod: QuadraticModule, bound: int, cap: int = DEFAULT_CAP) -> ThetaSeries:
    """Count the lattice points with Tr(Q(x)) <= bound by the exact value of Q.

    `norm_counts` counts the pairs {x, -x}, so each stands for two points.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    fld = mod.field
    pairs = norm_counts(mod, bound, cap)
    index, positions = _index(fld, bound)
    stray = [k for k in pairs if k not in positions]
    if stray:
        raise ArithmeticError(f"enumerated values {stray} fall outside the index set")
    counts = tuple(1 if nu.is_zero() else 2 * pairs.get(nu.coords(), 0) for nu in index)
    return ThetaSeries(fld, mod.i, mod.j, bound, index, counts, positions)


def theta_matrix(mods: list[list[QuadraticModule]], bound: int) -> list[list[ThetaSeries]]:
    """Theta series of every Hom module in the H x H table `mods`.

    `mods[j][i]` must be the conjugate of `mods[i][j]`, as `hom_modules`
    builds it: Nrd(conj x) = Nrd(x), so the two have the same theta series.
    Only the modules with i <= j are enumerated, and (j, i) shares the index,
    count and position tables of (i, j).
    """
    H = len(mods)
    series = [[None] * H for _ in range(H)]
    for i in range(H):
        for j in range(i, H):
            t = theta(mods[i][j], bound)
            series[i][j] = t
            series[j][i] = ThetaSeries(t.field, t.j, t.i, bound, t.nus, t.counts, t.positions)
    return series


def theta_difference(t1: ThetaSeries, t2: ThetaSeries) -> tuple[int, ...]:
    """Coefficient-wise t1 - t2 in canonical index order; constant term cancels."""
    if t1.field is not t2.field or t1.bound != t2.bound:
        raise IncompatibleBounds("theta series differ in field or trace bound")
    return tuple(a - b for a, b in zip(t1.counts, t2.counts))
