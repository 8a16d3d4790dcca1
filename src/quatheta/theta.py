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


def _theta_counts(mod: QuadraticModule, bound: int) -> tuple[int, ...]:
    """One task of `theta_matrix`: the counts of one theta series, as plain integers."""
    return theta(mod, bound).counts


def theta_matrix(mods: list[list[QuadraticModule]], bound: int, workers: int = 1) -> list[list[ThetaSeries]]:
    """Theta series of every Hom module in the H x H table `mods`.

    `mods[j][i]` must be the conjugate of `mods[i][j]`, as `hom_modules`
    builds it: Nrd(conj x) = Nrd(x), so the two have the same theta series.
    Only the modules with i <= j are enumerated, and (j, i) shares the index
    and count tuples of (i, j).  With workers > 1 those modules are spread
    over one pool of at most `workers` processes; a failure in any task is
    raised here unchanged.  The series themselves are built in this process,
    so they all share its field object.
    """
    H = len(mods)
    pairs = [(i, j) for i in range(H) for j in range(i, H)]
    upper = [mods[i][j] for i, j in pairs]
    if workers == 1:
        counts = [_theta_counts(m, bound) for m in upper]
    else:
        # imported here: a serial run never loads the pool modules
        import concurrent.futures
        import multiprocessing

        # spawned children start from a fresh import and get all they need in
        # the payload; fork would copy this process's heap and is unsafe once
        # the process has threads
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(min(workers, len(upper)), spawn) as pool:
            counts = list(pool.map(_theta_counts, upper, [bound] * len(upper)))
    fld = mods[0][0].field
    index, positions = _index(fld, bound)
    series = [[None] * H for _ in range(H)]
    for (i, j), c in zip(pairs, counts):
        for r, s in ((i, j), (j, i)):
            series[r][s] = ThetaSeries(fld, mods[r][s].i, mods[r][s].j, bound, index, c, positions)
    return series


def theta_difference(t1: ThetaSeries, t2: ThetaSeries) -> tuple[int, ...]:
    """Coefficient-wise t1 - t2 in canonical index order; constant term cancels."""
    if t1.field is not t2.field or t1.bound != t2.bound:
        raise IncompatibleBounds("theta series differ in field or trace bound")
    return tuple(a - b for a, b in zip(t1.counts, t2.counts))
