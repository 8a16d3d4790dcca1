"""Span of theta differences versus known cusp-space dimensions: exact over Q
via the genus of the modular curve, property-based over real quadratic fields."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .brandt import CheckReport, brandt, prime_power_index
from .fields import PrimeIdeal
from .linalg import rank_and_pivots_int
from .orders import ClassSet
from .quaternions import _legendre
from .theta import ThetaSeries, theta_difference


@dataclass
class SpanReport:
    """Rank data of the difference family {theta_ij - theta_1j}."""

    class_count: int
    bound: int
    rank: int
    pivot_nus: list
    expected_dimension: int | None
    stable: bool
    verdict: str


def difference_rows(thetas: list[list[ThetaSeries]]) -> list[tuple[int, ...]]:
    """The H(H-1) coefficient vectors theta_ij - theta_0j in canonical order."""
    H = len(thetas)
    rows = []
    for i in range(1, H):
        for j in range(H):
            rows.append(theta_difference(thetas[i][j], thetas[0][j]))
    return rows


def span_rank(
    thetas: list[list[ThetaSeries]],
    expected_dimension: int | None = None,
    rows: list[tuple[int, ...]] | None = None,
) -> SpanReport:
    """Exact rank over Q of the theta-difference coefficient matrix.

    `rows` are the `difference_rows` of the thetas, built here when not
    given.  Stability is recorded by comparing with the rank of the columns
    of trace at most bound-4; a report with stable=False means the bound is
    too small for the rank to have settled.
    """
    H = len(thetas)
    bound = thetas[0][0].bound
    nus = thetas[0][0].nus
    if rows is None:
        rows = difference_rows(thetas)
    if not rows:
        report = SpanReport(H, bound, 0, [], expected_dimension, True, "")
        report.verdict = _verdict(report)
        return report
    rank, pivots = rank_and_pivots_int([list(r) for r in rows])
    if rank > H - 1:
        raise ArithmeticError(f"difference span rank {rank} exceeds H-1 = {H - 1}")
    cut = [k for k, nu in enumerate(nus) if nu.trace() <= bound - 4]
    trunc = [[r[k] for k in cut] for r in rows]
    rank_small, _ = rank_and_pivots_int(trunc) if cut else (0, [])
    report = SpanReport(
        H,
        bound,
        rank,
        [nus[k].coords() for k in pivots],
        expected_dimension,
        rank_small == rank,
        "",
    )
    report.verdict = _verdict(report)
    return report


def _verdict(report: SpanReport) -> str:
    if report.expected_dimension is None:
        return "rank-reported"
    if report.rank == report.expected_dimension and report.stable:
        return "pass"
    if report.rank == report.expected_dimension:
        return "pass-unstable"
    return "fail"


def classical_dimension(p: int) -> int:
    """dim S_2(Gamma_0(p)) as the genus of the level-p modular curve."""
    mu = p + 1
    if p == 2:
        nu2, nu3 = 1, 0
    else:
        nu2 = 1 + _legendre(-1, p)
        nu3 = 1 if p == 3 else 1 + _legendre(-3, p)
    ninf = 2
    g = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(ninf, 2)
    if g.denominator != 1:
        raise ArithmeticError(f"genus {g} of X_0({p}) is not an integer")
    return int(g)


def hecke_stability(
    classes: ClassSet,
    thetas: list[list[ThetaSeries]],
    primes: list[PrimeIdeal],
    rows: list[tuple[int, ...]],
    base_rank: int,
) -> CheckReport:
    """Exact stability of the difference span under every Brandt action on the source index.

    `rows` are the `difference_rows` of the thetas and `base_rank` their
    rank.  Applying B(q) to the family theta_ij over i sends each difference
    into an integer combination of differences (row sums cancel the
    Eisenstein part), so the span must be preserved exactly; this is
    verified by rank.
    """
    report = CheckReport()
    H = classes.size
    bound = thetas[0][0].bound
    for q in primes:
        if prime_power_index(q, 1).trace() > bound:
            continue
        M = brandt(classes, thetas, prime_power_index(q, 1))
        transformed = []
        for i in range(1, H):
            for j in range(H):
                vec = None
                for k in range(H):
                    c = M.entries[i][k] - M.entries[0][k]
                    if c == 0:
                        continue
                    term = [c * v for v in thetas[k][j].counts]
                    vec = term if vec is None else [a + b for a, b in zip(vec, term)]
                transformed.append(vec if vec is not None else [0] * len(thetas[0][0].counts))
        joint = [list(r) for r in rows] + transformed
        joint_rank, _ = rank_and_pivots_int(joint) if joint else (0, [])
        report.record(
            f"hecke_stability[{q.generator!r}]",
            joint_rank == base_rank,
            f"rank {base_rank} -> {joint_rank}",
        )
    return report


def eisenstein_weighted_sums(classes: ClassSet, thetas: list[list[ThetaSeries]]) -> CheckReport:
    """Sum_j a_nu(M_ij)/w_j must be independent of i, coefficient by coefficient."""
    report = CheckReport()
    H = classes.size
    n = len(thetas[0][0].counts)
    ref = None
    ok = True
    detail = ""
    for i in range(H):
        row = [
            sum(Fraction(thetas[i][j].counts[k], classes.weights[j]) for j in range(H))
            for k in range(n)
        ]
        if ref is None:
            ref = row
        elif row != ref:
            ok = False
            detail = f"row {i} differs from row 0"
            break
    report.record("eisenstein_weighted_sum_independent_of_source", ok, detail)
    return report


def hilbert_consistency(
    classes: ClassSet,
    thetas: list[list[ThetaSeries]],
    primes: list[PrimeIdeal],
) -> tuple[SpanReport, CheckReport]:
    """Property-based verdict for real quadratic fields: span rank reported,
    Hecke stability and Eisenstein identities asserted exactly."""
    rows = difference_rows(thetas)
    span = span_rank(thetas, None, rows)
    checks = hecke_stability(classes, thetas, primes, rows, span.rank)
    for c in eisenstein_weighted_sums(classes, thetas).checks:
        checks.checks.append(c)
    return span, checks
