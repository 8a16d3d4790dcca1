"""Span of theta differences versus known cusp-space dimensions: exact over Q
via the genus of the modular curve, property-based over real quadratic fields
on the run's Brandt table."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .brandt import BrandtTable, CheckReport
from .fields import PrimeIdeal
from .linalg import rank_and_pivots_int
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
    given.  Stability compares with the rank of the columns of trace at most
    bound-4, a prefix of the index (in trace order), so that rank counts the
    pivots there; stable=False means the bound is too small for the rank to
    have settled.
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
    report = SpanReport(
        H,
        bound,
        rank,
        [nus[k].coords() for k in pivots],
        expected_dimension,
        all(nus[k].trace() <= bound - 4 for k in pivots),
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
    thetas: list[list[ThetaSeries]],
    table: BrandtTable,
    hecke: list[PrimeIdeal],
    rows: list[tuple[int, ...]],
    base_rank: int,
) -> CheckReport:
    """Exact stability of the difference span under every Brandt action on the source index.

    `rows` are the `difference_rows` of the thetas and `base_rank` their
    rank; each prime's index must be in `table`.  Applying B(q) to the
    family theta_ij over i sends each difference into an integer
    combination of differences (row sums cancel the Eisenstein part), so
    the span must be preserved exactly; this is verified by rank.
    """
    report = CheckReport()
    H, width = len(thetas), len(thetas[0][0].counts)
    for P in hecke:
        M = table[P.generator.coords()]
        transformed = []
        for i in range(1, H):
            # row i of B(q) minus row 0, as (k, coefficient) pairs: a Brandt matrix is sparse
            coeffs = [(k, a - b) for k, (a, b) in enumerate(zip(M.entries[i], M.entries[0])) if a != b]
            for j in range(H):
                vec = [0] * width
                for k, c in coeffs:
                    vec = [x + c * v for x, v in zip(vec, thetas[k][j].counts)]
                transformed.append(vec)
        joint = [list(r) for r in rows] + transformed
        joint_rank, _ = rank_and_pivots_int(joint) if joint else (0, [])
        report.record(
            f"hecke_stability[{P.generator!r}]",
            joint_rank == base_rank,
            f"rank {base_rank} -> {joint_rank}",
        )
    return report


def eisenstein_weighted_sums(table: BrandtTable) -> CheckReport:
    """Sum_j a_nu(M_ij)/w_j must be independent of i, coefficient by coefficient.

    For nu != 0 the sum is 2 Sum_j B(nu)_ij, twice a row sum of the table,
    and at nu = 0 it is Sum_j 1/w_j for every i; so the check compares the
    integer row sums of every B(nu).
    """
    report = CheckReport()
    H = next(iter(table.values())).size
    sums = [tuple(sum(M.entries[i]) for M in table.values()) for i in range(H)]
    bad = next((i for i in range(1, H) if sums[i] != sums[0]), None)
    detail = "" if bad is None else f"row {bad} differs from row 0"
    report.record("eisenstein_weighted_sum_independent_of_source", bad is None, detail)
    return report


def hilbert_consistency(
    thetas: list[list[ThetaSeries]],
    table: BrandtTable,
    hecke: list[PrimeIdeal],
) -> tuple[SpanReport, CheckReport]:
    """Property-based verdict for real quadratic fields: span rank reported,
    Hecke stability and Eisenstein identities asserted exactly on the
    Brandt matrices of `table`."""
    rows = difference_rows(thetas)
    span = span_rank(thetas, None, rows)
    checks = hecke_stability(thetas, table, hecke, rows, span.rank)
    checks.checks.extend(eisenstein_weighted_sums(table).checks)
    return span, checks
