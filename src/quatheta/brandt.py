"""Brandt matrices assembled from representation numbers, Hecke-algebra
property checks, and exact cuspidal eigenvalue extraction."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import CoefficientOutOfRange
from .fields import AlgebraicInteger, PrimeIdeal, canonical_positive_associate
from .orders import ClassSet
from .theta import ThetaSeries


@dataclass(frozen=True)
class BrandtMatrix:
    """H x H integer matrix b_ij = a_m(M_ij) / (2 w_j) for a fixed index m."""

    index: AlgebraicInteger
    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: BrandtMatrix) -> tuple[tuple[int, ...], ...]:
        return mat_mul(self.entries, other.entries)

    def charpoly(self) -> list[int]:
        """Coefficients of det(x - B), leading first, by Berkowitz's division-free
        recursion: the charpoly of each leading k+1 block is a Toeplitz matrix
        in (a_kk, R A_k^t C) times that of the leading k block A_k."""
        A = self.entries
        poly = [1]
        for k in range(self.size):
            # rows 0..k of A left of column k, as (column, entry) pairs: a Brandt matrix is sparse
            rows = [[(c, a) for c, a in enumerate(A[r][:k]) if a] for r in range(k + 1)]
            v, t = [A[r][k] for r in range(k)], [1, -A[k][k]]
            for _ in range(k):
                t.append(-sum(a * v[c] for c, a in rows[k]))
                v = [sum(a * v[c] for c, a in row) for row in rows[:k]]
            poly = [sum(t[i - j] * poly[j] for j in range(max(0, i - k - 1), min(i, k) + 1)) for i in range(k + 2)]
        return poly


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def prime_power_index(prime: PrimeIdeal, k: int) -> AlgebraicInteger:
    """Canonical totally positive generator of q^k (not the k-th power of the generator)."""
    return canonical_positive_associate(prime.generator ** k)


def brandt(classes: ClassSet, thetas: list[list[ThetaSeries]], index: AlgebraicInteger) -> BrandtMatrix:
    """Assemble B(index) from the theta tables; integrality is asserted."""
    H = classes.size
    bound = thetas[0][0].bound
    if index.trace() > bound:
        raise CoefficientOutOfRange(
            f"index trace {index.trace()} exceeds theta bound {bound}"
        )
    rows = []
    for i in range(H):
        row = []
        for j in range(H):
            a = thetas[i][j].coefficient(index)
            w2 = 2 * classes.weights[j]
            if a % w2 != 0:
                raise ArithmeticError(
                    f"representation number {a} not divisible by 2*w_j = {w2}: normalization bug"
                )
            row.append(a // w2)
        rows.append(tuple(row))
    return BrandtMatrix(index, tuple(rows))


def eisenstein_eigenvalue(prime: PrimeIdeal, k: int, p: int) -> int:
    """Sum of norms of the divisors of q^k coprime to the level."""
    if prime.residue_char == p or p % prime.residue_char == 0:
        return 1  # only the trivial divisor is coprime to the level
    return sum(prime.norm ** t for t in range(k + 1))


@dataclass
class CheckReport:
    """Named exact identity checks with a global verdict."""

    checks: list = dc_field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def all_ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c["ok"]]


def hecke_property_suite(
    classes: ClassSet,
    thetas: list[list[ThetaSeries]],
    primes: list[PrimeIdeal],
    bound: int,
) -> CheckReport:
    """Exact commutation, coprime multiplicativity, prime-power recursion, and
    Eisenstein row sums for every index that fits under the trace bound."""
    report = CheckReport()
    p = classes.order.algebra.p
    mats: dict[tuple[int, int], BrandtMatrix] = {}

    def B(prime, k=1):
        key = (prime.generator.coords(), k)
        if key not in mats:
            mats[key] = brandt(classes, thetas, prime_power_index(prime, k))
        return mats[key]

    usable = [q for q in primes if prime_power_index(q, 1).trace() <= bound]
    identity = brandt(classes, thetas, classes.order.algebra.field.one)
    H = classes.size
    eye = tuple(tuple(1 if i == j else 0 for j in range(H)) for i in range(H))
    report.record("unit_index_is_identity", identity.entries == eye)
    for q in usable:
        M = B(q)
        sums = {sum(row) for row in M.entries}
        report.record(
            f"eisenstein_row_sums[{q.generator!r}]",
            sums == {q.norm + 1},
            f"row sums {sorted(sums)}, expected {q.norm + 1}",
        )
    for a in range(len(usable)):
        for b in range(a + 1, len(usable)):
            qa, qb = usable[a], usable[b]
            lhs = B(qa) @ B(qb)
            rhs = B(qb) @ B(qa)
            report.record(
                f"commutation[{qa.generator!r},{qb.generator!r}]", lhs == rhs
            )
            prod_index = canonical_positive_associate(qa.generator * qb.generator)
            if prod_index.trace() <= bound:
                both = brandt(classes, thetas, prod_index)
                report.record(
                    f"multiplicativity[{qa.generator!r}*{qb.generator!r}]",
                    both.entries == lhs,
                )
    for q in usable:
        k = 2
        while prime_power_index(q, k).trace() <= bound:
            lhs = brandt(classes, thetas, prime_power_index(q, k)).entries
            prev = B(q, k - 1).entries
            prevprev = B(q, k - 2).entries if k >= 2 else eye
            rec = tuple(
                tuple(
                    a - q.norm * b
                    for a, b in zip(row1, row2)
                )
                for row1, row2 in zip(mat_mul(prev, B(q).entries), prevprev)
            )
            report.record(f"prime_power_recursion[{q.generator!r}^{k}]", lhs == rec)
            k += 1
    # self-adjointness w.r.t. the weights: b_ij * w_j = b_ji * w_i
    for q in usable:
        M = B(q)
        ok = all(
            M.entries[i][j] * classes.weights[j] == M.entries[j][i] * classes.weights[i]
            for i in range(H)
            for j in range(H)
        )
        report.record(f"weighted_self_adjoint[{q.generator!r}]", ok)
    return report


@dataclass(frozen=True)
class Eigenvalue:
    """An exact rational eigenvalue or a certified rational isolation interval."""

    minpoly: tuple[int, ...]
    exact: Fraction | None
    interval: tuple[Fraction, Fraction] | None

    def bounds(self) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return (self.exact, self.exact)
        return self.interval


def cuspidal_eigenvalues(charpoly: list[int], prime: PrimeIdeal) -> list[Eigenvalue]:
    """Eigenvalues of B(q) on the complement of the Eisenstein line, from the
    coefficients of its characteristic polynomial (leading first).

    The all-ones vector is an eigenvector with eigenvalue Nq+1; the cuspidal
    part is read off the characteristic polynomial divided by that factor.
    Rational roots are exact; the rest come as isolation intervals from the
    square-free factorization over Q.
    """
    import sympy

    x = sympy.Symbol("x")
    quo = [charpoly[0]]  # synthetic division by x - (Nq + 1); the last entry is the remainder
    for c in charpoly[1:]:
        quo.append(c + (prime.norm + 1) * quo[-1])
    if quo.pop():
        raise ArithmeticError("Eisenstein eigenvalue missing from the spectrum")
    out = []
    for factor, mult in sympy.factor_list(sympy.Poly(quo, x))[1]:
        fpoly = sympy.Poly(factor, x)
        if fpoly.degree() == 1:
            c1, c0 = fpoly.all_coeffs()
            root = Fraction(-int(c0), int(c1))
            for _ in range(mult):
                out.append(Eigenvalue(tuple(int(c) for c in fpoly.all_coeffs()), root, None))
        else:
            for lo, hi in _isolate_real_roots(fpoly):
                for _ in range(mult):
                    out.append(
                        Eigenvalue(
                            tuple(int(c) for c in fpoly.all_coeffs()),
                            None,
                            (lo, hi),
                        )
                    )
    out.sort(key=lambda e: e.bounds()[0])
    return out


def _isolate_real_roots(fpoly) -> list[tuple[Fraction, Fraction]]:
    ivs = fpoly.intervals()
    out = []
    for (lo, hi), _mult in ivs:
        out.append((Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q))))
    return out


def ramanujan_ok(ev: Eigenvalue, prime: PrimeIdeal) -> bool:
    """|eigenvalue| <= 2 sqrt(Nq), checked on exact interval endpoints."""
    lo, hi = ev.bounds()
    m = max(abs(lo), abs(hi))
    return m * m <= 4 * prime.norm
